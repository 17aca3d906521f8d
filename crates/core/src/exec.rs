//! The shared interval-execution core.
//!
//! Both engines — offline (Algorithm 1) and online (Algorithm 4) — are
//! the same loop: workers take the next event's interval
//! `I(e) = [Gmin(e), Gbnd(e)]` in `→p` order and run a bounded subroutine
//! on it, surviving sink faults without losing or double-delivering cuts
//! and accounting for everything in one metrics registry. They differ
//! only in where intervals come from. This module is the single
//! implementation of that loop:
//!
//! * `IntervalExecutor` — the per-interval machinery: subroutine
//!   dispatch, delivery metering, the `catch_unwind` isolation boundary
//!   with its clean-slate-retry/quarantine protocol, and the chaos
//!   injection site at the sink.
//! * `Pool` — one supervised worker pool: in-flight slots, the restart
//!   budget, the watchdog, the spill buffer that preempted halves and
//!   overflow go to, and the one split / quarantine / retry disposition
//!   (`process_interval`). It is generic over how space and sink are held
//!   (`Arc` / `Box<dyn>` for a pool that outlives its caller, plain
//!   borrows for a scoped one) and its workers over a `JobSource`.
//! * Two sources: the packed `→p` partition of a finished poset, popped
//!   under one lock by scoped workers (`run_partition`, the offline
//!   engine), and a bounded channel fed as events are inserted
//!   (`StreamExecutor`, the online engine, with an explicit
//!   [`BackpressurePolicy`]).
//!
//! The isolation contract: a panic unwinding out of the sink is caught
//! at the interval boundary; the interval is retried once *if and only
//! if* nothing of it had been delivered (re-running a partial interval
//! would double-deliver its prefix — Theorem 2's exactly-once guarantee
//! outranks completeness), and otherwise quarantined with the exact
//! delivered-prefix length on record. Interval disjointness (Lemmas 2–3)
//! is what makes the blast radius of a fault one interval, never the
//! run.

use crate::faults::{FaultLog, FaultPlan, QuarantinedInterval};
use crate::governor::{GovernorConfig, MemoryBudget, OverloadError, Pressure};
use crate::interval::Interval;
use crate::metrics::{MetricsSnapshot, ParaMetrics};
use crate::sink::{MeteredSink, ParallelCutSink, SinkBridge};
use crate::store::{DurableIntervalQueue, PackedIntervalQueue};
use crossbeam_channel::TrySendError;
use paramount_enumerate::{panic_message, Algorithm, CutSink, EnumError, EnumStats};
use paramount_poset::CutSpace;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::ops::{ControlFlow, Deref};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Box-size threshold used by `Algorithm::Auto` while the spill deque is
/// non-empty: under memory pressure everything but near-degenerate
/// intervals runs in the `O(n)`-space leveled walk.
const AUTO_PRESSURE_THRESHOLD: u128 = 64;

/// Observations required in the cut-count histogram before `Auto` trusts
/// it for threshold calibration (avoids steering on the first few,
/// possibly unrepresentative, intervals).
const AUTO_CALIBRATION_MIN_INTERVALS: u64 = 32;

/// Box-size ceiling for an interval to be coalesced into a tiny-interval
/// batch instead of occupying its own dispatch-queue slot. Wide-but-
/// shallow posets produce floods of near-degenerate intervals whose
/// enumeration is cheaper than a channel round-trip; batching amortizes
/// that overhead without touching the per-interval isolation contract.
const BATCH_TINY_BOX: u128 = 16;

/// Coalesced intervals per batch before the pending buffer is flushed to
/// the channel as one entry. Bounded so a stalled producer can only ever
/// delay (never lose) this many tiny intervals until the next flush
/// trigger: a full buffer, a non-tiny submission, or `finish`.
const BATCH_MAX_INTERVALS: usize = 32;

/// One queue entry a worker takes from its source: a single interval, or
/// a coalesced run of consecutive tiny intervals sharing a channel slot
/// (only the online engine's `submit` coalesces). Workers
/// unroll a batch at pickup, so everything downstream of the queue (the
/// isolation boundary, preemption, quarantine) stays per-interval.
enum Job {
    /// An interval big enough to be worth its own slot.
    One(Interval),
    /// A coalesced run of tiny intervals (see [`BATCH_TINY_BOX`]).
    Many(Vec<Interval>),
}

impl Job {
    /// Intervals carried by this queue entry.
    fn len(&self) -> usize {
        match self {
            Job::One(_) => 1,
            Job::Many(batch) => batch.len(),
        }
    }

    /// Consumes the job, applying `f` to each carried interval in
    /// submission order.
    fn for_each(self, mut f: impl FnMut(Interval)) {
        match self {
            Job::One(interval) => f(interval),
            Job::Many(batch) => batch.into_iter().for_each(&mut f),
        }
    }
}

/// The interval-execution core shared by both engines: subroutine
/// configuration plus the one `catch_unwind` retry/quarantine
/// implementation in the crate.
///
/// Plain `Copy` data — engines embed one and the worker pool reads it
/// through shared state.
///
/// # Adaptive subroutine dispatch
///
/// With `algorithm: Algorithm::Auto` the executor re-decides the
/// subroutine for **every interval** right before running it: big/wide
/// intervals (by [`Interval::box_size`]) take the space-efficient
/// leveled walk, tiny ones the lexical scan, and the threshold between
/// them adapts to two live [`ParaMetrics`] signals — a non-empty spill
/// deque (memory pressure ⇒ prefer `O(n)`-space traversal now) and the
/// per-interval cut-count histogram (observed interval sizes calibrate
/// how much to trust the box-size estimate). Decisions are counted in
/// `intervals_auto_leveled` / `intervals_auto_lexical`. A resolution is
/// made once per interval, so the single-retry path re-runs the same
/// subroutine it first picked.
#[derive(Clone, Copy, Debug)]
pub(crate) struct IntervalExecutor {
    /// Bounded sequential subroutine run on each interval —
    /// [`Algorithm::Auto`] enables per-interval adaptive dispatch (see
    /// the type-level docs).
    pub algorithm: Algorithm,
    /// Per-interval frontier budget for the stateful subroutines
    /// (BFS/DFS); the lexical subroutine is stateless and ignores it.
    pub frontier_budget: Option<usize>,
    /// Liveness deadline for one in-flight interval (`None` = never
    /// preempt). Workers check a cooperative cancellation token once per
    /// visited cut and this deadline inline every [`DEADLINE_STRIDE`]; an
    /// interval that overstays is preempted and split or quarantined
    /// ([`crate::governor`]).
    pub interval_deadline: Option<Duration>,
    /// Deterministic fault-injection plan (inert, and unread, unless the
    /// `chaos` feature compiles the sites in).
    #[cfg_attr(not(feature = "chaos"), allow(dead_code))]
    pub faults: FaultPlan,
}

impl IntervalExecutor {
    /// Enumerates one interval into `sink`, metering every completed
    /// delivery into `emitted` (published when the attempt ends, also by
    /// unwinding) so a fault knows the exact prefix length that reached
    /// the sink. A preemption guard is consulted *before* a delivery, so a
    /// preempted attempt's meter is still exactly the delivered prefix.
    fn run_interval<Sp, K>(
        &self,
        space: &Sp,
        iv: &Interval,
        algorithm: Algorithm,
        sink: &K,
        emitted: &AtomicU64,
        preempt: Option<&PreemptGuard<'_>>,
    ) -> Result<EnumStats, EnumError>
    where
        Sp: CutSpace + ?Sized,
        K: ParallelCutSink + ?Sized,
    {
        let mut bridge = MeteredSink::new(SinkBridge::new(sink, iv.event), emitted);
        match preempt {
            Some(guard) => {
                let mut wrapped = PreemptSink {
                    inner: bridge,
                    guard,
                    visits: 0,
                };
                iv.enumerate_budgeted(space, algorithm, self.frontier_budget, &mut wrapped)
            }
            None => iv.enumerate_budgeted(space, algorithm, self.frontier_budget, &mut bridge),
        }
    }

    /// Resolves the configured subroutine for one concrete interval —
    /// the §5e adaptive dispatch point. Concrete algorithms pass through
    /// unchanged; [`Algorithm::Auto`] picks per interval:
    ///
    /// * The base signal is the interval's [`Interval::box_size`] — the
    ///   potential-cut volume of `[Gmin, Gbnd]`. Big/wide boxes take the
    ///   space-efficient leveled walk, tiny ones the lexical scan (whose
    ///   per-cut constant is lower on short intervals).
    /// * Any spill backlog ([`ParaMetrics::spill_bytes`]) is a live
    ///   memory-pressure signal: the threshold collapses so *every*
    ///   non-trivial interval runs in `O(n)` space until the backlog
    ///   drains.
    /// * Once enough intervals have completed, the observed cut-count
    ///   histogram ([`ParaMetrics::interval_cuts`]) calibrates the
    ///   threshold: if real intervals are running much larger than the
    ///   base threshold assumes (mean observed cuts above it), the
    ///   threshold halves — box size *under*-estimates nothing, so large
    ///   observed means say the workload is in the wide regime where
    ///   frontier storage, not per-cut constants, dominates.
    ///
    /// Every `Auto` decision is counted in `intervals_auto_leveled` /
    /// `intervals_auto_lexical`, so a run's dispatch mix is visible in
    /// `paramount stats` and the bench metrics JSON.
    fn resolve_algorithm(&self, iv: &Interval, metrics: &ParaMetrics) -> Algorithm {
        if self.algorithm != Algorithm::Auto {
            return self.algorithm;
        }
        let mut threshold = paramount_enumerate::AUTO_BOX_THRESHOLD;
        if metrics.spill_bytes.get() > 0 {
            // Memory pressure: only genuinely tiny intervals may keep the
            // lexical path's constant-factor advantage.
            threshold = AUTO_PRESSURE_THRESHOLD;
        } else {
            let seen = metrics.interval_cuts.count();
            if seen >= AUTO_CALIBRATION_MIN_INTERVALS
                && metrics.interval_cuts.sum() / seen
                    > paramount_enumerate::AUTO_BOX_THRESHOLD as u64
            {
                threshold /= 2;
            }
        }
        let resolved = if iv.box_size() >= threshold {
            Algorithm::Leveled
        } else {
            Algorithm::Lexical
        };
        match resolved {
            Algorithm::Leveled => metrics.intervals_auto_leveled.add(1),
            _ => metrics.intervals_auto_lexical.add(1),
        }
        resolved
    }

    /// One interval under the `catch_unwind` boundary — the single
    /// retry/quarantine decision point for both engines. At most
    /// one retry, and only from a clean slate (`emitted == 0`).
    ///
    /// `emitted` is reset at the start of every attempt; it is the
    /// in-flight slot's meter, observable by the supervisor across a
    /// worker-body panic.
    fn run_isolated<Sp, K>(
        &self,
        space: &Sp,
        iv: &Interval,
        sink: &K,
        metrics: &ParaMetrics,
        emitted: &AtomicU64,
        preempt: Option<&PreemptControl<'_>>,
    ) -> Result<EnumStats, IntervalFault>
    where
        Sp: CutSpace + ?Sized,
        K: ParallelCutSink + ?Sized,
    {
        let tripped = AtomicBool::new(false);
        // Resolve `Auto` once per interval (not per attempt): the retry
        // must re-run the identical subroutine, or the delivered-prefix
        // bookkeeping would compare apples to oranges.
        let algorithm = self.resolve_algorithm(iv, metrics);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            emitted.store(0, Ordering::Relaxed);
            let guard = preempt.map(|control| PreemptGuard {
                control,
                tripped: &tripped,
            });
            // The sink is reachable after the catch by design (shared,
            // `&self`-based, synchronized internally), so
            // `AssertUnwindSafe` asserts exactly the contract
            // `ParallelCutSink` already demands of implementations.
            let run = catch_unwind(AssertUnwindSafe(|| {
                self.run_interval(space, iv, algorithm, sink, emitted, guard.as_ref())
            }));
            match run {
                Ok(Ok(stats)) => return Ok(stats),
                // The preemption guard stops an enumeration with the same
                // `Break` a sink uses; the tripped flag is what separates
                // "deadline expired" from "sink asked for a global stop".
                Ok(Err(EnumError::Stopped)) if tripped.load(Ordering::Relaxed) => {
                    return Err(IntervalFault::Preempted {
                        emitted: emitted.load(Ordering::Relaxed),
                    })
                }
                Ok(Err(err)) => return Err(IntervalFault::Error(err)),
                Err(payload) => {
                    metrics.worker_panics.add(1);
                    let delivered = emitted.load(Ordering::Relaxed);
                    if delivered == 0 && attempts == 1 {
                        metrics.intervals_retried.add(1);
                        continue;
                    }
                    return Err(IntervalFault::Panicked {
                        emitted: delivered,
                        attempts,
                        message: panic_message(payload.as_ref()),
                    });
                }
            }
        }
    }
}

/// How one interval's processing ended when it did not end cleanly.
pub(crate) enum IntervalFault {
    /// A real enumeration error (`Stopped`, `OutOfBudget`).
    Error(EnumError),
    /// A panic unwound out of the sink; the interval is quarantined.
    Panicked {
        /// Cuts the sink saw before the fault.
        emitted: u64,
        /// Attempts made (2 means the clean-slate retry also failed).
        attempts: u32,
        /// Stringified panic payload.
        message: String,
    },
    /// The interval's deadline expired (watchdog token or inline check):
    /// split and rescheduled if nothing was delivered, quarantined with
    /// the exact prefix otherwise.
    Preempted {
        /// Cuts the sink saw before the preemption.
        emitted: u64,
    },
}

/// Preemption inputs for one interval attempt: the cancellation token the
/// watchdog sets, and an inline deadline for attempts with no watchdog
/// behind them (its spawn failed; the exact-trip determinism tests rely
/// on it too).
pub(crate) struct PreemptControl<'a> {
    /// Cooperative cancellation token, checked once per visited cut.
    pub cancel: &'a AtomicBool,
    /// Absolute deadline, read inline every [`DEADLINE_STRIDE`] visits.
    pub deadline_at: Option<Instant>,
}

/// Per-attempt view of a [`PreemptControl`]: adds the `tripped` flag that
/// tells a preemption `Break` apart from a sink-requested stop.
struct PreemptGuard<'a> {
    control: &'a PreemptControl<'a>,
    tripped: &'a AtomicBool,
}

/// Visits between two clock reads under an inline deadline. The first
/// visit reads it, so a deadline already past delivers nothing.
const DEADLINE_STRIDE: u32 = 64;

/// [`CutSink`] wrapper enforcing preemption: checks the token and the
/// deadline *before* delegating, so a tripped visit delivers nothing and
/// the emission meter still reads the exact delivered prefix.
struct PreemptSink<'a, S> {
    inner: S,
    guard: &'a PreemptGuard<'a>,
    visits: u32,
}

impl<S: CutSink> CutSink for PreemptSink<'_, S> {
    fn visit(&mut self, cut: paramount_poset::CutRef<'_>) -> ControlFlow<()> {
        let clock_due = self.visits % DEADLINE_STRIDE == 0;
        self.visits = self.visits.wrapping_add(1);
        let control = self.guard.control;
        if control.cancel.load(Ordering::Relaxed)
            || (clock_due && control.deadline_at.is_some_and(|at| Instant::now() >= at))
        {
            self.guard.tripped.store(true, Ordering::Relaxed);
            return ControlFlow::Break(());
        }
        self.inner.visit(cut)
    }
}

/// What `submit` does when the streaming dispatch queue is full.
///
/// The queue fills exactly when insertions outpace enumeration — with
/// exponentially sized intervals that is a *when*, not an *if*, on heavy
/// traffic. The policy decides who absorbs the overload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the observing thread until a worker frees a slot. Slows the
    /// observed program down (the paper's implicit model: instrumentation
    /// is allowed to throttle execution) but loses nothing — Theorem 3's
    /// "every cut exactly once" holds unconditionally.
    #[default]
    Block,
    /// Never block: divert overflow intervals to an unbounded buffer that
    /// workers drain with priority. Keeps the observed program at full
    /// speed and still loses nothing, at the cost of re-admitting the
    /// unbounded memory the queue bound was meant to cap — the spill
    /// counter in [`ParaMetrics`] makes that cost visible, and the
    /// buffer stores delta-coded descriptors
    /// ([`crate::store::PackedIntervalQueue`]) to keep it small.
    SpillToDeque,
    /// Never block and never buffer: drop the interval and count it in
    /// [`ParaMetrics::intervals_rejected`]. The cut count is then a lower
    /// bound, not Theorem 2's exact `i(P)` — for load-shedding monitors
    /// that prefer losing data over perturbing the program.
    Fail,
}

/// What the online engine's pool is built from (the executor-facing
/// subset of its public config).
#[derive(Clone, Debug)]
pub(crate) struct StreamParams {
    /// Enumeration worker threads (≥ 1).
    pub workers: usize,
    /// Capacity of the bounded dispatch channel (≥ 1).
    pub queue_capacity: usize,
    /// What `submit` does when the channel is full.
    pub backpressure: BackpressurePolicy,
    /// Shared supervisor restart budget for panics that escape the
    /// per-interval boundary.
    pub worker_restart_budget: u32,
    /// Directory for the cold spill tier. `None` keeps the spill deque
    /// RAM-only; with a directory, memory pressure freezes the deque to
    /// disk instead of shedding work.
    pub spill_dir: Option<std::path::PathBuf>,
}

/// Where a worker's next queue entry comes from — the one thing the two
/// engines' pools differ in.
trait JobSource: Sync {
    /// The next entry for worker `index`, waiting for one if the source
    /// can still grow; `None` once it is exhausted for good.
    fn next(&self, metrics: &ParaMetrics, index: usize) -> Option<Job>;
}

/// The online source: the bounded channel `submit` feeds. Exhausted when
/// the sender is dropped and the queue has drained.
impl JobSource for crossbeam_channel::Receiver<Job> {
    fn next(&self, metrics: &ParaMetrics, index: usize) -> Option<Job> {
        let wait = Instant::now();
        let job = self.recv().ok()?;
        metrics
            .worker(index)
            .add_idle(wait.elapsed().as_nanos() as u64);
        metrics.queue_depth.sub(job.len() as u64);
        Some(job)
    }
}

/// The offline source: a finished poset's packed `→p` partition, popped
/// under one lock — the paper's "workers pull events off the shared
/// total order". It never waits, and stops handing out work once the
/// sink has asked for a global stop.
struct Partition<'a> {
    queue: Mutex<&'a mut PackedIntervalQueue>,
    stopped: &'a AtomicBool,
}

impl JobSource for Partition<'_> {
    fn next(&self, _: &ParaMetrics, _: usize) -> Option<Job> {
        if self.stopped.load(Ordering::Relaxed) {
            return None;
        }
        self.queue.lock().pop_front().map(Job::One)
    }
}

/// Per-worker-slot in-flight tracking: how many cuts of the slot's
/// current interval the sink has already seen, and the interval itself
/// once a worker body died inside it. The supervisor reads both when a
/// panic escapes the per-interval boundary, so even a dying worker body
/// cannot lose an interval — it gets quarantined with an exact emission
/// count instead.
#[derive(Default)]
struct InFlightSlot {
    /// Set by [`InFlight`] on unwind (and by the chaos worker kill).
    interval: Mutex<Option<Interval>>,
    /// The unprocessed tail of a coalesced [`Job::Many`] this slot is
    /// unrolling. Parked here (not held on the worker's stack) so a
    /// panic that escapes the per-interval boundary mid-batch cannot
    /// drop the remainder — the respawned body or the inline drain picks
    /// it back up.
    backlog: Mutex<VecDeque<Interval>>,
    emitted: AtomicU64,
    /// Cooperative cancellation token the watchdog sets when the slot's
    /// interval overstays its deadline; cleared at every pickup.
    cancel: AtomicBool,
    /// When the slot went busy, as milliseconds since the pool's epoch
    /// *plus one* (0 = idle) — what the watchdog ages against.
    busy_since_ms: AtomicU64,
    /// Cuts this slot delivered to the sink (completed intervals plus
    /// quarantined prefixes). Summed per run, so a registry shared
    /// across runs does not blur [`PoolOutcome::cuts`].
    delivered: AtomicU64,
    /// Largest per-interval frontier storage this slot needed.
    peak_frontiers: AtomicUsize,
}

/// Registers an interval in its slot only if the worker body unwinds
/// past it (a panic outside the executor's own isolation boundary), so
/// the supervisor can quarantine it with the slot meter's exact delivered
/// prefix — at no cost to an interval that returns.
struct InFlight<'a> {
    slot: &'a InFlightSlot,
    interval: &'a Interval,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            *self.slot.interval.lock() = Some(self.interval.clone());
        }
    }
}

/// The one worker pool: everything workers, supervisor, watchdog and the
/// inline drain share. `S` and `K` are how the space and the sink are
/// held — `Arc<Sp>` / `Box<dyn ParallelCutSink>` under the online engine
/// (the pool outlives any call), plain `&Sp` / `&K` under the offline
/// one (scoped workers, static sink dispatch).
struct Pool<S, K> {
    space: S,
    exec: IntervalExecutor,
    sink: K,
    stopped: AtomicBool,
    error: Mutex<Option<EnumError>>,
    metrics: Arc<ParaMetrics>,
    /// Intervals waiting outside the source, delta-coded, with an
    /// optional cold tier on disk: both halves of a preempted split, and
    /// overflow under [`BackpressurePolicy::SpillToDeque`]. Workers drain
    /// it with priority; what is left when they exit is drained inline.
    spill: Mutex<DurableIntervalQueue>,
    fault_log: Mutex<FaultLog>,
    in_flight: Box<[InFlightSlot]>,
    /// Remaining supervisor restarts, shared across the pool. Signed so
    /// concurrent decrements past zero stay well-defined.
    restart_budget: AtomicI64,
    /// The byte account backing adaptive backpressure — possibly shared
    /// with other engines (the daemon threads one budget through every
    /// session).
    budget: Arc<MemoryBudget>,
    /// First typed overload error, if the hard watermark ever shed work.
    overload: Mutex<Option<OverloadError>>,
    /// Time zero for the watchdog's millisecond arithmetic.
    epoch: Instant,
    /// Tells the watchdog thread to exit.
    watchdog_stop: AtomicBool,
    /// Ordinal counters backing the fault plan's "k-th call" sites.
    #[cfg(feature = "chaos")]
    fault_state: crate::faults::FaultState,
}

/// What a finished pool produced; each front-end folds this into its
/// public report.
pub(crate) struct PoolOutcome {
    pub error: Option<EnumError>,
    /// The sink asked for a global stop.
    pub stopped: bool,
    /// Cuts the sink received in this run, quarantined prefixes included.
    pub cuts: u64,
    pub peak_frontiers: usize,
    pub faults: FaultLog,
    pub metrics: MetricsSnapshot,
    /// Set when the hard watermark forced work to be shed mid-stream.
    pub overload: Option<OverloadError>,
}

impl<S, K> Pool<S, K>
where
    S: Deref<Target: CutSpace>,
    K: Deref<Target: ParallelCutSink>,
{
    /// A pool of `width` worker slots with a RAM-only spill and a byte
    /// account of its own (no watermarks).
    fn new(
        space: S,
        exec: IntervalExecutor,
        sink: K,
        metrics: Arc<ParaMetrics>,
        width: usize,
        restart_budget: u32,
    ) -> Self {
        assert!(width >= 1, "need at least one worker");
        Pool {
            spill: Mutex::new(DurableIntervalQueue::new(space.num_threads())),
            space,
            exec,
            sink,
            stopped: AtomicBool::new(false),
            error: Mutex::new(None),
            metrics,
            fault_log: Mutex::new(FaultLog::default()),
            in_flight: (0..width).map(|_| InFlightSlot::default()).collect(),
            restart_budget: AtomicI64::new(i64::from(restart_budget)),
            budget: Arc::new(MemoryBudget::new(GovernorConfig::default())),
            overload: Mutex::new(None),
            epoch: Instant::now(),
            watchdog_stop: AtomicBool::new(false),
            #[cfg(feature = "chaos")]
            fault_state: crate::faults::FaultState::default(),
        }
    }

    fn slot(&self, index: usize) -> &InFlightSlot {
        &self.in_flight[index % self.in_flight.len()]
    }

    /// Starts one worker body per slot through `spawn` (plain or scoped —
    /// the caller knows which). Spawn failures degrade the pool instead
    /// of aborting the run: whatever workers did start carry the load,
    /// and with none the front-end enumerates on its own thread.
    fn spawn_workers<H>(
        &self,
        mut spawn: impl FnMut(std::thread::Builder, usize) -> std::io::Result<H>,
    ) -> Vec<H> {
        let mut workers = Vec::with_capacity(self.in_flight.len());
        for w in 0..self.in_flight.len() {
            #[cfg(feature = "chaos")]
            if self.exec.faults.spawn_faults(self.fault_state.next_spawn()) {
                self.metrics.worker_spawn_failures.add(1);
                continue;
            }
            let builder = std::thread::Builder::new().name(format!("paramount-worker-{w}"));
            match spawn(builder, w) {
                Ok(handle) => workers.push(handle),
                Err(_) => self.metrics.worker_spawn_failures.add(1),
            }
        }
        workers
    }

    /// Starts the watchdog through `spawn`; it only exists when a deadline
    /// is configured. If its spawn fails, preemption still works: workers
    /// check the deadline inline as they visit cuts; only a *stuck* sink
    /// (one that never returns control) escapes detection without the
    /// external thread.
    fn spawn_watchdog<H>(
        &self,
        spawn: impl FnOnce(std::thread::Builder, Duration) -> std::io::Result<H>,
    ) -> Option<H> {
        let deadline = self.exec.interval_deadline?;
        let builder = std::thread::Builder::new().name("paramount-watchdog".to_string());
        spawn(builder, deadline).ok()
    }

    /// Abandons an interval into the fault log. The prefix the sink
    /// already saw (`emitted` cuts, delivered before the fault) is added
    /// to the cut total so the headline count stays exactly "cuts the
    /// sink received".
    fn quarantine(
        &self,
        interval: &Interval,
        emitted: u64,
        attempts: u32,
        message: String,
        index: usize,
    ) {
        self.metrics.intervals_quarantined.add(1);
        if emitted > 0 {
            self.metrics.cuts_emitted.add_on(index, emitted);
            let delivered = &self.slot(index).delivered;
            delivered.fetch_add(emitted, Ordering::Relaxed);
        }
        self.fault_log.lock().push(QuarantinedInterval {
            interval: interval.clone(),
            cuts_emitted: emitted,
            attempts,
            message,
        });
    }

    /// Enumerates on the calling thread whatever no worker lived to
    /// process — the rest of the source, batch tails parked in dead
    /// workers' slots, the spill — so the outcome covers every dispatched
    /// interval regardless of pool health (a pool that never spawned
    /// included). Call after joining the workers, with the source closed.
    fn drain_inline(&self, source: &impl JobSource) {
        while let Some(job) = source.next(&self.metrics, 0) {
            job.for_each(|interval| self.process_interval(&interval, 0));
        }
        for slot in self.in_flight.iter() {
            loop {
                let next = slot.backlog.lock().pop_front();
                let Some(interval) = next else { break };
                self.process_interval(&interval, 0);
            }
        }
        while let Some(interval) = pop_spill(self) {
            self.process_interval(&interval, 0);
        }
    }

    /// Tells the watchdog to exit now rather than at its next tick; the
    /// caller joins it.
    fn stop_watchdog(&self, watchdog: Option<&std::thread::Thread>) {
        self.watchdog_stop.store(true, Ordering::Relaxed);
        if let Some(thread) = watchdog {
            thread.unpark();
        }
    }

    /// Reads out the run. Everything is read through `&self`, so a
    /// leaked handle to the pool (a worker body still unwinding) degrades
    /// nothing.
    fn outcome(&self) -> PoolOutcome {
        let slots = || self.in_flight.iter();
        PoolOutcome {
            error: self.error.lock().take(),
            stopped: self.stopped.load(Ordering::Relaxed),
            cuts: slots().map(|s| s.delivered.load(Ordering::Relaxed)).sum(),
            peak_frontiers: slots()
                .map(|s| s.peak_frontiers.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
            faults: self.fault_log.lock().clone(),
            metrics: self.metrics.snapshot(),
            overload: self.overload.lock().take(),
        }
    }

    /// Worker thread entry: supervises [`Pool::worker_loop`], restarting
    /// the body when a panic escapes the per-interval isolation (which
    /// only happens for faults *outside* the executor's own
    /// `catch_unwind` — e.g. an injected worker kill, or a panic in the
    /// queue plumbing). The in-flight interval is quarantined before the
    /// restart, so even a dying worker never loses work; the restart
    /// budget is shared across the pool and a worker that exhausts it
    /// simply exits, leaving its share to the survivors (and ultimately
    /// to the inline drain).
    fn worker_entry(&self, source: &impl JobSource, index: usize) {
        loop {
            let run = catch_unwind(AssertUnwindSafe(|| self.worker_loop(source, index)));
            let payload = match run {
                Ok(()) => return, // clean exit: source exhausted and spill drained
                Err(payload) => payload,
            };
            self.metrics.worker_panics.add(1);
            let slot = self.slot(index);
            if let Some(interval) = slot.interval.lock().take() {
                let emitted = slot.emitted.load(Ordering::Relaxed);
                let message = panic_message(payload.as_ref());
                self.quarantine(&interval, emitted, 1, message, index);
            }
            if self.restart_budget.fetch_sub(1, Ordering::Relaxed) > 0 {
                self.metrics.worker_restarts.add(1);
                continue; // phoenix: the same thread resumes as a fresh body
            }
            return; // budget exhausted: die quietly, survivors take over
        }
    }

    /// Watchdog thread body: periodically ages every in-flight slot
    /// against the configured deadline and raises the slot's cooperative
    /// cancel token when an interval overstays. Workers observe the token
    /// once per visited cut, so a tripped slot preempts at the next
    /// emission — the watchdog never kills a thread, it only asks.
    ///
    /// A benign race exists by design: the watchdog may read a stale
    /// `busy_since_ms` and cancel a slot that just picked up a *fresh*
    /// interval. That early preemption is sound — the interval is split
    /// or quarantined exactly like a genuine timeout — so no extra
    /// synchronization is spent preventing it.
    fn watchdog_entry(&self, deadline: Duration) {
        let deadline_ms = deadline.as_millis() as u64;
        let tick = (deadline / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
        loop {
            std::thread::park_timeout(tick);
            if self.watchdog_stop.load(Ordering::Relaxed) {
                return;
            }
            self.metrics.watchdog_wakeups.add(1);
            let now_ms = self.epoch.elapsed().as_millis() as u64;
            for slot in self.in_flight.iter() {
                let started = slot.busy_since_ms.load(Ordering::Relaxed);
                if started != 0 && now_ms.saturating_sub(started - 1) >= deadline_ms {
                    slot.cancel.store(true, Ordering::Relaxed);
                }
            }
        }
    }

    /// The one worker loop: spill first, then the source, until the
    /// source is exhausted.
    fn worker_loop(&self, source: &impl JobSource, index: usize) {
        // A batch tail a previous body of this slot died inside: already
        // dequeued and accounted, so it goes first. Only this slot's own
        // `Job::Many` arm parks anything here, and it drains before
        // looping, so once per body is enough.
        self.drain_backlog(index);
        loop {
            // Spilled intervals are the oldest backlog, and checking here
            // guarantees the buffer drains while the source is busy.
            if let Some(interval) = pop_spill(self) {
                self.process_worker_pickup(&interval, index);
                continue;
            }
            match source.next(&self.metrics, index) {
                Some(Job::One(interval)) => self.process_worker_pickup(&interval, index),
                // Park the batch in the slot before touching any of it:
                // the per-interval pop is what keeps a mid-batch worker
                // death from losing the tail.
                Some(Job::Many(batch)) => {
                    self.slot(index).backlog.lock().extend(batch);
                    self.drain_backlog(index);
                }
                None => break,
            }
        }
        // The source is exhausted: whatever is left in the spill is the
        // final backlog — drain it to completion.
        while let Some(interval) = pop_spill(self) {
            self.process_worker_pickup(&interval, index);
        }
    }

    /// Drains the slot's parked batch tail one interval at a time,
    /// popping *before* processing so the in-flight interval is never
    /// duplicated in the backlog.
    fn drain_backlog(&self, index: usize) {
        loop {
            let next = self.slot(index).backlog.lock().pop_front();
            let Some(interval) = next else { return };
            self.process_worker_pickup(&interval, index);
        }
    }

    /// Processes one interval picked up on a worker thread. The chaos
    /// worker-kill injection lives here rather than in
    /// [`Pool::process_interval`] because the fault models a dying
    /// *worker*: it must land under [`Pool::worker_entry`]'s supervisor,
    /// never on the inline paths (degraded-mode `submit`, the inline
    /// drain) where the caller thread has no quarantine-and-respawn
    /// boundary above it. The interval is recorded in the slot first, so
    /// the supervisor quarantines it — the injected death must not be
    /// able to lose work either.
    fn process_worker_pickup(&self, interval: &Interval, index: usize) {
        #[cfg(feature = "chaos")]
        if self
            .exec
            .faults
            .pickup_kills_worker(self.fault_state.next_pickup())
        {
            let slot = self.slot(index);
            slot.emitted.store(0, Ordering::Relaxed);
            *slot.interval.lock() = Some(interval.clone());
            panic!("chaos: worker killed at interval pickup");
        }
        self.process_interval(interval, index);
    }

    fn process_interval(&self, interval: &Interval, index: usize) {
        self.process_with_deadline(interval, index, self.exec.interval_deadline);
    }

    /// Runs one interval under an optional deadline — the one
    /// disposition both engines share. On preemption it depends on the
    /// delivered prefix:
    ///
    /// * nothing delivered and the interval splits — reschedule both
    ///   halves (each gets a fresh deadline, and each is strictly
    ///   smaller, so repeated splitting terminates at single-cut leaves);
    /// * nothing delivered and the interval is a single cut — rerun it
    ///   once with the deadline off (a one-cut enumeration cannot be
    ///   usefully split, and zero cuts were delivered so a rerun cannot
    ///   duplicate);
    /// * some cuts delivered — quarantine with the exact delivered
    ///   prefix: rerunning would double-deliver, and exactly-once
    ///   (Theorem 2/3) outranks completeness.
    fn process_with_deadline(&self, interval: &Interval, index: usize, deadline: Option<Duration>) {
        if self.stopped.load(Ordering::Relaxed) {
            return; // drain without enumerating
        }
        #[cfg(feature = "chaos")]
        if let Some(us) = self.exec.faults.worker_delay_us {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
        let m = &*self.metrics;
        let slot = self.slot(index);
        let start = Instant::now();
        // Marking the slot busy (and clearing any stale cancel) arms the
        // watchdog for this pickup.
        slot.cancel.store(false, Ordering::Relaxed);
        slot.busy_since_ms.store(
            start.duration_since(self.epoch).as_millis() as u64 + 1,
            Ordering::Relaxed,
        );
        let control = deadline.map(|d| PreemptControl {
            cancel: &slot.cancel,
            deadline_at: Some(start + d),
        });
        let outcome = {
            let _in_flight = InFlight { slot, interval };
            self.exec.run_isolated(
                &*self.space,
                interval,
                &*self.sink,
                m,
                &slot.emitted,
                control.as_ref(),
            )
        };
        slot.busy_since_ms.store(0, Ordering::Relaxed);
        let tally = m.worker(index);
        tally.add_busy(start.elapsed().as_nanos() as u64);
        tally.add_interval();
        match outcome {
            Ok(stats) => {
                m.cuts_emitted.add_on(index, stats.cuts);
                m.intervals_completed.add_on(index, 1);
                m.interval_cuts.record(stats.cuts);
                slot.delivered.fetch_add(stats.cuts, Ordering::Relaxed);
                slot.peak_frontiers
                    .fetch_max(stats.peak_frontiers, Ordering::Relaxed);
            }
            Err(IntervalFault::Error(EnumError::Stopped)) => {
                self.stopped.store(true, Ordering::Relaxed);
            }
            Err(IntervalFault::Error(err)) => {
                self.stopped.store(true, Ordering::Relaxed);
                self.error.lock().get_or_insert(err);
            }
            Err(IntervalFault::Panicked {
                emitted,
                attempts,
                message,
            }) => self.quarantine(interval, emitted, attempts, message, index),
            Err(IntervalFault::Preempted { emitted }) => {
                m.intervals_preempted.add(1);
                if emitted == 0 {
                    if let Some((lo, hi)) = interval.split(&*self.space) {
                        // Both halves go through the spill buffer: workers
                        // drain it with priority, and the inline drain
                        // covers a dead pool, so neither half can be lost.
                        m.intervals_split.add(1);
                        m.intervals_dispatched.add(2);
                        spill_push(self, &lo);
                        spill_push(self, &hi);
                    } else {
                        self.process_with_deadline(interval, index, None);
                    }
                } else {
                    self.quarantine(
                        interval,
                        emitted,
                        1,
                        format!("preempted after {emitted} delivered cuts (deadline expired)"),
                        index,
                    );
                }
            }
        }
    }
}

/// Pops one spilled interval, never holding the lock across enumeration.
/// Byte deltas are settled against both tiers: popping shrinks the RAM
/// account, thawing a cold batch moves its bytes disk → RAM — the
/// accounting mirror of [`spill_push`] and [`freeze_spill_to_disk`].
///
/// A cold batch that cannot be read back is a real loss (its intervals
/// are unrecoverable in-process), so the failure stops the run with a
/// typed error instead of silently under-counting.
fn pop_spill<S, K>(shared: &Pool<S, K>) -> Option<Interval> {
    // A queued entry keeps one of the two gauges above zero (they rise
    // under the queue lock, and fall only after the pop), so zero on both
    // means nothing to pop: skip the lock. The instant inside another
    // thread's push is that thread's to follow up.
    if shared.metrics.spill_bytes.get() == 0 && shared.metrics.disk_spill_bytes.get() == 0 {
        return None;
    }
    let mut queue = shared.spill.lock();
    let ram_before = queue.ram_byte_len();
    let disk_before = queue.disk_byte_len();
    let popped = queue.pop_front();
    let ram_after = queue.ram_byte_len();
    let disk_after = queue.disk_byte_len();
    drop(queue);
    if ram_after > ram_before {
        // Thawed a cold batch: its packed bytes are resident again
        // (raised before the disk gauge drops, for the probe above).
        shared.budget.charge_spill(ram_after - ram_before);
        shared
            .metrics
            .spill_bytes
            .add((ram_after - ram_before) as u64);
    } else if ram_before > ram_after {
        shared.budget.credit_spill(ram_before - ram_after);
        shared
            .metrics
            .spill_bytes
            .sub((ram_before - ram_after) as u64);
    }
    let disk_freed = disk_before.saturating_sub(disk_after);
    if disk_freed > 0 {
        shared.budget.credit_disk(disk_freed);
        shared.metrics.disk_spill_bytes.sub(disk_freed as u64);
    }
    match popped {
        Ok(interval) => interval,
        Err(err) => {
            shared.error.lock().get_or_insert(EnumError::Panicked {
                message: format!("durable spill: {err}"),
            });
            shared.stopped.store(true, Ordering::Relaxed);
            None
        }
    }
}

/// Pushes one interval into the spill deque, charging the encoded byte
/// delta to the shared budget (watermark input) and the per-engine
/// spill-size gauge. Under memory pressure the hot deque then freezes
/// onto the cold disk tier, if one is attached with headroom.
fn spill_push<S, K>(shared: &Pool<S, K>, interval: &Interval) {
    let mut queue = shared.spill.lock();
    let before = queue.ram_byte_len();
    queue.push_back(interval);
    let delta = queue.ram_byte_len() - before;
    shared.budget.charge_spill(delta);
    shared.metrics.spill_bytes.add(delta as u64);
    if shared.budget.pressure() >= Pressure::Soft {
        freeze_spill_to_disk(shared, &mut queue);
    }
}

/// Freezes the hot spill deque onto the cold disk tier, migrating its
/// bytes from the RAM watermarks to the disk account. Returns `false`
/// when no cold tier is attached, the disk cap has no headroom, the hot
/// deque is empty, or the write failed — every one of those leaves the
/// deque in RAM, losing nothing, and the caller falls back to the
/// RAM-only behavior.
fn freeze_spill_to_disk<S, K>(shared: &Pool<S, K>, queue: &mut DurableIntervalQueue) -> bool {
    // The batch payload is the hot bytes plus a small varint header.
    if !queue.has_disk() || !shared.budget.disk_can_accept(queue.hot_byte_len() + 8) {
        return false;
    }
    let disk_before = queue.disk_byte_len();
    match queue.spill_to_disk() {
        Ok(0) => false,
        Ok(moved) => {
            let disk_delta = queue.disk_byte_len() - disk_before;
            shared.budget.credit_spill(moved);
            shared.metrics.spill_bytes.sub(moved as u64);
            shared.budget.charge_disk(disk_delta);
            shared.metrics.disk_spill_bytes.add(disk_delta as u64);
            shared.metrics.disk_spill_batches.add(1);
            true
        }
        // Write failure: the queue restored its hot tier; keep running
        // RAM-only (the watermarks stay honest, nothing is lost).
        Err(_) => false,
    }
}

/// Hard-pressure escape hatch: admits `interval` into the spill deque
/// only when a cold tier is attached with headroom for the hot deque
/// behind it, then freezes the deque to disk. Returns `false` (the
/// caller sheds) when that path is closed. If the freeze itself fails
/// after admission, the interval stays queued in RAM — over budget but
/// exact — because reporting it shed *and* later enumerating it would
/// break Theorem 2's exactly-once accounting.
fn spill_through_disk<S, K>(shared: &Pool<S, K>, interval: &Interval) -> bool {
    let mut queue = shared.spill.lock();
    if !queue.has_disk() || !shared.budget.disk_can_accept(queue.hot_byte_len() + 8) {
        return false;
    }
    let before = queue.ram_byte_len();
    queue.push_back(interval);
    let delta = queue.ram_byte_len() - before;
    shared.budget.charge_spill(delta);
    shared.metrics.spill_bytes.add(delta as u64);
    freeze_spill_to_disk(shared, &mut queue);
    true
}

/// Supervisor restarts an offline run may spend — the online engine's
/// default (`OnlineEngineConfig::worker_restart_budget`).
const PARTITION_RESTART_BUDGET: u32 = 8;

/// The offline engine's entry point: `width` scoped workers pull the
/// packed `→p` partition through the pool — no channel, no producer
/// thread — and the caller's thread enumerates whatever they left
/// behind (everything, if none could be spawned).
pub(crate) fn run_partition<Sp, K>(
    exec: IntervalExecutor,
    width: usize,
    space: &Sp,
    queue: &mut PackedIntervalQueue,
    sink: &K,
    metrics: Arc<ParaMetrics>,
) -> PoolOutcome
where
    Sp: CutSpace + Sync + ?Sized,
    K: ParallelCutSink + ?Sized,
{
    #[cfg(feature = "chaos")]
    if exec.faults.arms_sink() {
        let chaos = ChaosSink::new(exec.faults, sink);
        return run_partition_on(exec, width, space, queue, &chaos, metrics);
    }
    run_partition_on(exec, width, space, queue, sink, metrics)
}

fn run_partition_on<Sp, K>(
    exec: IntervalExecutor,
    width: usize,
    space: &Sp,
    queue: &mut PackedIntervalQueue,
    sink: &K,
    metrics: Arc<ParaMetrics>,
) -> PoolOutcome
where
    Sp: CutSpace + Sync + ?Sized,
    K: ParallelCutSink + ?Sized,
{
    metrics.intervals_dispatched.add(queue.len() as u64);
    // Preempted halves go to the pool's spill, never back into the
    // partition: `Auto` reads a non-empty spill as memory pressure.
    let pool = &Pool::new(space, exec, sink, metrics, width, PARTITION_RESTART_BUDGET);
    let source = &Partition {
        queue: Mutex::new(queue),
        stopped: &pool.stopped,
    };
    std::thread::scope(|scope| {
        let watchdog = pool.spawn_watchdog(|builder, deadline| {
            builder.spawn_scoped(scope, move || pool.watchdog_entry(deadline))
        });
        let workers = pool.spawn_workers(|builder, w| {
            builder.spawn_scoped(scope, move || pool.worker_entry(source, w))
        });
        for handle in workers {
            // The supervisor already accounted for a worker that died
            // past the restart budget; joining must not re-raise it.
            let _ = handle.join();
        }
        pool.drain_inline(source);
        pool.stop_watchdog(watchdog.as_ref().map(|handle| handle.thread()));
    });
    pool.outcome()
}

/// The online engine's pool handle: worker threads that outlive any one
/// call, draining a bounded channel of intervals as a front-end
/// `submit`s them. The online engine wraps this around its growing
/// poset; any `CutSpace` whose published prefix is stable under
/// concurrent growth works.
pub(crate) struct StreamExecutor<Sp: CutSpace + Send + Sync + 'static> {
    shared: Arc<Pool<Arc<Sp>, Box<dyn ParallelCutSink>>>,
    sender: Option<crossbeam_channel::Sender<Job>>,
    /// Tiny intervals awaiting coalescence into one queue entry; flushed
    /// when full, when a non-tiny interval arrives (order-preserving),
    /// and unconditionally by `finish`.
    pending: Mutex<Vec<Interval>>,
    /// Kept so `finish` can drain intervals no worker lived to process
    /// (total pool death past the restart budget, or zero spawned
    /// workers): the report is exact even with a dead pool.
    receiver: crossbeam_channel::Receiver<Job>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Liveness supervisor, running only when an interval deadline is
    /// configured; stopped and joined by `finish`/`Drop`.
    watchdog: Option<std::thread::JoinHandle<()>>,
    backpressure: BackpressurePolicy,
}

impl<Sp: CutSpace + Send + Sync + 'static> StreamExecutor<Sp> {
    /// Starts the pool. With zero spawned workers `submit` falls back to
    /// enumerating inline on the calling thread (slow, but complete and
    /// alive).
    pub fn new(
        space: Arc<Sp>,
        exec: IntervalExecutor,
        params: StreamParams,
        sink: Box<dyn ParallelCutSink>,
        budget: Arc<MemoryBudget>,
    ) -> Self {
        assert!(params.queue_capacity >= 1, "queue capacity must be >= 1");
        #[cfg(feature = "chaos")]
        let sink: Box<dyn ParallelCutSink> = if exec.faults.arms_sink() {
            Box::new(ChaosSink::new(exec.faults, sink))
        } else {
            sink
        };
        let n = space.num_threads();
        let mut pool = Pool::new(
            space,
            exec,
            sink,
            Arc::new(ParaMetrics::new(params.workers)),
            params.workers,
            params.worker_restart_budget,
        );
        pool.budget = budget;
        // A cold tier that fails to open degrades to the RAM-only deque,
        // mirroring how worker spawn failures degrade the pool: the run
        // stays alive and correct, just without the relief valve.
        if let Some(Ok(spill)) = params
            .spill_dir
            .as_deref()
            .map(|dir| DurableIntervalQueue::with_disk(n, dir))
        {
            pool.spill = Mutex::new(spill);
        }
        let shared = Arc::new(pool);
        let (sender, receiver) = crossbeam_channel::bounded::<Job>(params.queue_capacity);
        let workers = shared.spawn_workers(|builder, w| {
            let (pool, receiver) = (Arc::clone(&shared), receiver.clone());
            builder.spawn(move || pool.worker_entry(&receiver, w))
        });
        let watchdog = shared.spawn_watchdog(|builder, deadline| {
            let pool = Arc::clone(&shared);
            builder.spawn(move || pool.watchdog_entry(deadline))
        });
        StreamExecutor {
            shared,
            sender: Some(sender),
            pending: Mutex::new(Vec::new()),
            receiver,
            workers,
            watchdog,
            backpressure: params.backpressure,
        }
    }

    /// The metrics registry the pool records into (live while running).
    pub fn metrics(&self) -> &ParaMetrics {
        &self.shared.metrics
    }

    /// True once the sink has requested a global stop.
    pub fn is_stopped(&self) -> bool {
        self.shared.stopped.load(Ordering::Relaxed)
    }

    /// Snapshot of the quarantine ledger accumulated so far (live while
    /// running; `finish` returns the final, settled copy).
    pub fn fault_log(&self) -> FaultLog {
        self.shared.fault_log.lock().clone()
    }

    /// Hands one freshly created interval to the pool, applying the
    /// configured backpressure policy when the queue is full.
    ///
    /// Tiny intervals (box size ≤ [`BATCH_TINY_BOX`]) are coalesced into
    /// a pending batch that occupies a single queue slot when flushed —
    /// wide-but-shallow posets stop paying one channel round-trip per
    /// near-degenerate interval. A non-tiny interval flushes the batch
    /// ahead of itself, so queue order tracks submission order.
    pub fn submit(&self, interval: Interval) {
        if self.shared.stopped.load(Ordering::Relaxed) {
            return; // sink asked for a global stop; drop new work
        }
        // Receivers only disappear after `finish`, which consumes self, so
        // send failures below mean shutdown raced a stop — safe to drop.
        let Some(sender) = &self.sender else { return };
        let m = &self.shared.metrics;
        m.intervals_dispatched.add(1);
        if self.workers.is_empty() {
            // Degraded mode (no worker could be spawned): enumerate on
            // the calling thread so nothing queues unserved.
            self.shared.process_interval(&interval, 0);
            return;
        }
        #[cfg(feature = "chaos")]
        if self
            .shared
            .exec
            .faults
            .send_faults(self.shared.fault_state.next_send())
        {
            let message = "chaos: queue send failed".to_string();
            self.shared.quarantine(&interval, 0, 1, message, 0);
            return;
        }
        if interval.box_size() <= BATCH_TINY_BOX {
            let mut pending = self.pending.lock();
            pending.push(interval);
            if pending.len() < BATCH_MAX_INTERVALS {
                return; // coalescing: wait for a flush trigger
            }
            let batch = std::mem::take(&mut *pending);
            drop(pending);
            self.dispatch(sender, Job::Many(batch));
            return;
        }
        let flushed = std::mem::take(&mut *self.pending.lock());
        if !flushed.is_empty() {
            self.dispatch(sender, Job::Many(flushed));
        }
        self.dispatch(sender, Job::One(interval));
    }

    /// Sends one queue entry, applying the backpressure policy when the
    /// channel is full. Overflow handling degrades to per-interval
    /// granularity (the spill deque and the reject counter both account
    /// in intervals), so a batched entry spills or sheds exactly like the
    /// same intervals would have individually.
    fn dispatch(&self, sender: &crossbeam_channel::Sender<Job>, job: Job) {
        let m = &self.shared.metrics;
        if matches!(job, Job::Many(_)) {
            m.queue_batches.add(1);
        }
        let carried = job.len() as u64;
        // The gauge goes up *before* the send and back down if the send
        // fails: a worker may receive (and decrement) the instant the
        // entry lands in the channel, before a post-send increment
        // would run, underflowing the gauge. The channel's send/recv
        // synchronization orders this increment before that decrement.
        m.queue_depth.add(carried);
        match self.backpressure {
            BackpressurePolicy::Block => {
                if sender.send(job).is_err() {
                    m.queue_depth.sub(carried);
                }
            }
            // Under SpillToDeque the budget's pressure reading adapts the
            // policy at the moment the channel is full: nominal pressure
            // spills as before, soft pressure *promotes* the submit to a
            // blocking send (the producer slows to the consumers' pace
            // instead of growing the spill), and hard pressure reaches
            // for the cold disk tier — the durable relief valve — before
            // shedding the intervals with a typed overload error.
            BackpressurePolicy::SpillToDeque => match sender.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(job)) => match self.shared.budget.pressure() {
                    Pressure::Nominal => {
                        m.queue_depth.sub(carried);
                        job.for_each(|interval| {
                            spill_push(&self.shared, &interval);
                            m.intervals_spilled.add(1);
                        });
                    }
                    Pressure::Soft => {
                        m.backpressure_promotions.add(1);
                        if sender.send(job).is_err() {
                            m.queue_depth.sub(carried);
                        }
                    }
                    Pressure::Hard => {
                        m.queue_depth.sub(carried);
                        job.for_each(|interval| {
                            if spill_through_disk(&self.shared, &interval) {
                                m.intervals_spilled.add(1);
                            } else {
                                m.intervals_rejected.add(1);
                                self.shared
                                    .overload
                                    .lock()
                                    .get_or_insert_with(|| self.shared.budget.overload_error());
                            }
                        });
                    }
                },
                Err(TrySendError::Disconnected(_)) => m.queue_depth.sub(carried),
            },
            BackpressurePolicy::Fail => match sender.try_send(job) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    m.queue_depth.sub(carried);
                    m.intervals_rejected.add(carried);
                    if self.shared.budget.pressure() >= Pressure::Hard {
                        self.shared
                            .overload
                            .lock()
                            .get_or_insert_with(|| self.shared.budget.overload_error());
                    }
                }
                Err(TrySendError::Disconnected(_)) => m.queue_depth.sub(carried),
            },
        }
    }

    /// Closes the stream, waits for all pending intervals — queued *and*
    /// spilled — to drain, and reports the final tallies.
    pub fn finish(mut self) -> PoolOutcome {
        // Dropping the sender closes the channel; workers drain what is
        // queued, then (channel closed ⇒ no producer ⇒ spill is frozen)
        // drain the spill buffer, then exit. No interval is lost.
        // A part-filled coalescing buffer never reached the channel.
        // With a live pool it is flushed as one final batch *before* the
        // channel closes, so the tail of a stream takes the same
        // supervised worker path (watchdog, quarantine, fault-injection
        // sites) as every other interval. Only when the queue is full or
        // the pool never spawned does it fall back to the inline drain
        // below.
        let mut leftover = std::mem::take(&mut *self.pending.lock());
        if !leftover.is_empty() && !self.workers.is_empty() {
            if let Some(sender) = &self.sender {
                let m = &self.shared.metrics;
                let carried = leftover.len() as u64;
                m.queue_depth.add(carried);
                match sender.try_send(Job::Many(std::mem::take(&mut leftover))) {
                    Ok(()) => m.queue_batches.add(1),
                    Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
                        m.queue_depth.sub(carried);
                        leftover = match job {
                            Job::Many(batch) => batch,
                            Job::One(interval) => vec![interval],
                        };
                    }
                }
            }
        }
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            // A worker that died past the supervisor's restart budget is
            // already accounted for (its in-flight interval was
            // quarantined); joining must not re-raise its panic.
            let _ = handle.join();
        }
        // Whatever could not be flushed is enumerated inline (after the
        // join, so no worker slot is contended) to keep the exactly-once
        // cover complete.
        for interval in &leftover {
            self.shared.process_interval(interval, 0);
        }
        self.shared.drain_inline(&self.receiver);
        let shared = Arc::clone(&self.shared);
        drop(self); // stops and joins the watchdog; the rest is a no-op now
        shared.outcome()
    }
}

impl<Sp: CutSpace + Send + Sync + 'static> Drop for StreamExecutor<Sp> {
    fn drop(&mut self) {
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.watchdog.take() {
            self.shared.stop_watchdog(Some(handle.thread()));
            let _ = handle.join();
        }
    }
}

/// Chaos wrapper over a sink handle: panics *before* delegating on
/// plan-selected calls, so an injected fault never half-delivers a cut —
/// the emission meter and the real sink agree exactly on what was seen.
/// One type serves both engines: offline wraps `&K`, online wraps
/// `Box<dyn ParallelCutSink>`.
#[cfg(feature = "chaos")]
struct ChaosSink<H> {
    plan: FaultPlan,
    calls: AtomicU64,
    inner: H,
}

#[cfg(feature = "chaos")]
impl<H> ChaosSink<H> {
    fn new(plan: FaultPlan, inner: H) -> Self {
        ChaosSink {
            plan,
            calls: AtomicU64::new(0),
            inner,
        }
    }
}

#[cfg(feature = "chaos")]
impl<H> ParallelCutSink for ChaosSink<H>
where
    H: std::ops::Deref + Send + Sync,
    H::Target: ParallelCutSink,
{
    fn visit(
        &self,
        cut: paramount_poset::CutRef<'_>,
        owner: paramount_poset::EventId,
    ) -> std::ops::ControlFlow<()> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.sink_call_faults(call) {
            panic!("chaos: sink panic injected at call {call}");
        }
        self.inner.visit(cut, owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paramount_poset::{EventId, Frontier, Tid};

    fn executor(algorithm: Algorithm) -> IntervalExecutor {
        IntervalExecutor {
            algorithm,
            frontier_budget: None,
            interval_deadline: None,
            faults: FaultPlan::default(),
        }
    }

    fn interval_with_box(width: u32) -> Interval {
        // Two threads; the owner thread is pinned, the other spans
        // `width` values, so box_size == width.
        Interval {
            event: EventId::new(Tid(0), 1),
            gmin: Frontier::from_counts(vec![1, 0]),
            gbnd: Frontier::from_counts(vec![1, width - 1]),
            include_empty: false,
        }
    }

    #[test]
    fn concrete_algorithms_pass_through_untouched() {
        let metrics = ParaMetrics::new(0);
        let iv = interval_with_box(1 << 20);
        for algo in Algorithm::CONCRETE {
            let exec = executor(algo);
            assert_eq!(exec.resolve_algorithm(&iv, &metrics), algo);
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.intervals_auto_leveled + snap.intervals_auto_lexical, 0);
    }

    #[test]
    fn auto_routes_by_box_size_and_counts_decisions() {
        let metrics = ParaMetrics::new(0);
        let exec = executor(Algorithm::Auto);
        let threshold = paramount_enumerate::AUTO_BOX_THRESHOLD as u32;
        assert_eq!(
            exec.resolve_algorithm(&interval_with_box(threshold), &metrics),
            Algorithm::Leveled,
            "at-threshold box takes the space-efficient walk"
        );
        assert_eq!(
            exec.resolve_algorithm(&interval_with_box(16), &metrics),
            Algorithm::Lexical,
            "tiny box keeps the lexical scan"
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.intervals_auto_leveled, 1);
        assert_eq!(snap.intervals_auto_lexical, 1);
    }

    #[test]
    fn spill_pressure_collapses_the_threshold() {
        let metrics = ParaMetrics::new(0);
        let exec = executor(Algorithm::Auto);
        let iv = interval_with_box(AUTO_PRESSURE_THRESHOLD as u32);
        assert_eq!(
            exec.resolve_algorithm(&iv, &metrics),
            Algorithm::Lexical,
            "well under the base threshold without pressure"
        );
        metrics.spill_bytes.add(1);
        assert_eq!(
            exec.resolve_algorithm(&iv, &metrics),
            Algorithm::Leveled,
            "a spill backlog routes the same interval to O(n) space"
        );
        metrics.spill_bytes.sub(1);
        assert_eq!(
            exec.resolve_algorithm(&iv, &metrics),
            Algorithm::Lexical,
            "drained backlog restores the base threshold"
        );
    }

    #[test]
    fn observed_large_intervals_calibrate_the_threshold_down() {
        let metrics = ParaMetrics::new(0);
        let exec = executor(Algorithm::Auto);
        let base = paramount_enumerate::AUTO_BOX_THRESHOLD as u32;
        let iv = interval_with_box(base / 2 + 1); // between base/2 and base
        assert_eq!(exec.resolve_algorithm(&iv, &metrics), Algorithm::Lexical);
        // Not enough observations yet: still lexical.
        for _ in 0..(AUTO_CALIBRATION_MIN_INTERVALS - 1) {
            metrics.interval_cuts.record(10 * u64::from(base));
        }
        assert_eq!(exec.resolve_algorithm(&iv, &metrics), Algorithm::Lexical);
        // One more pushes past the warmup; the observed mean (10× the
        // base threshold) halves it, flipping this interval to leveled.
        metrics.interval_cuts.record(10 * u64::from(base));
        assert_eq!(exec.resolve_algorithm(&iv, &metrics), Algorithm::Leveled);
    }
    #[test]
    fn deadline_expiring_between_two_clock_reads_reports_the_exact_prefix() {
        // One free thread, 200 cuts. The sink outlasts the deadline inside
        // its 10th delivery; the clock is next read before delivery 65, so
        // 64 cuts reach the sink and the meter must say exactly that.
        let mut b = paramount_poset::builder::PosetBuilder::new(2);
        b.append(Tid(0), ());
        for _ in 0..199 {
            b.append(Tid(1), ());
        }
        let p = b.finish();
        let deadline_at = Instant::now() + Duration::from_millis(250);
        let delivered = AtomicU64::new(0);
        let sink = |_: paramount_poset::CutRef<'_>, _: EventId| {
            if delivered.fetch_add(1, Ordering::Relaxed) + 1 == 10 {
                while Instant::now() < deadline_at {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
            ControlFlow::Continue(())
        };
        let (cancel, emitted) = (AtomicBool::new(false), AtomicU64::new(0));
        let control = PreemptControl {
            cancel: &cancel,
            deadline_at: Some(deadline_at),
        };
        let outcome = executor(Algorithm::Lexical).run_isolated(
            &p,
            &interval_with_box(200),
            &sink,
            &ParaMetrics::new(0),
            &emitted,
            Some(&control),
        );
        let stride = u64::from(DEADLINE_STRIDE);
        assert!(matches!(outcome, Err(IntervalFault::Preempted { emitted }) if emitted == stride));
        assert_eq!(delivered.load(Ordering::Relaxed), stride);
    }
}
