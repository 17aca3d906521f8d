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
//!   budget (`RESTART_BUDGET`, the same for both engines), the watchdog,
//!   the spill buffer that preempted halves and overflow go to, and the
//!   one split / quarantine / retry disposition (`process_interval`). It
//!   is generic over how space and sink are held (`Arc` / `Box<dyn>` for
//!   a pool that outlives its caller, plain borrows for a scoped one) and
//!   its workers over a `JobSource`.
//! * Two sources: the packed `→p` partition of a finished poset, popped
//!   under one lock by scoped workers (`run_partition`, the offline
//!   engine), and a bounded job queue fed as events are inserted
//!   (`StreamExecutor`, the online engine). A full queue blocks the
//!   producer unless the pool's [`MemoryBudget`] has a watermark; then
//!   overflow spills, blocks or sheds by the budget's pressure (DESIGN
//!   §5c).
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
use crate::lock;
use crate::metrics::{MetricsSnapshot, ParaMetrics};
use crate::sink::{MeteredSink, ParallelCutSink, SinkBridge};
use crate::store::{DurableIntervalQueue, PackedIntervalQueue};
use paramount_enumerate::{panic_message, Algorithm, CutSink, EnumError, EnumStats};
use paramount_poset::CutSpace;
use std::collections::VecDeque;
use std::ops::{ControlFlow, Deref};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Box-size ceiling for an interval to be coalesced into a tiny-interval
/// batch instead of occupying its own dispatch-queue slot. Wide-but-
/// shallow posets produce floods of near-degenerate intervals whose
/// enumeration is cheaper than a queue round-trip; batching amortizes
/// that overhead without touching the per-interval isolation contract.
const BATCH_TINY_BOX: u128 = 16;

/// Coalesced intervals per batch before the pending buffer is flushed to
/// the queue as one entry. Bounded so a stalled producer can only ever
/// delay (never lose) this many tiny intervals until the next flush
/// trigger: a full buffer, a non-tiny submission, or `finish`.
const BATCH_MAX_INTERVALS: usize = 32;

/// One queue entry a worker takes from its source: a single interval, or
/// a coalesced run of consecutive tiny intervals sharing a queue slot
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
#[derive(Clone, Copy, Debug)]
pub(crate) struct IntervalExecutor {
    /// Bounded sequential subroutine run on every interval.
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
        sink: &K,
        emitted: &AtomicU64,
        preempt: Option<&PreemptGuard<'_>>,
    ) -> Result<EnumStats, EnumError>
    where
        Sp: CutSpace + ?Sized,
        K: ParallelCutSink + ?Sized,
    {
        let (algorithm, budget) = (self.algorithm, self.frontier_budget);
        let mut bridge = MeteredSink::new(SinkBridge::new(sink, iv.event), emitted);
        match preempt {
            Some(guard) => {
                let mut wrapped = PreemptSink {
                    inner: bridge,
                    guard,
                    visits: 0,
                };
                iv.enumerate_budgeted(space, algorithm, budget, &mut wrapped)
            }
            None => iv.enumerate_budgeted(space, algorithm, budget, &mut bridge),
        }
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
                self.run_interval(space, iv, sink, emitted, guard.as_ref())
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

/// What the online engine's pool is built from (the executor-facing
/// subset of its public config).
#[derive(Clone, Debug)]
pub(crate) struct StreamParams {
    /// Enumeration worker threads (≥ 1).
    pub workers: usize,
    /// Capacity of the bounded job queue (≥ 1).
    pub queue_capacity: usize,
    /// Directory for the cold spill tier. `None` keeps the spill deque
    /// RAM-only; with a directory, memory pressure freezes the deque to
    /// disk instead of shedding work.
    pub spill_dir: Option<std::path::PathBuf>,
}

/// Supervisor restarts one pool may spend on panics that escape the
/// per-interval boundary, shared by its workers and the same for both
/// engines. A worker that finds it spent exits; the survivors, and
/// ultimately the inline drain, still process every queued interval.
const RESTART_BUDGET: u32 = 8;

/// Where a worker's next queue entry comes from — the one thing the two
/// engines' pools differ in.
trait JobSource: Sync {
    /// The next entry for worker `index`, waiting for one if the source
    /// can still grow; `None` once it is exhausted for good.
    fn next(&self, metrics: &ParaMetrics, index: usize) -> Option<Job>;
}

/// The online engine's job queue: a bounded ring under one lock that
/// `submit` feeds and every worker drains, one notify per push and pop.
struct JobQueue {
    /// The queued jobs, and whether the queue is closed.
    ring: Mutex<(VecDeque<Job>, bool)>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl JobQueue {
    /// Queues `job` unless the ring is full, which hands it back.
    #[allow(clippy::result_large_err)] // the job itself, moved back out
    fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut ring = lock(&self.ring);
        if ring.0.len() >= self.capacity {
            return Err(job);
        }
        ring.0.push_back(job);
        drop(ring);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Queues `job`, waiting for room.
    fn push(&self, job: Job) {
        let mut ring = lock(&self.ring);
        while ring.0.len() >= self.capacity {
            ring = self
                .not_full
                .wait(ring)
                .unwrap_or_else(PoisonError::into_inner);
        }
        ring.0.push_back(job);
        drop(ring);
        self.not_empty.notify_one();
    }

    /// The oldest job, waiting for one while the queue is open; `None`
    /// once it is closed and empty.
    fn pop(&self) -> Option<Job> {
        let mut ring = lock(&self.ring);
        while ring.0.is_empty() && !ring.1 {
            ring = self
                .not_empty
                .wait(ring)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let job = ring.0.pop_front()?;
        drop(ring);
        self.not_full.notify_one();
        Some(job)
    }

    /// No job follows: waiting workers drain what is queued and exit.
    fn close(&self) {
        lock(&self.ring).1 = true;
        self.not_empty.notify_all();
    }
}

/// The online source: exhausted once the queue is closed and drained.
impl JobSource for JobQueue {
    fn next(&self, metrics: &ParaMetrics, index: usize) -> Option<Job> {
        let wait = Instant::now();
        let job = self.pop()?;
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
        lock(&self.queue).pop_front().map(Job::One)
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
            *lock(&self.slot.interval) = Some(self.interval.clone());
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
    /// queue overflow under a budget with a watermark. Workers drain it
    /// with priority; what is left when they exit is drained inline.
    spill: Mutex<DurableIntervalQueue>,
    fault_log: Mutex<FaultLog>,
    in_flight: Box<[InFlightSlot]>,
    /// Remaining supervisor restarts, shared across the pool. Signed so
    /// concurrent decrements past zero stay well-defined.
    restart_budget: AtomicI64,
    /// The byte account that decides queue overflow — possibly shared
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
            restart_budget: AtomicI64::new(i64::from(RESTART_BUDGET)),
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
        lock(&self.fault_log).push(QuarantinedInterval {
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
                let next = lock(&slot.backlog).pop_front();
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
            error: lock(&self.error).take(),
            stopped: self.stopped.load(Ordering::Relaxed),
            cuts: slots().map(|s| s.delivered.load(Ordering::Relaxed)).sum(),
            peak_frontiers: slots()
                .map(|s| s.peak_frontiers.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
            faults: lock(&self.fault_log).clone(),
            metrics: self.metrics.snapshot(),
            overload: lock(&self.overload).take(),
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
            if let Some(interval) = lock(&slot.interval).take() {
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
                    lock(&self.slot(index).backlog).extend(batch);
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
            let next = lock(&self.slot(index).backlog).pop_front();
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
            *lock(&slot.interval) = Some(interval.clone());
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
                lock(&self.error).get_or_insert(err);
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
    let mut queue = lock(&shared.spill);
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
            lock(&shared.error).get_or_insert(EnumError::Panicked {
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
    let mut queue = lock(&shared.spill);
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
    let mut queue = lock(&shared.spill);
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

/// The offline engine's entry point: `width` scoped workers pull the
/// packed `→p` partition through the pool — no job queue, no producer
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
        return run_partition_on(&Pool::new(space, exec, &chaos, metrics, width), queue);
    }
    run_partition_on(&Pool::new(space, exec, sink, metrics, width), queue)
}

fn run_partition_on<Sp, K>(pool: &Pool<&Sp, &K>, queue: &mut PackedIntervalQueue) -> PoolOutcome
where
    Sp: CutSpace + Sync + ?Sized,
    K: ParallelCutSink + ?Sized,
{
    pool.metrics.intervals_dispatched.add(queue.len() as u64);
    // Preempted halves go to the pool's spill, never back into the
    // partition, and the partition is never preloaded into the spill:
    // `spill_bytes` then counts only preempted halves, and workers skip
    // the spill's lock while its gauges read zero.
    let source = &Partition {
        queue: Mutex::new(queue),
        stopped: &pool.stopped,
    };
    std::thread::scope(|scope| {
        let watchdog = pool.spawn_watchdog(|builder, deadline| {
            builder.spawn_scoped(scope, move || pool.watchdog_entry(deadline))
        });
        // Stops the watchdog however this body ends: a panic on this
        // thread unwinds through the guard, so the scope can join the
        // watchdog and re-raise the panic instead of waiting forever.
        let watchdog = watchdog.map(|handle| handle.thread().clone());
        let _stop = OnDrop(|| pool.stop_watchdog(watchdog.as_ref()));
        let workers = pool.spawn_workers(|builder, w| {
            builder.spawn_scoped(scope, move || pool.worker_entry(source, w))
        });
        for handle in workers {
            // The supervisor already accounted for a worker that died
            // past the restart budget; joining must not re-raise it.
            let _ = handle.join();
        }
        pool.drain_inline(source);
    });
    pool.outcome()
}

/// Runs its closure when dropped, by unwinding too.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// The online engine's pool handle: worker threads that outlive any one
/// call, draining a bounded queue of intervals as a front-end
/// `submit`s them. The online engine wraps this around its growing
/// poset; any `CutSpace` whose published prefix is stable under
/// concurrent growth works.
pub(crate) struct StreamExecutor<Sp: CutSpace + Send + Sync + 'static> {
    shared: Arc<Pool<Arc<Sp>, Box<dyn ParallelCutSink>>>,
    /// The job queue the workers drain. `finish` drains what no worker
    /// lived to process (total pool death past the restart budget, or
    /// zero spawned workers), so the report is exact even with a dead
    /// pool.
    queue: Arc<JobQueue>,
    /// Tiny intervals awaiting coalescence into one queue entry; flushed
    /// when full, when a non-tiny interval arrives (order-preserving),
    /// and unconditionally by `finish`.
    pending: Mutex<Vec<Interval>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Liveness supervisor, running only when an interval deadline is
    /// configured; stopped and joined by `finish`/`Drop`.
    watchdog: Option<std::thread::JoinHandle<()>>,
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
        let capacity = params.queue_capacity;
        let queue = Arc::new(JobQueue {
            ring: Mutex::new((VecDeque::with_capacity(capacity.min(1024)), false)),
            capacity,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        let workers = shared.spawn_workers(|builder, w| {
            let (pool, queue) = (Arc::clone(&shared), Arc::clone(&queue));
            builder.spawn(move || pool.worker_entry(&*queue, w))
        });
        let watchdog = shared.spawn_watchdog(|builder, deadline| {
            let pool = Arc::clone(&shared);
            builder.spawn(move || pool.watchdog_entry(deadline))
        });
        StreamExecutor {
            shared,
            queue,
            pending: Mutex::new(Vec::new()),
            workers,
            watchdog,
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
        lock(&self.shared.fault_log).clone()
    }

    /// Hands one freshly created interval to the pool; a full queue goes
    /// through [`StreamExecutor::dispatch`]'s overflow rule.
    ///
    /// Tiny intervals (box size ≤ [`BATCH_TINY_BOX`]) are coalesced into
    /// a pending batch that occupies a single queue slot when flushed —
    /// wide-but-shallow posets stop paying one queue round-trip per
    /// near-degenerate interval. A non-tiny interval flushes the batch
    /// ahead of itself, so queue order tracks submission order.
    pub fn submit(&self, interval: Interval) {
        if self.shared.stopped.load(Ordering::Relaxed) {
            return; // sink asked for a global stop; drop new work
        }
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
            let mut pending = lock(&self.pending);
            pending.push(interval);
            if pending.len() < BATCH_MAX_INTERVALS {
                return; // coalescing: wait for a flush trigger
            }
            let batch = std::mem::take(&mut *pending);
            drop(pending);
            self.dispatch(Job::Many(batch));
            return;
        }
        let flushed = std::mem::take(&mut *lock(&self.pending));
        if !flushed.is_empty() {
            self.dispatch(Job::Many(flushed));
        }
        self.dispatch(Job::One(interval));
    }

    /// Queues one entry. A full queue is the only case with a
    /// choice, and the pool's budget makes it (DESIGN §5c): with no
    /// watermark the producer blocks; with one, nominal pressure spills,
    /// soft pressure *promotes* the submit to a blocking push (the
    /// producer slows to the consumers' pace instead of growing the
    /// spill), and hard pressure reaches for the cold disk tier — the
    /// durable relief valve — before shedding the intervals with a typed
    /// overload error. Overflow degrades to per-interval granularity (the
    /// spill deque and the reject counter both account in intervals), so
    /// a batched entry spills or sheds exactly like the same intervals
    /// would have individually.
    fn dispatch(&self, job: Job) {
        let m = &self.shared.metrics;
        if matches!(job, Job::Many(_)) {
            m.queue_batches.add(1);
        }
        let carried = job.len() as u64;
        // The gauge goes up *before* the push and back down if the entry
        // does not go in: a worker may pop (and decrement) the instant
        // the entry lands in the queue, before a post-push increment
        // would run, underflowing the gauge. The queue's lock orders this
        // increment before that decrement.
        m.queue_depth.add(carried);
        let budget = &self.shared.budget;
        let Err(job) = self.queue.try_push(job) else {
            return;
        };
        if !budget.has_watermark() {
            self.queue.push(job);
            return;
        }
        match budget.pressure() {
            Pressure::Nominal => {
                m.queue_depth.sub(carried);
                job.for_each(|interval| {
                    spill_push(&self.shared, &interval);
                    m.intervals_spilled.add(1);
                });
            }
            Pressure::Soft => {
                m.backpressure_promotions.add(1);
                self.queue.push(job);
            }
            Pressure::Hard => {
                m.queue_depth.sub(carried);
                job.for_each(|interval| {
                    if spill_through_disk(&self.shared, &interval) {
                        m.intervals_spilled.add(1);
                    } else {
                        m.intervals_rejected.add(1);
                        lock(&self.shared.overload).get_or_insert_with(|| budget.overload_error());
                    }
                });
            }
        }
    }

    /// Closes the stream, waits for all pending intervals — queued *and*
    /// spilled — to drain, and reports the final tallies.
    pub fn finish(mut self) -> PoolOutcome {
        // Closing the queue lets workers drain what is queued, then
        // (queue closed ⇒ no producer ⇒ spill is frozen) drain the spill
        // buffer, then exit. No interval is lost.
        // A part-filled coalescing buffer never reached the queue.
        // With a live pool it is flushed as one final batch *before* the
        // queue closes, so the tail of a stream takes the same
        // supervised worker path (watchdog, quarantine, fault-injection
        // sites) as every other interval. Only when the queue is full or
        // the pool never spawned does it fall back to the inline drain
        // below.
        let mut leftover = std::mem::take(&mut *lock(&self.pending));
        if !leftover.is_empty() && !self.workers.is_empty() {
            let m = &self.shared.metrics;
            let carried = leftover.len() as u64;
            m.queue_depth.add(carried);
            match self
                .queue
                .try_push(Job::Many(std::mem::take(&mut leftover)))
            {
                Ok(()) => m.queue_batches.add(1),
                Err(job) => {
                    m.queue_depth.sub(carried);
                    job.for_each(|interval| leftover.push(interval));
                }
            }
        }
        self.queue.close();
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
        self.shared.drain_inline(&*self.queue);
        let shared = Arc::clone(&self.shared);
        drop(self); // stops and joins the watchdog; the rest is a no-op now
        shared.outcome()
    }
}

impl<Sp: CutSpace + Send + Sync + 'static> Drop for StreamExecutor<Sp> {
    fn drop(&mut self) {
        self.queue.close();
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
    use crate::interval::{partition, partition_packed};
    use crate::sink::AtomicCountSink;
    use paramount_poset::random::RandomComputation;
    use paramount_poset::{oracle, topo, EventId, Frontier, Tid};

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

    /// Panics while holding `mutex`'s guard, which poisons it.
    fn poison<T>(mutex: &Mutex<T>) {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = mutex.lock();
            panic!("poisoning a pool lock on purpose");
        }));
        assert!(mutex.is_poisoned());
    }

    fn poison_pool<S, K>(pool: &Pool<S, K>) {
        for slot in pool.in_flight.iter() {
            poison(&slot.interval);
            poison(&slot.backlog);
        }
        poison(&pool.spill);
        poison(&pool.fault_log);
        poison(&pool.error);
        poison(&pool.overload);
    }

    #[test]
    fn a_panic_on_the_callers_thread_reaches_the_caller_past_the_watchdog() {
        // The sink panics with a payload whose own drop panics: the
        // per-interval boundary catches the first panic, and dropping
        // its payload raises a second one outside that boundary. The one
        // worker dies of it until the restart budget is spent; the
        // caller's inline drain then meets it on its own thread, inside
        // the scope, with a watchdog running. The run must re-raise it,
        // and is held to a deadline so a hang fails instead of waiting.
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                panic!("panic payload dropped");
            }
        }
        let (done, outcome) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let poset = RandomComputation::new(2, 12, 0.3, 7).generate();
            let mut queue = partition_packed(&poset, &topo::weight_order(&poset));
            assert!(queue.len() > RESTART_BUDGET as usize + 1);
            let exec = IntervalExecutor {
                interval_deadline: Some(Duration::from_secs(600)),
                ..executor(Algorithm::Lexical)
            };
            let sink = |_: paramount_poset::CutRef<'_>, _: EventId| -> ControlFlow<()> {
                std::panic::panic_any(Bomb)
            };
            let pool = Pool::new(&poset, exec, &sink, Arc::new(ParaMetrics::new(1)), 1);
            let run = catch_unwind(AssertUnwindSafe(|| run_partition_on(&pool, &mut queue)));
            let _ = done.send(run.is_err());
        });
        let panicked = outcome
            .recv_timeout(Duration::from_secs(30))
            .expect("the offline run hung instead of re-raising the panic");
        assert!(panicked, "the panic must reach the caller");
        runner.join().expect("the runner caught the panic");
    }

    #[test]
    fn poisoned_pool_locks_still_enumerate_every_cut_exactly_once() {
        // Every pool mutex is poisoned before the run: `lock` takes each
        // guard out of its poison, so both engines must still deliver the
        // oracle's count and balance the interval ledger. The online
        // budget has a watermark, so a full queue spills instead of
        // blocking.
        let poset = Arc::new(RandomComputation::new(4, 5, 0.5, 29).generate());
        let expected = oracle::enumerate_product_scan(&*poset).len() as u64;
        let order = topo::weight_order(&*poset);
        let exec = executor(Algorithm::Lexical);
        let check = |outcome: PoolOutcome, delivered: u64| {
            let m = &outcome.metrics;
            assert_eq!((outcome.cuts, delivered), (expected, expected));
            assert!(outcome.faults.is_empty());
            assert_eq!(
                m.intervals_dispatched,
                m.intervals_completed
                    + m.intervals_quarantined
                    + m.intervals_rejected
                    + m.intervals_split
            );
        };

        let sink = AtomicCountSink::new();
        let pool = Pool::new(&*poset, exec, &sink, Arc::new(ParaMetrics::new(2)), 2);
        poison_pool(&pool);
        let outcome = run_partition_on(&pool, &mut partition_packed(&*poset, &order));
        check(outcome, sink.count());

        let count = Arc::new(AtomicCountSink::new());
        let sink = Arc::clone(&count);
        let budget = GovernorConfig {
            soft_spill_bytes: Some(1 << 30),
            hard_spill_bytes: Some(1 << 31),
            ..GovernorConfig::default()
        };
        let stream = StreamExecutor::new(
            Arc::clone(&poset),
            exec,
            StreamParams {
                workers: 2,
                queue_capacity: 1,
                spill_dir: None,
            },
            Box::new(move |cut: paramount_poset::CutRef<'_>, owner| sink.visit(cut, owner)),
            Arc::new(MemoryBudget::new(budget)),
        );
        poison_pool(&stream.shared);
        poison(&stream.queue.ring);
        poison(&stream.pending);
        for interval in partition(&*poset, &order) {
            stream.submit(interval);
        }
        check(stream.finish(), count.count());
    }
}
