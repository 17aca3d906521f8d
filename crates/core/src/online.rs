//! Online ParaMount (the paper's Algorithm 4 and §4.2).
//!
//! Events are inserted *while the observed program runs*. Each insertion
//! executes the paper's atomic block — append the event, take `Gmin(e)`
//! from its clock, take `Gbnd(e)` as a snapshot of the current maximal
//! events — and then hands the interval `I(e)` to a worker pool that
//! enumerates it concurrently with further insertions. The insertion order
//! *is* the total order `→p` (the instrumented program cannot execute its
//! next event before the current one is inserted, so Property 1 holds),
//! and the snapshot satisfies Definition 1, so Lemmas 1–3 carry over
//! verbatim: every cut of the final poset is enumerated exactly once.
//!
//! The engine here is a *front-end*: [`OnlinePoset`] implements the
//! atomic block, and everything downstream of `observe_*` — the bounded
//! dispatch queue with its [`BackpressurePolicy`], the supervised worker
//! pool, panic isolation, retry/quarantine, metrics — is the shared
//! executor in [`crate::exec`], the same pool the offline engine runs.
//! Only the source differs: intervals must start the moment they are
//! created (work arrives as a stream, not a finished partition) and the
//! pool must outlive any single call, so its workers are plain threads
//! fed by a crossbeam channel. Every run records into a
//! [`ParaMetrics`](crate::metrics::ParaMetrics) registry — queue depth,
//! per-interval cut counts, worker busy/idle time, insertion
//! critical-section time — surfaced in [`OnlineReport::metrics`].

pub use crate::exec::BackpressurePolicy;
use crate::exec::{IntervalExecutor, StreamExecutor, StreamParams};
use crate::faults::{FaultLog, FaultPlan, Outcome};
use crate::governor::{GovernorConfig, MemoryBudget, OverloadError};
use crate::interval::Interval;
use crate::metrics::MetricsSnapshot;
use crate::sink::ParallelCutSink;
use crate::store::AppendVec;
use paramount_enumerate::{Algorithm, EnumError};
use paramount_poset::{CutSpace, Event, EventId, Frontier, Poset, Tid, VectorClock};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// A poset that grows while it is being enumerated.
///
/// Events live in one [`AppendVec`] per thread; the insertion critical
/// section (clock bookkeeping + snapshot) is one short mutex, after which
/// readers — the bounded enumerations — proceed lock-free (Theorem 3).
///
/// ```
/// use paramount::OnlinePoset;
/// use paramount_poset::Tid;
///
/// let poset: OnlinePoset<&str> = OnlinePoset::new(2);
/// let (first, interval) = poset.insert_after(Tid(0), &[], "e1[1]");
/// assert_eq!(interval.gmin.as_slice(), &[1, 0]); // Gmin(e) = e.vc
/// assert!(interval.include_empty);               // first event owns {0,0}
/// let (_, interval) = poset.insert_after(Tid(1), &[first], "e2[1]");
/// assert_eq!(interval.gbnd.as_slice(), &[1, 1]); // snapshot Gbnd
/// ```
pub struct OnlinePoset<P> {
    threads: Box<[AppendVec<Event<P>>]>,
    state: Mutex<InsertState>,
}

struct InsertState {
    /// Running clock per observed thread (clock of its latest event).
    clocks: Vec<VectorClock>,
    /// Total events inserted (detects the first event for the empty cut).
    total: u64,
}

impl<P> OnlinePoset<P> {
    /// An empty online poset over `n` observed threads.
    pub fn new(n: usize) -> Self {
        OnlinePoset {
            threads: (0..n).map(|_| AppendVec::new()).collect(),
            state: Mutex::new(InsertState {
                clocks: (0..n).map(|_| VectorClock::zero(n)).collect(),
                total: 0,
            }),
        }
    }

    /// Total events inserted so far.
    pub fn num_events(&self) -> usize {
        self.threads.iter().map(AppendVec::len).sum()
    }

    /// The event with the given id (must be published).
    pub fn event(&self, id: EventId) -> &Event<P> {
        self.threads[id.tid.index()]
            .get((id.index - 1) as usize)
            .expect("event not yet published")
    }

    /// Inserts an event of thread `t` depending on `deps` (which must
    /// already be inserted), computing its clock internally. Returns the
    /// id and the interval `I(e)` to enumerate — the paper's atomic block.
    pub fn insert_after(&self, t: Tid, deps: &[EventId], payload: P) -> (EventId, Interval) {
        let mut st = self.state.lock();
        let mut clock = st.clocks[t.index()].clone();
        clock.tick(t);
        for &d in deps {
            let dep = self.threads[d.tid.index()]
                .get((d.index - 1) as usize)
                .expect("dependency on a not-yet-inserted event");
            clock.join(&dep.vc);
        }
        st.clocks[t.index()] = clock.clone();
        self.insert_locked(&mut st, t, clock, payload)
    }

    /// Inserts an event whose clock was computed externally (e.g. by the
    /// trace recorder's lock/fork bookkeeping — Algorithm 3 runs there).
    pub fn insert_with_clock(&self, t: Tid, vc: VectorClock, payload: P) -> (EventId, Interval) {
        let mut st = self.state.lock();
        debug_assert_eq!(
            vc.get(t) as usize,
            self.threads[t.index()].len() + 1,
            "external clock must index the next event of its thread"
        );
        debug_assert!(
            st.clocks[t.index()].le(&vc),
            "external clock must dominate the thread's history"
        );
        st.clocks[t.index()] = vc.clone();
        self.insert_locked(&mut st, t, vc, payload)
    }

    fn insert_locked(
        &self,
        st: &mut InsertState,
        t: Tid,
        clock: VectorClock,
        payload: P,
    ) -> (EventId, Interval) {
        let id = EventId::new(t, clock.get(t));
        let gmin = Frontier::from_clock(&clock);
        let include_empty = st.total == 0;
        st.total += 1;
        // Publish the event *before* snapshotting, so Gbnd includes it
        // (Definition 1 requires e ∈ Gbnd(e)).
        self.threads[t.index()].push(Event {
            id,
            vc: clock,
            payload,
        });
        // Snapshot of the maximal events of all threads, still inside the
        // critical section: exactly the events inserted before (or being)
        // e — a valid Gbnd per Definition 1, consistent per Theorem 1.
        let gbnd = Frontier::from_counts(self.threads.iter().map(|seq| seq.len() as u32).collect());
        (
            id,
            Interval {
                event: id,
                gmin,
                gbnd,
                include_empty,
            },
        )
    }

    /// Freezes the current contents into an immutable [`Poset`] (for
    /// offline cross-checks and reporting).
    pub fn snapshot(&self) -> Poset<P>
    where
        P: Clone,
    {
        Poset::from_threads(
            self.threads
                .iter()
                .map(|seq| seq.iter().cloned().collect())
                .collect(),
        )
    }
}

impl<P> CutSpace for OnlinePoset<P> {
    #[inline]
    fn num_threads(&self) -> usize {
        self.threads.len()
    }

    #[inline]
    fn events_of(&self, t: Tid) -> usize {
        self.threads[t.index()].len()
    }

    #[inline]
    fn vc(&self, id: EventId) -> &VectorClock {
        &self.event(id).vc
    }
}

/// Configuration for the online engine.
#[derive(Clone, Debug)]
pub struct OnlineEngineConfig {
    /// Bounded subroutine for each interval (the paper defaults to the
    /// lexical algorithm for online detection). `Algorithm::Auto` lets
    /// the executor pick lexical vs. the space-efficient leveled walk
    /// per interval from box size and memory pressure (DESIGN.md §5e).
    pub algorithm: Algorithm,
    /// Enumeration worker threads (≥ 1).
    pub workers: usize,
    /// Per-interval frontier budget for stateful subroutines.
    pub frontier_budget: Option<usize>,
    /// Capacity of the interval dispatch queue (≥ 1). When full, the
    /// [`BackpressurePolicy`] decides what `observe_*` does.
    pub queue_capacity: usize,
    /// What to do when the dispatch queue is full.
    pub backpressure: BackpressurePolicy,
    /// How many times the supervisor may restart a worker body after a
    /// panic escapes the per-interval isolation boundary (shared budget
    /// across the pool). `0` lets a twice-panicking worker die; the
    /// remaining workers — and, ultimately, `finish`'s inline drain —
    /// still process every queued interval.
    pub worker_restart_budget: u32,
    /// Deterministic fault-injection plan. Inert unless the crate is
    /// built with the `chaos` feature **and** the plan arms a site; see
    /// [`FaultPlan`].
    pub faults: FaultPlan,
    /// Overload governor: memory watermarks for adaptive backpressure
    /// and the per-interval liveness deadline. Default is fully off.
    pub governor: GovernorConfig,
    /// Directory for the cold spill tier (created if missing). `None`
    /// keeps the spill deque RAM-only; with a directory, memory pressure
    /// freezes spilled intervals to disk instead of shedding them once
    /// the hard watermark trips (see `GovernorConfig::disk_spill_bytes`
    /// for the cap on that tier).
    pub spill_dir: Option<std::path::PathBuf>,
}

impl Default for OnlineEngineConfig {
    fn default() -> Self {
        OnlineEngineConfig {
            algorithm: Algorithm::Lexical,
            workers: 4,
            frontier_budget: None,
            queue_capacity: 1024,
            backpressure: BackpressurePolicy::Block,
            worker_restart_budget: 8,
            faults: FaultPlan::default(),
            governor: GovernorConfig::default(),
            spill_dir: None,
        }
    }
}

/// The online enumeration engine: an [`OnlinePoset`] feeding the shared
/// streaming executor ([`crate::exec`]) — a worker pool draining a
/// bounded channel of freshly created intervals.
///
/// `observe_*` calls may come from many program threads concurrently; the
/// per-call cost beyond the enumeration itself is one mutex-protected
/// insert and one channel send (which may block, spill or shed under a
/// full queue — see [`BackpressurePolicy`]).
pub struct OnlineEngine<P: Send + Sync + 'static> {
    poset: Arc<OnlinePoset<P>>,
    stream: StreamExecutor<OnlinePoset<P>>,
    config: OnlineEngineConfig,
    /// The byte account this engine charges — built from the config's
    /// governor, or handed in by an embedder (the daemon shares one
    /// budget across every session).
    budget: Arc<MemoryBudget>,
}

impl<P: Send + Sync + 'static> OnlineEngine<P> {
    /// Starts an engine observing `n` program threads, feeding `sink`.
    pub fn new(n: usize, config: OnlineEngineConfig, sink: impl ParallelCutSink + 'static) -> Self {
        Self::with_poset(Arc::new(OnlinePoset::new(n)), config, sink)
    }

    /// Starts an engine over a caller-provided poset handle.
    ///
    /// Sharing the `Arc` lets the sink itself read event payloads — the
    /// predicate detectors hold a clone and look up the owner event of
    /// each visited cut.
    pub fn with_poset(
        poset: Arc<OnlinePoset<P>>,
        config: OnlineEngineConfig,
        sink: impl ParallelCutSink + 'static,
    ) -> Self {
        let budget = Arc::new(MemoryBudget::new(config.governor));
        Self::with_poset_and_budget(poset, config, sink, budget)
    }

    /// Starts an engine charging a caller-owned [`MemoryBudget`].
    ///
    /// Several engines can share one budget (the ingest daemon threads a
    /// process-wide account through every session), so the watermarks
    /// react to *total* load, not per-engine load. The watermarks come
    /// from the budget; `config.governor` only contributes the interval
    /// deadline here.
    pub fn with_poset_and_budget(
        poset: Arc<OnlinePoset<P>>,
        config: OnlineEngineConfig,
        sink: impl ParallelCutSink + 'static,
        budget: Arc<MemoryBudget>,
    ) -> Self {
        let exec = IntervalExecutor {
            algorithm: config.algorithm,
            frontier_budget: config.frontier_budget,
            interval_deadline: config.governor.interval_deadline,
            faults: config.faults,
        };
        let params = StreamParams {
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            backpressure: config.backpressure,
            worker_restart_budget: config.worker_restart_budget,
            spill_dir: config.spill_dir.clone(),
        };
        let stream = StreamExecutor::new(
            Arc::clone(&poset),
            exec,
            params,
            Box::new(sink),
            Arc::clone(&budget),
        );
        OnlineEngine {
            poset,
            stream,
            config,
            budget,
        }
    }

    /// Bytes the budget is charged for each retained event: the event
    /// record itself plus its heap-allocated vector clock.
    fn retained_bytes_per_event(&self) -> usize {
        std::mem::size_of::<Event<P>>() + self.poset.num_threads() * 4
    }

    /// Observes an event of thread `t` with explicit dependencies; clock
    /// computed internally. Returns the event id.
    pub fn observe_after(&self, t: Tid, deps: &[EventId], payload: P) -> EventId {
        let start = Instant::now();
        let (id, interval) = self.poset.insert_after(t, deps, payload);
        self.note_insert(start);
        self.stream.submit(interval);
        id
    }

    /// Observes an event whose clock the caller computed (recorder path).
    pub fn observe_with_clock(&self, t: Tid, vc: VectorClock, payload: P) -> EventId {
        let start = Instant::now();
        let (id, interval) = self.poset.insert_with_clock(t, vc, payload);
        self.note_insert(start);
        self.stream.submit(interval);
        id
    }

    /// Replays a complete reference poset through the engine: every event
    /// in `→p` (vector-clock-weight) order, with its recorded clock. The
    /// standard way to drive the online engine from an offline trace —
    /// tests and benches compare the resulting report against offline
    /// enumeration of the same poset.
    pub fn observe_poset(&self, reference: &Poset<P>)
    where
        P: Clone,
    {
        for &id in &paramount_poset::topo::weight_order(reference) {
            self.observe_with_clock(
                id.tid,
                reference.vc(id).clone(),
                reference.payload(id).clone(),
            );
        }
    }

    fn note_insert(&self, start: Instant) {
        let m = self.stream.metrics();
        m.insert_critical_ns
            .record(start.elapsed().as_nanos() as u64);
        m.events_inserted.add(1);
        // Online retention is unbounded by construction (the trace only
        // grows); charging it keeps the watermarks honest about *total*
        // memory, not just the spill queue.
        self.budget.charge_retained(self.retained_bytes_per_event());
    }

    /// The growing poset (also a [`CutSpace`], usable for ad-hoc queries).
    pub fn poset(&self) -> &OnlinePoset<P> {
        &self.poset
    }

    /// True once the sink has requested a global stop.
    pub fn is_stopped(&self) -> bool {
        self.stream.is_stopped()
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Live snapshot of the metrics registry. Counters are folded with
    /// relaxed loads, so totals are approximate while workers run and
    /// exact after [`OnlineEngine::finish`].
    pub fn metrics(&self) -> MetricsSnapshot {
        self.stream.metrics().snapshot()
    }

    /// Live snapshot of the quarantine ledger: every interval the engine
    /// has given up on so far, with its exact `[Gmin, Gbnd]` bounds.
    /// Exact after [`OnlineEngine::finish`]; while workers run an interval
    /// may quarantine between this call and the next.
    pub fn fault_log(&self) -> FaultLog {
        self.stream.fault_log()
    }

    /// The memory budget this engine charges (shared with the embedder
    /// when constructed via [`OnlineEngine::with_poset_and_budget`]).
    pub fn budget(&self) -> &Arc<MemoryBudget> {
        &self.budget
    }

    /// Closes the stream, waits for all pending intervals — queued *and*
    /// spilled — to drain, and reports totals.
    pub fn finish(self) -> OnlineReport<P>
    where
        P: Clone,
    {
        let retained = self.poset.num_events() * self.retained_bytes_per_event();
        let OnlineEngine {
            poset,
            stream,
            budget,
            ..
        } = self;
        let outcome = stream.finish();
        // The engine's retention ends with it: credit everything this
        // run charged so a shared budget sees the memory come back.
        budget.credit_retained(retained);
        OnlineReport {
            cuts: outcome.cuts,
            events: poset.num_events() as u64,
            error: outcome.error,
            faults: outcome.faults,
            metrics: outcome.metrics,
            overload: outcome.overload,
            poset: poset.snapshot(),
        }
    }
}

/// Result of a completed online enumeration.
pub struct OnlineReport<P> {
    /// Total cuts enumerated (= `i(P)` of the final poset, Theorem 2 —
    /// unless the run stopped early, shed work, or quarantined
    /// intervals; see [`OnlineReport::is_complete`]).
    pub cuts: u64,
    /// Events observed.
    pub events: u64,
    /// Budget error, if a stateful subroutine tripped its limit.
    pub error: Option<EnumError>,
    /// Faults survived: every quarantined interval with its `Gmin`/`Gbnd`
    /// pair, delivered-prefix length, and panic message. Empty on a
    /// clean run; see [`OnlineReport::outcome`].
    pub faults: FaultLog,
    /// Folded observability counters for the whole run: queue-depth
    /// high-water mark, per-interval cut-count histogram, worker
    /// busy/idle tallies, insertion critical-section times.
    pub metrics: MetricsSnapshot,
    /// Typed overload, if the memory budget's hard watermark forced
    /// intervals to be shed mid-run (see [`crate::governor`]). Always
    /// accompanied by `metrics.intervals_rejected > 0`.
    pub overload: Option<OverloadError>,
    /// The final, frozen poset.
    pub poset: Poset<P>,
}

impl<P> OnlineReport<P> {
    /// True when `cuts` is exactly `i(P)`: no error, no interval shed by
    /// [`BackpressurePolicy::Fail`], and nothing quarantined.
    pub fn is_complete(&self) -> bool {
        self.error.is_none() && self.metrics.intervals_rejected == 0 && self.faults.is_empty()
    }

    /// [`Outcome::Complete`], or [`Outcome::Degraded`] with the fault
    /// log when intervals were quarantined. The degraded cut set is
    /// still exact on everything outside the log: intervals are
    /// disjoint (Theorem 2), so `cuts` + the log's per-interval
    /// remainders partition `i(P)`.
    pub fn outcome(&self) -> Outcome<'_> {
        self.faults.outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{AtomicCountSink, ConcurrentCollectSink};
    use paramount_poset::oracle;
    use paramount_poset::random::RandomComputation;
    use paramount_poset::CutRef;
    use std::ops::ControlFlow;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc as StdArc;

    #[test]
    fn online_poset_insertion_and_snapshot() {
        let p: OnlinePoset<&str> = OnlinePoset::new(2);
        let (a, iv_a) = p.insert_after(Tid(0), &[], "a");
        assert_eq!(iv_a.gmin.as_slice(), &[1, 0]);
        assert_eq!(iv_a.gbnd.as_slice(), &[1, 0]);
        assert!(iv_a.include_empty);
        let (_b, iv_b) = p.insert_after(Tid(1), &[a], "b");
        assert_eq!(iv_b.gmin.as_slice(), &[1, 1]);
        assert_eq!(iv_b.gbnd.as_slice(), &[1, 1]);
        assert!(!iv_b.include_empty);
        let snap = p.snapshot();
        assert_eq!(snap.num_events(), 2);
        assert_eq!(*snap.payload(a), "a");
    }

    #[test]
    fn figure8_snapshot_gbnd() {
        // Figure 8(a): insertion order e1[1], e2[1], e1[2], e2[2] gives
        // Gbnd(e1[2]) = {2,1}; (b): inserting e2[2] before e1[2] gives
        // Gbnd(e1[2]) = {2,2}.
        let p: OnlinePoset<()> = OnlinePoset::new(2);
        p.insert_after(Tid(0), &[], ());
        p.insert_after(Tid(1), &[], ());
        let (_, iv) = p.insert_after(Tid(0), &[], ());
        assert_eq!(iv.gbnd.as_slice(), &[2, 1]);

        let q: OnlinePoset<()> = OnlinePoset::new(2);
        q.insert_after(Tid(0), &[], ());
        q.insert_after(Tid(1), &[], ());
        q.insert_after(Tid(1), &[], ());
        let (_, iv) = q.insert_after(Tid(0), &[], ());
        assert_eq!(iv.gbnd.as_slice(), &[2, 2]);
    }

    #[test]
    fn engine_enumerates_every_cut_exactly_once() {
        for seed in 0..6 {
            // Replay a random computation through the online engine...
            let reference = RandomComputation::new(4, 5, 0.4, seed).generate();
            let sink = StdArc::new(ConcurrentCollectSink::new());
            let engine = OnlineEngine::new(
                4,
                OnlineEngineConfig {
                    workers: 3,
                    ..OnlineEngineConfig::default()
                },
                {
                    let sink = StdArc::clone(&sink);
                    move |cut: CutRef<'_>, owner| sink.visit(cut, owner)
                },
            );
            engine.observe_poset(&reference);
            let report = engine.finish();
            // ...and compare against the offline oracle.
            let expected = oracle::enumerate_product_scan(&reference);
            assert_eq!(report.cuts as usize, expected.len(), "seed {seed}");
            // `take_cuts` reads through the shared handle — the closure
            // sink's leaked clone cannot abort result extraction.
            let got: Vec<Frontier> = sink.take_cuts();
            assert_eq!(oracle::canonicalize(got), expected, "seed {seed}");
        }
    }

    #[test]
    fn concurrent_observers_agree_with_offline_count() {
        // Theorem 3: four real threads observe their own events (with a
        // handful of cross-thread dependencies) while workers enumerate.
        let counter = StdArc::new(AtomicCountSink::new());
        let counter_in_sink = StdArc::clone(&counter);
        // Scoped threads borrow the engine directly: no `Arc` around it,
        // so teardown needs no `try_unwrap` at all.
        let engine = OnlineEngine::new(
            4,
            OnlineEngineConfig {
                workers: 4,
                ..OnlineEngineConfig::default()
            },
            move |cut: CutRef<'_>, owner| counter_in_sink.visit(cut, owner),
        );

        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let engine = &engine;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for k in 0..6 {
                        // Every third event synchronizes with a previously
                        // published event of the next thread, if any.
                        let deps: Vec<EventId> = if k % 3 == 2 {
                            let other = Tid((t + 1) % 4);
                            let published = engine.poset().events_of(other) as u32;
                            if published > 0 {
                                vec![EventId::new(other, published)]
                            } else {
                                Vec::new()
                            }
                        } else {
                            Vec::new()
                        };
                        engine.observe_after(Tid(t), &deps, ());
                    }
                });
            }
        });
        let report = engine.finish();
        assert_eq!(report.events, 24);
        // The online count must equal the offline lattice size of the
        // final poset.
        let expected = oracle::count_ideals(&report.poset);
        assert_eq!(report.cuts, expected);
        assert_eq!(counter.count(), expected);
        assert!(report.error.is_none());
        assert!(report.is_complete());
    }

    #[test]
    fn early_stop_halts_engine() {
        let engine = OnlineEngine::new(
            2,
            OnlineEngineConfig {
                workers: 2,
                ..OnlineEngineConfig::default()
            },
            move |_: CutRef<'_>, _: EventId| ControlFlow::Break(()),
        );
        for _ in 0..50 {
            engine.observe_after(Tid(0), &[], ());
            engine.observe_after(Tid(1), &[], ());
        }
        let report = engine.finish();
        assert!(report.cuts < 200, "stop should prevent full enumeration");
        assert!(report.error.is_none(), "Stopped is not an error");
    }

    #[test]
    fn dropping_engine_without_finish_joins_workers() {
        let engine = OnlineEngine::new(
            2,
            OnlineEngineConfig::default(),
            move |_: CutRef<'_>, _: EventId| ControlFlow::Continue(()),
        );
        engine.observe_after(Tid(0), &[], ());
        drop(engine); // must not hang or leak threads
    }

    #[test]
    fn report_metrics_are_internally_consistent() {
        let reference = RandomComputation::new(3, 6, 0.3, 42).generate();
        let engine = OnlineEngine::new(
            3,
            OnlineEngineConfig {
                workers: 2,
                ..OnlineEngineConfig::default()
            },
            move |_: CutRef<'_>, _: EventId| ControlFlow::Continue(()),
        );
        engine.observe_poset(&reference);
        let report = engine.finish();
        let m = &report.metrics;
        assert_eq!(m.events_inserted, report.events);
        assert_eq!(m.intervals_dispatched, report.events);
        assert_eq!(m.intervals_completed, report.events);
        assert_eq!(m.intervals_spilled, 0);
        assert_eq!(m.intervals_rejected, 0);
        assert_eq!(m.cuts_emitted, report.cuts);
        // Every interval's cut count went through the histogram; the sums
        // must reconcile exactly with the headline count.
        assert_eq!(m.interval_cuts.count(), report.events);
        assert_eq!(m.interval_cuts.sum, report.cuts);
        // Every insert was timed.
        assert_eq!(m.insert_critical_ns.count(), report.events);
        // Queue fully drained; high-water mark observed at least one send.
        assert_eq!(m.queue_depth, 0);
        assert!(m.queue_depth_high_water >= 1);
        // Worker tallies add up to the dispatched total.
        assert_eq!(m.workers.len(), 2);
        let by_worker: u64 = m.workers.iter().map(|w| w.intervals).sum();
        assert_eq!(by_worker, report.events);
        assert!(report.is_complete());
    }

    #[test]
    fn tiny_intervals_coalesce_into_queue_batches() {
        // A single-thread chain: every event's interval is one cut, so
        // the submit path coalesces them into batched queue entries
        // instead of paying a channel round-trip per interval. The count
        // must stay oracle-exact through batching, part-filled leftover
        // included.
        let engine = OnlineEngine::new(
            1,
            OnlineEngineConfig {
                workers: 1,
                ..OnlineEngineConfig::default()
            },
            move |_: CutRef<'_>, _: EventId| ControlFlow::Continue(()),
        );
        for _ in 0..100 {
            engine.observe_after(Tid(0), &[], ());
        }
        let report = engine.finish();
        let expected = oracle::count_ideals(&report.poset);
        assert_eq!(report.cuts, expected, "batching must not lose cuts");
        let m = &report.metrics;
        assert_eq!(m.intervals_dispatched, 100);
        assert_eq!(m.intervals_completed, 100);
        assert!(
            m.queue_batches >= 2,
            "chain intervals must coalesce into batches (saw {})",
            m.queue_batches
        );
        assert_eq!(m.queue_depth, 0, "queue fully drained");
        assert!(report.is_complete());
    }

    #[test]
    fn spill_policy_loses_no_cuts_under_tiny_queue() {
        let reference = RandomComputation::new(3, 6, 0.3, 7).generate();
        let counter = StdArc::new(AtomicCountSink::new());
        let counter_in_sink = StdArc::clone(&counter);
        let engine = OnlineEngine::new(
            3,
            OnlineEngineConfig {
                workers: 1,
                queue_capacity: 1,
                backpressure: BackpressurePolicy::SpillToDeque,
                ..OnlineEngineConfig::default()
            },
            move |cut: CutRef<'_>, owner| {
                // Slow consumer: force the 1-slot queue to overflow.
                std::thread::sleep(std::time::Duration::from_micros(50));
                counter_in_sink.visit(cut, owner)
            },
        );
        engine.observe_poset(&reference);
        let report = engine.finish();
        let expected = oracle::count_ideals(&report.poset);
        assert_eq!(report.cuts, expected, "spill must not lose intervals");
        assert_eq!(counter.count(), expected);
        assert_eq!(report.metrics.intervals_rejected, 0);
        assert_eq!(
            report.metrics.intervals_completed,
            report.metrics.intervals_dispatched
        );
        assert!(report.is_complete());
    }

    #[test]
    fn fail_policy_sheds_load_and_reports_incomplete() {
        let release = StdArc::new(AtomicBool::new(false));
        let gate = StdArc::clone(&release);
        let engine = OnlineEngine::new(
            2,
            OnlineEngineConfig {
                workers: 1,
                queue_capacity: 1,
                backpressure: BackpressurePolicy::Fail,
                ..OnlineEngineConfig::default()
            },
            move |_: CutRef<'_>, _: EventId| {
                // Hold the single worker hostage until all inserts landed.
                while !gate.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                ControlFlow::Continue(())
            },
        );
        for _ in 0..30 {
            engine.observe_after(Tid(0), &[], ());
            engine.observe_after(Tid(1), &[], ());
        }
        release.store(true, Ordering::Relaxed);
        let report = engine.finish();
        let m = &report.metrics;
        assert!(m.intervals_rejected > 0, "queue must have shed load");
        assert_eq!(
            m.intervals_completed + m.intervals_rejected,
            m.intervals_dispatched
        );
        assert!(!report.is_complete());
        // Shed work means a strict undercount versus the true lattice.
        assert!(report.cuts < oracle::count_ideals(&report.poset));
    }

    #[test]
    fn live_metrics_snapshot_is_available_mid_run() {
        let engine = OnlineEngine::new(
            2,
            OnlineEngineConfig::default(),
            move |_: CutRef<'_>, _: EventId| ControlFlow::Continue(()),
        );
        engine.observe_after(Tid(0), &[], ());
        let live = engine.metrics();
        assert_eq!(live.events_inserted, 1);
        let report = engine.finish();
        assert_eq!(report.metrics.events_inserted, 1);
    }

    /// Theorem 2's disjoint cover, under faults: the delivered cuts plus
    /// each quarantined interval's remainder (re-enumerated offline on
    /// the final poset, minus the delivered prefix) must partition the
    /// oracle lattice count exactly — no cut lost, none double-counted.
    fn assert_exact_partition<P: Clone + Send + Sync>(report: &OnlineReport<P>) {
        let total = oracle::count_ideals(&report.poset);
        let mut skipped = 0u64;
        for q in &report.faults.quarantined {
            let mut sink = paramount_enumerate::CollectSink::default();
            q.interval
                .enumerate(&report.poset, Algorithm::Lexical, &mut sink)
                .expect("lexical re-enumeration is stateless");
            skipped += sink.cuts.len() as u64 - q.cuts_emitted;
            assert!(q.skipped_cuts_bound() >= u128::from(sink.cuts.len() as u64 - q.cuts_emitted));
        }
        assert_eq!(report.cuts + skipped, total, "degraded partition not exact");
    }

    #[test]
    fn panicking_sink_quarantines_its_interval_and_degrades() {
        let reference = RandomComputation::new(3, 5, 0.4, 11).generate();
        let order = paramount_poset::topo::weight_order(&reference);
        let victim = order[order.len() / 2];
        let counter = StdArc::new(AtomicCountSink::new());
        let counter_in_sink = StdArc::clone(&counter);
        let engine = OnlineEngine::new(
            3,
            OnlineEngineConfig {
                workers: 2,
                ..OnlineEngineConfig::default()
            },
            move |cut: CutRef<'_>, owner: EventId| {
                if owner == victim {
                    panic!("predicate exploded");
                }
                counter_in_sink.visit(cut, owner)
            },
        );
        engine.observe_poset(&reference);
        let report = engine.finish();
        // The faulted interval panicked on its first delivery (clean
        // slate), earned one retry, panicked again, and was quarantined.
        assert_eq!(report.faults.len(), 1);
        let q = &report.faults.quarantined[0];
        assert_eq!(q.interval.event, victim);
        assert_eq!(q.cuts_emitted, 0);
        assert_eq!(q.attempts, 2);
        assert!(q.message.contains("predicate exploded"), "{}", q.message);
        assert!(!report.is_complete());
        assert!(!report.outcome().is_complete());
        match report.outcome() {
            Outcome::Degraded(log) => assert_eq!(log.len(), 1),
            Outcome::Complete => panic!("run must be degraded"),
        }
        let m = &report.metrics;
        assert_eq!(m.worker_panics, 2);
        assert_eq!(m.intervals_retried, 1);
        assert_eq!(m.intervals_quarantined, 1);
        assert_eq!(
            m.intervals_completed + m.intervals_quarantined,
            m.intervals_dispatched
        );
        assert_eq!(counter.count(), report.cuts);
        assert_exact_partition(&report);
    }

    #[test]
    fn partial_emission_skips_retry_and_reports_exact_prefix() {
        // t0: two events; t1: one concurrent event whose interval spans
        // {0,1},{1,1},{2,1}. The sink delivers the first cut, then
        // panics — a retry would double-deliver it, so the engine must
        // quarantine immediately with the prefix length on record.
        let visits = StdArc::new(AtomicU64::new(0));
        let visits_in_sink = StdArc::clone(&visits);
        let engine = OnlineEngine::new(
            2,
            OnlineEngineConfig {
                workers: 1,
                ..OnlineEngineConfig::default()
            },
            move |_: CutRef<'_>, owner: EventId| {
                if owner.tid == Tid(1) && visits_in_sink.fetch_add(1, Ordering::Relaxed) + 1 == 2 {
                    panic!("mid-interval fault");
                }
                ControlFlow::Continue(())
            },
        );
        engine.observe_after(Tid(0), &[], ());
        engine.observe_after(Tid(0), &[], ());
        engine.observe_after(Tid(1), &[], ());
        let report = engine.finish();
        assert_eq!(report.faults.len(), 1);
        let q = &report.faults.quarantined[0];
        assert_eq!(q.cuts_emitted, 1, "exactly the delivered prefix");
        assert_eq!(q.attempts, 1, "partial emission forbids the retry");
        assert_eq!(report.metrics.intervals_retried, 0);
        assert_eq!(report.metrics.worker_panics, 1);
        // Lattice: 6 cuts total; the quarantined interval held 3, one
        // was delivered. 2 + 1 + 1 = 4 delivered overall.
        assert_eq!(report.cuts, 4);
        assert_eq!(q.skipped_cuts_bound(), 2);
        assert_exact_partition(&report);
    }

    #[test]
    fn transient_panic_is_retried_and_run_completes() {
        let first = StdArc::new(AtomicBool::new(true));
        let first_in_sink = StdArc::clone(&first);
        let counter = StdArc::new(AtomicCountSink::new());
        let counter_in_sink = StdArc::clone(&counter);
        let engine = OnlineEngine::new(
            2,
            OnlineEngineConfig {
                workers: 2,
                ..OnlineEngineConfig::default()
            },
            move |cut: CutRef<'_>, owner: EventId| {
                // Panic once, on the very first delivery of t1's
                // interval — before anything of it was delivered.
                if owner.tid == Tid(1) && first_in_sink.swap(false, Ordering::Relaxed) {
                    panic!("transient");
                }
                counter_in_sink.visit(cut, owner)
            },
        );
        engine.observe_after(Tid(0), &[], ());
        engine.observe_after(Tid(0), &[], ());
        engine.observe_after(Tid(1), &[], ());
        let report = engine.finish();
        assert!(report.is_complete(), "retry must recover a transient fault");
        assert!(report.outcome().is_complete());
        assert!(report.faults.is_empty());
        assert_eq!(report.metrics.worker_panics, 1);
        assert_eq!(report.metrics.intervals_retried, 1);
        assert_eq!(report.metrics.intervals_quarantined, 0);
        assert_eq!(report.cuts, 6);
        assert_eq!(counter.count(), 6);
    }

    #[test]
    fn worker_panic_never_terminates_the_process_across_many_intervals() {
        // Every t1-owned interval panics on every delivery: multiple
        // quarantines, all contained, engine finishes normally.
        let counter = StdArc::new(AtomicCountSink::new());
        let counter_in_sink = StdArc::clone(&counter);
        let engine = OnlineEngine::new(
            2,
            OnlineEngineConfig {
                workers: 2,
                worker_restart_budget: 2,
                ..OnlineEngineConfig::default()
            },
            move |cut: CutRef<'_>, owner: EventId| {
                if owner.tid == Tid(1) {
                    panic!("poisoned predicate");
                }
                counter_in_sink.visit(cut, owner)
            },
        );
        for _ in 0..5 {
            engine.observe_after(Tid(0), &[], ());
            engine.observe_after(Tid(1), &[], ());
        }
        let report = engine.finish();
        assert_eq!(report.faults.len(), 5, "every t1 interval quarantined");
        assert_eq!(report.metrics.intervals_quarantined, 5);
        assert_eq!(report.metrics.worker_panics, 10, "each retried once");
        assert!(!report.is_complete());
        assert_eq!(counter.count(), report.cuts);
        assert_exact_partition(&report);
    }

    #[test]
    fn watchdog_preempts_a_stalled_interval_and_quarantines_its_prefix() {
        // t0: two events; t1: one concurrent event whose interval spans
        // {0,1},{1,1},{2,1}. The sink delivers the first cut of that
        // interval, then stalls far past the deadline: the next visit
        // observes the expired deadline and preempts. One cut was
        // already delivered, so a rerun would double-deliver — the
        // interval is quarantined with its exact prefix (exactly-once
        // outranks completeness).
        let engine = OnlineEngine::new(
            2,
            OnlineEngineConfig {
                workers: 1,
                governor: GovernorConfig {
                    interval_deadline: Some(std::time::Duration::from_millis(100)),
                    ..GovernorConfig::default()
                },
                ..OnlineEngineConfig::default()
            },
            move |_: CutRef<'_>, owner: EventId| {
                if owner.tid == Tid(1) {
                    std::thread::sleep(std::time::Duration::from_millis(400));
                }
                ControlFlow::Continue(())
            },
        );
        engine.observe_after(Tid(0), &[], ());
        engine.observe_after(Tid(0), &[], ());
        engine.observe_after(Tid(1), &[], ());
        let report = engine.finish();
        assert_eq!(report.faults.len(), 1);
        let q = &report.faults.quarantined[0];
        assert_eq!(q.interval.event.tid, Tid(1));
        assert_eq!(q.cuts_emitted, 1, "exactly the delivered prefix");
        assert!(q.message.contains("preempted"), "{}", q.message);
        assert!(!report.is_complete());
        let m = &report.metrics;
        assert!(m.intervals_preempted >= 1);
        assert!(m.watchdog_wakeups >= 1, "supervisor thread must have run");
        assert_eq!(m.intervals_quarantined, 1);
        assert_exact_partition(&report);
    }

    #[test]
    fn zero_deadline_splits_intervals_to_leaves_and_stays_exact() {
        // A zero deadline preempts every multi-cut interval at its first
        // visit, before anything is delivered: the executor splits it
        // and reschedules both halves, recursing until single-cut
        // leaves, which rerun deadline-free. The final count must still
        // be exact — the split preserves disjointness and cover.
        let reference = RandomComputation::new(3, 5, 0.4, 23).generate();
        let counter = StdArc::new(AtomicCountSink::new());
        let counter_in_sink = StdArc::clone(&counter);
        let engine = OnlineEngine::new(
            3,
            OnlineEngineConfig {
                workers: 2,
                governor: GovernorConfig {
                    interval_deadline: Some(std::time::Duration::ZERO),
                    ..GovernorConfig::default()
                },
                ..OnlineEngineConfig::default()
            },
            move |cut: CutRef<'_>, owner| counter_in_sink.visit(cut, owner),
        );
        engine.observe_poset(&reference);
        let report = engine.finish();
        assert_eq!(report.cuts, oracle::count_ideals(&report.poset));
        assert_eq!(counter.count(), report.cuts);
        assert!(report.is_complete(), "splitting must lose nothing");
        let m = &report.metrics;
        assert!(m.intervals_preempted >= 1);
        assert!(m.intervals_split >= 1);
        // A split consumes one dispatched interval and dispatches two
        // more; every leaf either completes or (never, here) is
        // quarantined. The ledger must balance exactly.
        assert_eq!(
            m.intervals_completed + m.intervals_quarantined + m.intervals_split,
            m.intervals_dispatched
        );
    }

    #[test]
    fn soft_watermark_promotes_spill_to_blocking_and_loses_nothing() {
        // With a 1-byte soft watermark the budget is in soft pressure
        // from the first retained event on, so every queue-full submit
        // is promoted from spilling to a blocking send: the producer
        // slows down instead of growing the spill, and nothing is lost.
        // Two independent chains keep interval boxes growing past the
        // tiny-batch ceiling, so submissions hit the 1-slot channel
        // directly instead of parking in the coalescing buffer.
        let counter = StdArc::new(AtomicCountSink::new());
        let counter_in_sink = StdArc::clone(&counter);
        let engine = OnlineEngine::new(
            2,
            OnlineEngineConfig {
                workers: 1,
                queue_capacity: 1,
                backpressure: BackpressurePolicy::SpillToDeque,
                governor: GovernorConfig {
                    soft_spill_bytes: Some(1),
                    ..GovernorConfig::default()
                },
                ..OnlineEngineConfig::default()
            },
            move |cut: CutRef<'_>, owner| {
                // Slow consumer: force the 1-slot queue to overflow.
                std::thread::sleep(std::time::Duration::from_micros(200));
                counter_in_sink.visit(cut, owner)
            },
        );
        for _ in 0..30 {
            engine.observe_after(Tid(0), &[], ());
            engine.observe_after(Tid(1), &[], ());
        }
        let report = engine.finish();
        assert_eq!(report.cuts, oracle::count_ideals(&report.poset));
        assert_eq!(counter.count(), report.cuts);
        assert!(report.is_complete());
        assert!(report.overload.is_none());
        let m = &report.metrics;
        assert!(m.backpressure_promotions >= 1, "full queue must promote");
        assert_eq!(m.intervals_spilled, 0, "soft pressure forbids spilling");
        assert_eq!(m.intervals_rejected, 0);
    }

    #[test]
    fn hard_watermark_with_fail_policy_reports_typed_overload() {
        // A 1-byte hard watermark is exceeded by the first retained
        // event, so every queue-full rejection under `Fail` also
        // surfaces the typed overload error in the report.
        let release = StdArc::new(AtomicBool::new(false));
        let gate = StdArc::clone(&release);
        let engine = OnlineEngine::new(
            2,
            OnlineEngineConfig {
                workers: 1,
                queue_capacity: 1,
                backpressure: BackpressurePolicy::Fail,
                governor: GovernorConfig {
                    hard_spill_bytes: Some(1),
                    ..GovernorConfig::default()
                },
                ..OnlineEngineConfig::default()
            },
            move |_: CutRef<'_>, _: EventId| {
                while !gate.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                ControlFlow::Continue(())
            },
        );
        for _ in 0..30 {
            engine.observe_after(Tid(0), &[], ());
            engine.observe_after(Tid(1), &[], ());
        }
        release.store(true, Ordering::Relaxed);
        let report = engine.finish();
        assert!(report.metrics.intervals_rejected > 0);
        let err = report
            .overload
            .expect("hard-watermark shedding must produce a typed error");
        assert_eq!(err.hard_watermark, 1);
        assert!(err.accounted_bytes >= 1);
        assert!(err.to_string().contains("memory budget exhausted"));
        assert!(!report.is_complete());
    }

    #[cfg(feature = "chaos")]
    mod chaos {
        use super::*;

        #[test]
        fn spawn_failures_degrade_the_pool_and_stay_exact() {
            // Fail 2 of 4 spawns → half pool; fail all 4 → inline mode.
            for fail in [2u32, 4] {
                let counter = StdArc::new(AtomicCountSink::new());
                let counter_in_sink = StdArc::clone(&counter);
                let engine = OnlineEngine::new(
                    2,
                    OnlineEngineConfig {
                        workers: 4,
                        faults: FaultPlan {
                            spawn_fail_first: fail,
                            ..FaultPlan::default()
                        },
                        ..OnlineEngineConfig::default()
                    },
                    move |cut: CutRef<'_>, owner| counter_in_sink.visit(cut, owner),
                );
                for _ in 0..4 {
                    engine.observe_after(Tid(0), &[], ());
                    engine.observe_after(Tid(1), &[], ());
                }
                let report = engine.finish();
                assert_eq!(report.metrics.worker_spawn_failures, u64::from(fail));
                assert_eq!(report.cuts, oracle::count_ideals(&report.poset));
                assert_eq!(counter.count(), report.cuts);
                assert!(report.is_complete(), "degraded pool loses nothing");
            }
        }

        #[test]
        fn injected_worker_kill_quarantines_in_flight_and_respawns() {
            let engine = OnlineEngine::new(
                2,
                OnlineEngineConfig {
                    workers: 2,
                    faults: FaultPlan {
                        worker_kill_at: Some(3),
                        ..FaultPlan::default()
                    },
                    ..OnlineEngineConfig::default()
                },
                |_: CutRef<'_>, _: EventId| ControlFlow::Continue(()),
            );
            for _ in 0..6 {
                engine.observe_after(Tid(0), &[], ());
                engine.observe_after(Tid(1), &[], ());
            }
            let report = engine.finish();
            assert_eq!(report.metrics.worker_panics, 1);
            assert_eq!(report.metrics.worker_restarts, 1);
            assert_eq!(report.faults.len(), 1, "the in-flight interval");
            assert_eq!(report.faults.quarantined[0].cuts_emitted, 0);
            assert!(!report.is_complete());
            assert_exact_partition(&report);
        }

        #[test]
        fn injected_send_failures_quarantine_at_dispatch() {
            let engine = OnlineEngine::new(
                2,
                OnlineEngineConfig {
                    workers: 2,
                    faults: FaultPlan {
                        send_fail_every: Some(4),
                        ..FaultPlan::default()
                    },
                    ..OnlineEngineConfig::default()
                },
                |_: CutRef<'_>, _: EventId| ControlFlow::Continue(()),
            );
            for _ in 0..6 {
                engine.observe_after(Tid(0), &[], ());
                engine.observe_after(Tid(1), &[], ());
            }
            let report = engine.finish();
            assert_eq!(report.faults.len(), 3, "sends 4, 8, 12 fail");
            assert!(report
                .faults
                .quarantined
                .iter()
                .all(|q| q.message.contains("queue send failed")));
            assert_eq!(report.metrics.intervals_quarantined, 3);
            assert_eq!(
                report.metrics.intervals_completed + report.metrics.intervals_quarantined,
                report.metrics.intervals_dispatched
            );
            assert_exact_partition(&report);
        }

        #[test]
        fn seeded_sink_chaos_partitions_exactly_under_every_seed() {
            for seed in [1u64, 7, 42] {
                let reference = RandomComputation::new(3, 5, 0.4, seed).generate();
                let counter = StdArc::new(AtomicCountSink::new());
                let counter_in_sink = StdArc::clone(&counter);
                let engine = OnlineEngine::new(
                    3,
                    OnlineEngineConfig {
                        workers: 3,
                        faults: FaultPlan {
                            seed,
                            sink_panic_every: Some(13),
                            ..FaultPlan::default()
                        },
                        ..OnlineEngineConfig::default()
                    },
                    move |cut: CutRef<'_>, owner| counter_in_sink.visit(cut, owner),
                );
                engine.observe_poset(&reference);
                let report = engine.finish();
                assert_eq!(counter.count(), report.cuts, "seed {seed}");
                assert_exact_partition(&report);
            }
        }
    }
}
