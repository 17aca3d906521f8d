//! Offline ParaMount (the paper's Algorithm 1).
//!
//! Given a complete poset: fix a total order `→p`, compute one interval
//! per event (`O(n)` each — the worker's entire per-event overhead, which
//! is why ParaMount is work-optimal), then enumerate the intervals in
//! parallel with a bounded sequential subroutine.
//!
//! The paper's workers pull events off a shared total order, and so do
//! these: the packed partition is one queue every worker pops from under
//! one lock. Interval sizes are extremely skewed — late events in `→p`
//! own cut counts orders of magnitude larger than early ones — so static
//! chunking would idle most threads; pulling one interval at a time is
//! essential to the Figure 10/11 speedup shapes.
//!
//! This type is a *front-end*: the worker pool and all per-interval
//! machinery — subroutine dispatch, panic isolation, the
//! split/retry/quarantine protocol, supervision, chaos injection,
//! metrics — live in the shared [`crate::exec`] core, which the online
//! engine feeds from a channel instead. The offline engine's only jobs
//! are ordering, partitioning, and folding the pool's outcome into
//! [`ParaStats`].

use crate::exec::{run_partition, IntervalExecutor};
use crate::faults::{FaultLog, FaultPlan};
use crate::interval::partition_packed;
use crate::metrics::{MetricsSnapshot, ParaMetrics};
use crate::sink::ParallelCutSink;
use crate::store::PackedIntervalQueue;
use paramount_enumerate::{Algorithm, EnumError};
use paramount_poset::{topo, CutSpace, EventId};
use std::sync::Arc;

/// Configuration and entry points for offline parallel enumeration.
///
/// `B-Para` in the paper is `ParaMount { algorithm: Bfs, .. }`; `L-Para`
/// is `ParaMount { algorithm: Lexical, .. }`. `Algorithm::Auto` defers
/// the choice to the executor, which picks the lexical scan or the
/// space-efficient leveled walk per interval from the interval's box
/// size and live memory-pressure signals (DESIGN.md §5e).
///
/// ```
/// use paramount::{Algorithm, AtomicCountSink, ParaMount};
/// use paramount_poset::builder::PosetBuilder;
/// use paramount_poset::Tid;
///
/// // The paper's Figure 4 poset: 7 consistent global states.
/// let mut b = PosetBuilder::new(2);
/// let e11 = b.append(Tid(0), ());
/// let e21 = b.append(Tid(1), ());
/// b.append_after(Tid(0), &[e21], ());
/// b.append_after(Tid(1), &[e11], ());
/// let poset = b.finish();
///
/// let sink = AtomicCountSink::new();
/// let stats = ParaMount::new(Algorithm::Lexical)
///     .with_threads(2)
///     .enumerate(&poset, &sink)
///     .unwrap();
/// assert_eq!(stats.cuts, 7);
/// assert_eq!(sink.count(), 7);
/// ```
#[derive(Clone, Debug)]
pub struct ParaMount {
    /// The bounded sequential subroutine run on each interval.
    pub algorithm: Algorithm,
    /// Worker threads: `0` means one per available CPU
    /// ([`std::thread::available_parallelism`]), any other value exactly
    /// that many (the knob behind the paper's `(1) (2) (4) (8)` columns).
    pub threads: usize,
    /// Per-interval frontier budget for the stateful subroutines (BFS /
    /// DFS). Partitioning is itself the paper's cure for BFS memory blowup:
    /// a budget that kills a whole-lattice BFS usually passes easily per
    /// interval.
    pub frontier_budget: Option<usize>,
    /// External metrics registry; when absent each run folds into a fresh
    /// one (see [`ParaStats::metrics`]).
    metrics: Option<Arc<ParaMetrics>>,
    /// Deterministic fault-injection plan. Inert unless the `chaos`
    /// feature compiles the injection sites in (panic isolation itself is
    /// always on — the plan only *creates* faults, never handles them).
    pub faults: FaultPlan,
    /// Per-interval wall-clock deadline. `None` (default) disables
    /// preemption; set it to bound how long any one interval can hold a
    /// worker before being split or quarantined (see
    /// [`crate::governor`]).
    pub interval_deadline: Option<std::time::Duration>,
}

impl ParaMount {
    /// ParaMount over the given subroutine, one worker per available CPU.
    pub fn new(algorithm: Algorithm) -> Self {
        ParaMount {
            algorithm,
            threads: 0,
            frontier_budget: None,
            metrics: None,
            faults: FaultPlan::default(),
            interval_deadline: None,
        }
    }

    /// Sets the per-interval wall-clock deadline (liveness supervision).
    /// A preempted interval that delivered nothing is split and both
    /// halves rescheduled; one that already delivered cuts is
    /// quarantined with its exact prefix.
    pub fn with_interval_deadline(mut self, deadline: Option<std::time::Duration>) -> Self {
        self.interval_deadline = deadline;
        self
    }

    /// Arms a deterministic fault-injection plan (active only when the
    /// crate is built with the `chaos` feature).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the worker-thread count (0 = one per available CPU).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the per-interval frontier budget for BFS/DFS subroutines.
    pub fn with_frontier_budget(mut self, budget: Option<usize>) -> Self {
        self.frontier_budget = budget;
        self
    }

    /// Records into a caller-owned registry instead of a per-run one —
    /// lets several enumerations accumulate into one set of instruments
    /// (a bench sweep), or a live observer watch a long run.
    pub fn with_metrics(mut self, metrics: Arc<ParaMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Enumerates every consistent cut of `space` exactly once, in
    /// parallel, using the vector-clock-weight linear extension.
    pub fn enumerate<Sp, K>(&self, space: &Sp, sink: &K) -> Result<ParaStats, EnumError>
    where
        Sp: CutSpace + Sync + ?Sized,
        K: ParallelCutSink + ?Sized,
    {
        let order = topo::weight_order(space);
        self.enumerate_with_order(space, &order, sink)
    }

    /// Enumerates with an explicit `→p` order (any linear extension).
    pub fn enumerate_with_order<Sp, K>(
        &self,
        space: &Sp,
        order: &[EventId],
        sink: &K,
    ) -> Result<ParaStats, EnumError>
    where
        Sp: CutSpace + Sync + ?Sized,
        K: ParallelCutSink + ?Sized,
    {
        let mut queue = partition_packed(space, order);
        self.enumerate_packed(space, &mut queue, sink)
    }

    /// Enumerates a delta-coded interval queue (what
    /// [`partition_packed`] builds). Workers pop and unpack one interval
    /// at a time, so the partition stays one contiguous varint buffer
    /// instead of two heap `Frontier`s per event.
    pub fn enumerate_packed<Sp, K>(
        &self,
        space: &Sp,
        queue: &mut PackedIntervalQueue,
        sink: &K,
    ) -> Result<ParaStats, EnumError>
    where
        Sp: CutSpace + Sync + ?Sized,
        K: ParallelCutSink + ?Sized,
    {
        let width = match self.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads => threads,
        };
        // A shared registry accumulates across calls; a fresh one scopes
        // the snapshot to exactly this run.
        let metrics = match &self.metrics {
            Some(shared) => Arc::clone(shared),
            None => Arc::new(ParaMetrics::new(width)),
        };
        let intervals = queue.len();
        // Special case: an empty poset still has its one empty cut, but no
        // event interval carries it.
        if intervals == 0 {
            let empty = paramount_poset::Frontier::empty(space.num_threads());
            // No event exists to own the empty cut; report a placeholder id.
            let placeholder = EventId::new(paramount_poset::Tid(0), 1);
            if sink.visit(empty.as_cut(), placeholder).is_break() {
                return Err(EnumError::Stopped);
            }
            metrics.cuts_emitted.add(1);
            return Ok(ParaStats {
                cuts: 1,
                intervals,
                peak_frontiers: 1,
                faults: FaultLog::default(),
                metrics: metrics.snapshot(),
            });
        }
        let exec = IntervalExecutor {
            algorithm: self.algorithm,
            frontier_budget: self.frontier_budget,
            interval_deadline: self.interval_deadline,
            faults: self.faults,
        };
        let outcome = run_partition(exec, width, space, queue, sink, metrics);
        match outcome.error {
            Some(err) => Err(err),
            None if outcome.stopped => Err(EnumError::Stopped),
            None => Ok(ParaStats {
                cuts: outcome.cuts,
                intervals,
                peak_frontiers: outcome.peak_frontiers,
                faults: outcome.faults,
                metrics: outcome.metrics,
            }),
        }
    }
}

/// Aggregate statistics from one parallel enumeration.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParaStats {
    /// Total cuts emitted (equals `i(P)` — Theorem 2 — when
    /// [`ParaStats::faults`] is empty; under quarantine it counts exactly
    /// the cuts the sink saw, delivered prefixes included).
    pub cuts: u64,
    /// Number of intervals processed (= number of events).
    pub intervals: usize,
    /// Largest per-interval frontier storage any worker needed (1 for the
    /// lexical subroutine; the partitioning win for BFS shows up here).
    pub peak_frontiers: usize,
    /// Intervals quarantined after a panic unwound out of the sink. Empty
    /// on a clean run; each entry carries its `[Gmin, Gbnd]` pair so the
    /// skipped region is exactly re-enumerable.
    pub faults: FaultLog,
    /// Observability snapshot: per-interval cut-count histogram, worker
    /// busy tallies, counter totals. Scoped to this run unless a shared
    /// registry was attached via [`ParaMount::with_metrics`] (then it
    /// holds everything recorded so far).
    pub metrics: MetricsSnapshot,
}

impl ParaStats {
    /// `Complete` when every interval enumerated cleanly, `Degraded`
    /// (carrying the quarantine log) otherwise.
    pub fn outcome(&self) -> crate::faults::Outcome<'_> {
        self.faults.outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{AtomicCountSink, ConcurrentCollectSink};
    use paramount_poset::random::RandomComputation;
    use paramount_poset::{oracle, CutRef, Frontier, Poset, Tid};
    use std::ops::ControlFlow;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn matches_oracle_for_all_algorithms_and_thread_counts() {
        for seed in 0..8 {
            let p = RandomComputation::new(4, 5, 0.4, seed).generate();
            let expected = oracle::enumerate_product_scan(&p);
            for algo in Algorithm::ALL {
                for threads in [1, 2, 4] {
                    let sink = ConcurrentCollectSink::new();
                    let stats = ParaMount::new(algo)
                        .with_threads(threads)
                        .enumerate(&p, &sink)
                        .unwrap();
                    let got = oracle::canonicalize(sink.into_cuts());
                    assert_eq!(got, expected, "{algo:?}/{threads} seed {seed}");
                    assert_eq!(stats.cuts as usize, expected.len());
                    assert_eq!(stats.intervals, p.num_events());
                }
            }
        }
    }

    #[test]
    fn exactly_once_even_under_heavy_parallelism() {
        let p = RandomComputation::new(6, 6, 0.3, 99).generate();
        let sink = ConcurrentCollectSink::new();
        ParaMount::new(Algorithm::Lexical)
            .with_threads(8)
            .enumerate(&p, &sink)
            .unwrap();
        let cuts = sink.into_cuts();
        let unique: std::collections::HashSet<_> = cuts.iter().cloned().collect();
        assert_eq!(cuts.len(), unique.len(), "duplicate cut under parallelism");
        assert_eq!(cuts.len() as u64, oracle::count_ideals(&p));
    }

    #[test]
    fn kahn_and_weight_orders_agree_on_totals() {
        let p = RandomComputation::new(4, 6, 0.5, 5).generate();
        let a = AtomicCountSink::new();
        ParaMount::new(Algorithm::Lexical)
            .enumerate(&p, &a)
            .unwrap();
        let b = AtomicCountSink::new();
        let order = paramount_poset::topo::kahn_order(&p);
        ParaMount::new(Algorithm::Lexical)
            .enumerate_with_order(&p, &order, &b)
            .unwrap();
        assert_eq!(a.count(), b.count());
    }

    #[test]
    fn empty_poset_emits_single_empty_cut() {
        let p: Poset = Poset::empty(3);
        let sink = ConcurrentCollectSink::new();
        let stats = ParaMount::new(Algorithm::Lexical)
            .enumerate(&p, &sink)
            .unwrap();
        assert_eq!(stats.cuts, 1);
        assert_eq!(sink.into_cuts(), vec![Frontier::empty(3)]);
    }

    #[test]
    fn early_stop_reports_stopped() {
        let p = RandomComputation::new(4, 5, 0.3, 3).generate();
        let seen = AtomicU64::new(0);
        let sink = |_: CutRef<'_>, _: EventId| {
            if seen.fetch_add(1, Ordering::Relaxed) >= 10 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        let err = ParaMount::new(Algorithm::Lexical)
            .with_threads(2)
            .enumerate(&p, &sink)
            .unwrap_err();
        assert_eq!(err, EnumError::Stopped);
    }

    #[test]
    fn per_interval_budget_passes_where_global_bfs_fails() {
        // Whole-lattice BFS holds C(8,4)+C(8,5) = 126 live frontiers at
        // its widest; the largest single interval (the last event's) peaks
        // at C(7,3)+C(7,4) = 70 — the memory win of partitioning, the
        // Table 1 o.o.m. story in miniature.
        let mut b = paramount_poset::builder::PosetBuilder::new(8);
        for t in paramount_poset::Tid::all(8) {
            b.append(t, ());
        }
        let p = b.finish();

        let mut whole = paramount_enumerate::CountSink::default();
        let err = paramount_enumerate::bfs::enumerate(
            &p,
            &paramount_enumerate::bfs::BfsOptions {
                frontier_budget: Some(80),
            },
            &mut whole,
        )
        .unwrap_err();
        assert!(matches!(err, EnumError::OutOfBudget { .. }));

        let sink = AtomicCountSink::new();
        let stats = ParaMount::new(Algorithm::Bfs)
            .with_threads(2)
            .with_frontier_budget(Some(80))
            .enumerate(&p, &sink)
            .unwrap();
        assert_eq!(stats.cuts, 256);
        assert_eq!(sink.count(), 256);
    }

    #[test]
    fn offline_metrics_reconcile_with_stats() {
        let p = RandomComputation::new(4, 5, 0.4, 11).generate();
        let sink = AtomicCountSink::new();
        let stats = ParaMount::new(Algorithm::Lexical)
            .with_threads(2)
            .enumerate(&p, &sink)
            .unwrap();
        let m = &stats.metrics;
        assert_eq!(m.cuts_emitted, stats.cuts);
        assert_eq!(m.intervals_dispatched as usize, stats.intervals);
        assert_eq!(m.intervals_completed, m.intervals_dispatched);
        assert_eq!(m.interval_cuts.count() as usize, stats.intervals);
        assert_eq!(m.interval_cuts.sum, stats.cuts);
        assert_eq!(m.workers.len(), 2);
        let per_worker: u64 = m.workers.iter().map(|w| w.intervals).sum();
        assert_eq!(per_worker as usize, stats.intervals);
    }

    #[test]
    fn shared_registry_accumulates_across_runs() {
        use crate::metrics::ParaMetrics;
        use std::sync::Arc;
        let p = RandomComputation::new(3, 4, 0.4, 2).generate();
        let registry = Arc::new(ParaMetrics::new(1));
        let pm = ParaMount::new(Algorithm::Lexical)
            .with_threads(1)
            .with_metrics(Arc::clone(&registry));
        let a = pm.enumerate(&p, &AtomicCountSink::new()).unwrap();
        let b = pm.enumerate(&p, &AtomicCountSink::new()).unwrap();
        // Stats scope to each run; the shared registry holds both.
        assert_eq!(a.cuts, b.cuts);
        assert_eq!(registry.snapshot().cuts_emitted, a.cuts + b.cuts);
        assert_eq!(b.metrics.cuts_emitted, a.cuts + b.cuts);
    }

    /// Delivered cuts plus each quarantined interval's remainder must
    /// equal the oracle lattice size exactly (Theorem 2 under faults).
    fn assert_exact_partition(p: &Poset, stats: &ParaStats) {
        let mut skipped = 0u64;
        for q in &stats.faults.quarantined {
            let mut csink = paramount_enumerate::CollectSink::default();
            q.interval
                .enumerate(p, Algorithm::Lexical, &mut csink)
                .unwrap();
            skipped += csink.cuts.len() as u64 - q.cuts_emitted;
        }
        assert_eq!(stats.cuts + skipped, oracle::count_ideals(p));
    }

    #[test]
    fn panicking_sink_quarantines_only_its_interval() {
        let p = RandomComputation::new(3, 5, 0.4, 21).generate();
        let order = paramount_poset::topo::weight_order(&p);
        let victim = order[order.len() / 2];
        let sink = move |_: CutRef<'_>, owner: EventId| {
            if owner == victim {
                panic!("poisoned predicate");
            }
            ControlFlow::Continue(())
        };
        let stats = ParaMount::new(Algorithm::Lexical)
            .with_threads(2)
            .enumerate(&p, &sink)
            .unwrap();
        assert_eq!(stats.faults.len(), 1);
        let q = &stats.faults.quarantined[0];
        assert_eq!(q.interval.event, victim);
        assert_eq!(q.attempts, 2, "one clean-slate retry, then quarantine");
        assert_eq!(q.cuts_emitted, 0);
        assert!(q.message.contains("poisoned predicate"));
        assert!(!stats.outcome().is_complete());
        assert_eq!(stats.metrics.worker_panics, 2);
        assert_eq!(stats.metrics.intervals_retried, 1);
        assert_eq!(stats.metrics.intervals_quarantined, 1);
        assert_eq!(
            stats.metrics.intervals_completed + stats.metrics.intervals_quarantined,
            stats.metrics.intervals_dispatched
        );
        assert_exact_partition(&p, &stats);
    }

    #[test]
    fn worker_body_panic_after_delivery_quarantines_the_exact_prefix() {
        // t0: four events, then one concurrent event on t1 whose interval
        // is the five cuts {0..4, 1}. Its third delivery panics with a
        // payload whose own drop panics: the second panic starts after
        // the executor's `catch_unwind` has returned, so it takes the
        // worker body down and the supervisor quarantines from the slot's
        // meter — which the unwinding attempt must have left at 2.
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                if !std::thread::panicking() {
                    panic!("payload dropped");
                }
            }
        }
        let mut b = paramount_poset::builder::PosetBuilder::new(2);
        let mut order: Vec<EventId> = (0..4).map(|_| b.append(Tid(0), ())).collect();
        let victim = b.append(Tid(1), ());
        order.push(victim);
        let p = b.finish();
        let visits = AtomicU64::new(0);
        let sink = |_: CutRef<'_>, owner: EventId| {
            if owner == victim && visits.fetch_add(1, Ordering::Relaxed) == 2 {
                std::panic::panic_any(Bomb);
            }
            ControlFlow::Continue(())
        };
        let stats = ParaMount::new(Algorithm::Lexical)
            .with_threads(1)
            .enumerate_with_order(&p, &order, &sink)
            .unwrap();
        assert_eq!(stats.faults.len(), 1);
        let q = &stats.faults.quarantined[0];
        assert_eq!(q.interval.event, victim);
        assert_eq!((q.cuts_emitted, q.attempts), (2, 1));
        assert!(q.message.contains("payload dropped"), "{}", q.message);
        assert_eq!(stats.metrics.worker_restarts, 1);
        assert_eq!(stats.cuts, 5 + 2, "t0's five cuts and the delivered prefix");
        assert_exact_partition(&p, &stats);
    }

    #[test]
    fn transient_panic_is_retried_to_completion_offline() {
        let p = RandomComputation::new(3, 4, 0.4, 9).generate();
        let order = paramount_poset::topo::weight_order(&p);
        let victim = *order.last().unwrap();
        let armed = std::sync::atomic::AtomicBool::new(true);
        let sink = |_: CutRef<'_>, owner: EventId| {
            // Panic exactly once, on the first delivery of the victim's
            // interval — before anything of it reached the sink.
            if owner == victim && armed.swap(false, Ordering::Relaxed) {
                panic!("transient");
            }
            ControlFlow::Continue(())
        };
        let stats = ParaMount::new(Algorithm::Lexical)
            .with_threads(2)
            .enumerate(&p, &sink)
            .unwrap();
        assert!(stats.outcome().is_complete());
        assert!(stats.faults.is_empty());
        assert_eq!(stats.metrics.worker_panics, 1);
        assert_eq!(stats.metrics.intervals_retried, 1);
        assert_eq!(stats.cuts, oracle::count_ideals(&p));
    }

    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_offline_partitions_exactly_under_pinned_seeds() {
        use crate::faults::FaultPlan;
        for seed in [3u64, 17, 99] {
            let p = RandomComputation::new(3, 5, 0.4, seed).generate();
            let sink_panics = FaultPlan {
                seed,
                sink_panic_every: Some(11),
                ..FaultPlan::default()
            };
            // The third pickup kills its worker outside the per-interval
            // boundary: the supervisor quarantines the in-flight interval
            // and restarts the body.
            let worker_kill = FaultPlan {
                worker_kill_at: Some(3),
                ..FaultPlan::default()
            };
            // No worker spawns: the caller's thread drains everything.
            let no_pool = FaultPlan {
                spawn_fail_first: 2,
                ..FaultPlan::default()
            };
            for plan in [sink_panics, worker_kill, no_pool] {
                let counter = AtomicCountSink::new();
                let stats = ParaMount::new(Algorithm::Lexical)
                    .with_threads(2)
                    .with_faults(plan)
                    .enumerate(&p, &counter)
                    .unwrap();
                assert_eq!(counter.count(), stats.cuts, "meter vs sink, seed {seed}");
                assert_exact_partition(&p, &stats);
                let m = &stats.metrics;
                assert_eq!(
                    m.intervals_completed + m.intervals_quarantined,
                    m.intervals_dispatched
                );
                if plan == worker_kill {
                    assert_eq!((m.worker_panics, m.worker_restarts), (1, 1));
                    assert_eq!(stats.faults.len(), 1, "the in-flight interval");
                    assert_eq!(stats.faults.quarantined[0].cuts_emitted, 0);
                }
                if plan == no_pool {
                    assert_eq!(m.worker_spawn_failures, 2);
                    assert!(stats.outcome().is_complete());
                }
            }
        }
    }

    #[test]
    fn zero_deadline_splits_to_leaves_and_matches_the_oracle() {
        // A zero deadline preempts every interval before its first
        // delivery: each is split (both halves through the spill) down
        // to single-cut leaves, which rerun deadline-free. Nothing is
        // ever delivered before a preemption, so nothing is quarantined.
        let p = RandomComputation::new(3, 5, 0.4, 23).generate();
        let expected = oracle::enumerate_product_scan(&p);
        for threads in [1, 2] {
            let sink = ConcurrentCollectSink::new();
            let stats = ParaMount::new(Algorithm::Lexical)
                .with_threads(threads)
                .with_interval_deadline(Some(std::time::Duration::ZERO))
                .enumerate(&p, &sink)
                .unwrap();
            assert_eq!(oracle::canonicalize(sink.into_cuts()), expected);
            assert_eq!(stats.cuts as usize, expected.len());
            assert!(stats.outcome().is_complete(), "x{threads}");
            let m = &stats.metrics;
            assert_eq!(m.intervals_quarantined, 0);
            assert!(m.intervals_split >= 1);
            // One leaf per cut, except that the empty cut rides with the
            // first event's lowest leaf.
            assert_eq!(m.intervals_completed as usize + 1, expected.len());
            assert_eq!(
                m.intervals_completed + m.intervals_split,
                m.intervals_dispatched
            );
            assert_eq!(m.spill_bytes, 0, "spill drained");
        }
    }

    /// The "one executor" claim as an assertion: the same posets through
    /// both front-ends give the same cut set and the same interval
    /// ledger, because the same pool ran the same intervals.
    #[test]
    fn offline_and_online_agree_on_cuts_and_interval_ledger() {
        use crate::online::{OnlineEngine, OnlineEngineConfig};
        for seed in 0..6 {
            let p = RandomComputation::new(4, 5, 0.4, seed).generate();
            let offline_sink = ConcurrentCollectSink::new();
            let offline = ParaMount::new(Algorithm::Lexical)
                .with_threads(2)
                .enumerate(&p, &offline_sink)
                .unwrap();

            let online_sink = Arc::new(ConcurrentCollectSink::new());
            let in_engine = Arc::clone(&online_sink);
            let config = OnlineEngineConfig {
                workers: 2,
                ..OnlineEngineConfig::default()
            };
            let engine = OnlineEngine::new(4, config, move |cut: CutRef<'_>, owner| {
                in_engine.visit(cut, owner)
            });
            engine.observe_poset(&p);
            let online = engine.finish();

            assert!(online.is_complete() && offline.outcome().is_complete());
            assert_eq!(
                oracle::canonicalize(offline_sink.into_cuts()),
                oracle::canonicalize(online_sink.take_cuts()),
                "seed {seed}"
            );
            assert_eq!(offline.cuts, online.cuts);
            let (a, b) = (&offline.metrics, &online.metrics);
            assert_eq!(a.intervals_dispatched, b.intervals_dispatched);
            assert_eq!(a.intervals_completed, b.intervals_completed);
            assert_eq!(a.interval_cuts, b.interval_cuts, "seed {seed}");
        }
    }

    #[test]
    fn stats_peak_frontiers_is_one_for_lexical() {
        let p = RandomComputation::new(4, 4, 0.4, 17).generate();
        let sink = AtomicCountSink::new();
        let stats = ParaMount::new(Algorithm::Lexical)
            .with_threads(4)
            .enumerate(&p, &sink)
            .unwrap();
        assert_eq!(stats.peak_frontiers, 1);
    }
}
