//! Shared-state sinks for parallel enumeration.

use paramount_enumerate::CutSink;
use paramount_poset::{CutRef, EventId, Frontier};
use parking_lot::Mutex;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

/// The `Sync` analog of [`CutSink`]: many interval workers feed one sink
/// concurrently, so `visit` takes `&self` and implementations synchronize
/// internally (or not at all, like the atomic counter).
///
/// As with [`CutSink`], the cut is a borrowed [`CutRef`] into the calling
/// worker's scratch frontier — valid only for the duration of the call;
/// retaining sinks copy with [`CutRef::to_frontier`].
///
/// Predicate evaluation in `paramount-detect` happens behind this trait:
/// the "sink" is the predicate, invoked once per consistent cut.
pub trait ParallelCutSink: Send + Sync {
    /// Called once per enumerated cut, from any worker thread.
    ///
    /// `owner` is the event whose interval the cut belongs to — the `e` of
    /// the paper's `predicate(P, G, e)`. Within `I(e)`, `e` is always the
    /// frontier event of its own thread (`Gmin(e)[t] = Gbnd(e)[t] =
    /// e.index` for `t = e.tid`), which is what lets race predicates check
    /// only the new event against the rest of the frontier. The empty cut
    /// reports the first event of `→p` as its owner, mirroring the paper's
    /// special case.
    ///
    /// `Break` requests a global early stop.
    fn visit(&self, cut: CutRef<'_>, owner: EventId) -> ControlFlow<()>;
}

/// Lock-free cut counter (`Relaxed` is enough: the total is only read
/// after the enumeration joins).
#[derive(Debug, Default)]
pub struct AtomicCountSink {
    count: AtomicU64,
}

impl AtomicCountSink {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cuts seen so far (exact once all workers have finished).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl ParallelCutSink for AtomicCountSink {
    #[inline]
    fn visit(&self, _cut: CutRef<'_>, _owner: EventId) -> ControlFlow<()> {
        self.count.fetch_add(1, Ordering::Relaxed);
        ControlFlow::Continue(())
    }
}

/// Collects every cut behind a mutex — tests and small runs only (the lock
/// serializes workers; never benchmark through this).
#[derive(Debug, Default)]
pub struct ConcurrentCollectSink {
    cuts: Mutex<Vec<Frontier>>,
}

impl ConcurrentCollectSink {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the collected cuts (unordered across workers).
    pub fn into_cuts(self) -> Vec<Frontier> {
        self.cuts.into_inner()
    }

    /// Takes the collected cuts out of a *shared* handle, leaving the
    /// collector empty. Teardown paths use this instead of
    /// `Arc::try_unwrap(..) + into_cuts()`, so a leaked clone of the
    /// handle cannot abort result extraction.
    pub fn take_cuts(&self) -> Vec<Frontier> {
        std::mem::take(&mut *self.cuts.lock())
    }

    /// Number of cuts collected so far.
    pub fn len(&self) -> usize {
        self.cuts.lock().len()
    }

    /// True when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ParallelCutSink for ConcurrentCollectSink {
    fn visit(&self, cut: CutRef<'_>, _owner: EventId) -> ControlFlow<()> {
        self.cuts.lock().push(cut.to_frontier());
        ControlFlow::Continue(())
    }
}

/// Closures (`Fn`, not `FnMut` — they run concurrently) are sinks.
impl<F: Fn(CutRef<'_>, EventId) -> ControlFlow<()> + Send + Sync> ParallelCutSink for F {
    #[inline]
    fn visit(&self, cut: CutRef<'_>, owner: EventId) -> ControlFlow<()> {
        self(cut, owner)
    }
}

/// Adapts a shared [`ParallelCutSink`] to the sequential [`CutSink`]
/// interface the bounded subroutines expect — the glue between one
/// worker's enumeration and the shared consumer.
pub struct SinkBridge<'a, K: ?Sized> {
    shared: &'a K,
    owner: EventId,
}

impl<'a, K: ParallelCutSink + ?Sized> SinkBridge<'a, K> {
    /// Bridges `shared` into a `CutSink` for the interval owned by `owner`.
    pub fn new(shared: &'a K, owner: EventId) -> Self {
        SinkBridge { shared, owner }
    }
}

impl<K: ParallelCutSink + ?Sized> CutSink for SinkBridge<'_, K> {
    #[inline]
    fn visit(&mut self, cut: CutRef<'_>) -> ControlFlow<()> {
        self.shared.visit(cut, self.owner)
    }
}

/// Wraps a sequential [`CutSink`], counting every delivery whose `visit`
/// *returned*. The count is kept in the wrapper and added to an external
/// atomic when the wrapper is dropped — on return or while a panic from
/// the inner sink unwinds through it — so it is visible behind the
/// `catch_unwind` boundary, which is what lets the engine know exactly
/// how many cuts of an interval the sink saw before a fault: a delivery
/// that panicked mid-visit is conservatively *not* counted. Nothing reads
/// the atomic while the wrapper lives, so the enumeration loop pays a
/// plain increment per cut instead of an atomic one.
pub struct MeteredSink<'a, S> {
    inner: S,
    delivered: u64,
    emitted: &'a AtomicU64,
}

impl<'a, S: CutSink> MeteredSink<'a, S> {
    /// Meters `inner`; dropping the meter adds its completed deliveries
    /// to `emitted`.
    pub fn new(inner: S, emitted: &'a AtomicU64) -> Self {
        MeteredSink {
            inner,
            delivered: 0,
            emitted,
        }
    }
}

impl<S: CutSink> CutSink for MeteredSink<'_, S> {
    #[inline]
    fn visit(&mut self, cut: CutRef<'_>) -> ControlFlow<()> {
        let flow = self.inner.visit(cut);
        self.delivered += 1;
        flow
    }
}

impl<S> Drop for MeteredSink<'_, S> {
    fn drop(&mut self) {
        self.emitted.fetch_add(self.delivered, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paramount_poset::Tid;
    use std::sync::atomic::AtomicUsize;

    fn g(counts: &[u32]) -> Frontier {
        Frontier::from_slice(counts)
    }

    fn owner() -> EventId {
        EventId::new(Tid(0), 1)
    }

    #[test]
    fn atomic_count_from_many_threads() {
        let sink = AtomicCountSink::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        let _ = sink.visit(g(&[1, 2]).as_cut(), owner());
                    }
                });
            }
        });
        assert_eq!(sink.count(), 4000);
    }

    #[test]
    fn concurrent_collect_gathers_everything() {
        let sink = ConcurrentCollectSink::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let sink = &sink;
                s.spawn(move || {
                    for k in 0..100 {
                        let _ = sink.visit(g(&[t, k]).as_cut(), owner());
                    }
                });
            }
        });
        assert_eq!(sink.len(), 400);
        assert!(!sink.is_empty());
        let cuts = sink.into_cuts();
        assert_eq!(cuts.len(), 400);
    }

    #[test]
    fn concurrent_collect_preserves_every_distinct_cut() {
        // Content integrity, not just a length check: every thread emits a
        // distinct set of frontiers and each one must come back intact —
        // no torn, duplicated, or lost pushes under contention.
        let sink = ConcurrentCollectSink::new();
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let sink = &sink;
                s.spawn(move || {
                    for k in 0..64 {
                        let _ = sink.visit(g(&[t + 1, k, t * 64 + k]).as_cut(), owner());
                    }
                });
            }
        });
        let mut cuts = sink.into_cuts();
        assert_eq!(cuts.len(), 8 * 64);
        cuts.sort_by_key(|c| c.get(Tid(2)));
        for (i, cut) in cuts.iter().enumerate() {
            let (t, k) = ((i / 64) as u32, (i % 64) as u32);
            assert_eq!(cut, &g(&[t + 1, k, t * 64 + k]), "cut {i} torn or lost");
        }
    }

    #[test]
    fn atomic_count_is_exact_through_concurrent_bridges() {
        // The real call path: each worker wraps the shared sink in its own
        // SinkBridge; the total must still be exact.
        let sink = AtomicCountSink::new();
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let sink = &sink;
                s.spawn(move || {
                    let mut bridge = SinkBridge::new(sink, EventId::new(Tid(t), 1));
                    for k in 0..500 {
                        let _ = bridge.visit(g(&[t, k]).as_cut());
                    }
                });
            }
        });
        assert_eq!(sink.count(), 8 * 500);
    }

    #[test]
    fn closure_sink_and_bridge() {
        let hits = AtomicUsize::new(0);
        let closure = |_: CutRef<'_>, _: EventId| {
            hits.fetch_add(1, Ordering::Relaxed);
            ControlFlow::Continue(())
        };
        let mut bridge = SinkBridge::new(&closure, owner());
        let _ = bridge.visit(g(&[0]).as_cut());
        let _ = bridge.visit(g(&[1]).as_cut());
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn break_propagates_through_bridge() {
        let closure = |_: CutRef<'_>, _: EventId| ControlFlow::Break(());
        let mut bridge = SinkBridge::new(&closure, owner());
        assert!(bridge.visit(g(&[0]).as_cut()).is_break());
    }

    #[test]
    fn take_cuts_reads_through_a_shared_handle() {
        let sink = std::sync::Arc::new(ConcurrentCollectSink::new());
        let _ = sink.visit(g(&[1, 0]).as_cut(), owner());
        let leaked = std::sync::Arc::clone(&sink); // a clone stays alive
        assert_eq!(sink.take_cuts().len(), 1);
        assert!(leaked.is_empty(), "take leaves the collector empty");
    }

    #[test]
    fn metered_sink_counts_only_completed_deliveries() {
        let emitted = AtomicU64::new(0);
        let mut seen = 0u32;
        let mut inner = |_: CutRef<'_>| {
            seen += 1;
            ControlFlow::Continue(())
        };
        {
            let mut metered = MeteredSink::new(&mut inner, &emitted);
            let _ = metered.visit(g(&[1]).as_cut());
            let _ = metered.visit(g(&[2]).as_cut());
        }
        assert_eq!(seen, 2);
        assert_eq!(emitted.load(Ordering::Relaxed), 2);
        // A panicking delivery must not be counted.
        let panicky = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut boom = |_: CutRef<'_>| -> ControlFlow<()> { panic!("boom") };
            let mut metered = MeteredSink::new(&mut boom, &emitted);
            let _ = metered.visit(g(&[3]).as_cut());
        }));
        assert!(panicky.is_err());
        assert_eq!(emitted.load(Ordering::Relaxed), 2);
    }
    #[test]
    fn metered_count_survives_the_unwind_at_any_prefix_length() {
        // The sink panics on its m-th visit; the m − 1 completed ones are
        // published by the drop guard while the panic unwinds through it.
        for m in [1u64, 2, 65] {
            let emitted = AtomicU64::new(0);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut visits = 0;
                let mut inner = |_: CutRef<'_>| {
                    visits += 1;
                    assert!(visits < m, "visit {m} panics");
                    ControlFlow::Continue(())
                };
                let mut metered = MeteredSink::new(&mut inner, &emitted);
                loop {
                    let _ = metered.visit(g(&[1]).as_cut());
                }
            }));
            assert!(unwound.is_err());
            assert_eq!(emitted.load(Ordering::Relaxed), m - 1, "m = {m}");
        }
    }
}
