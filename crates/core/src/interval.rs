//! The interval partition of the cut lattice (§3.1, Definitions 1–2).

use paramount_enumerate::{Algorithm, CutSink, EnumError, EnumStats};
use paramount_poset::{CutSpace, EventId, Frontier};
use std::ops::ControlFlow;

/// The enumeration interval `I(e)` of one event (Definition 2).
///
/// Contains every consistent cut `G` with `gmin ≤ G ≤ gbnd`. The first
/// event in the total order `→p` additionally owns the empty cut
/// (`include_empty`), which no `Gmin(e)` can reach since every `Gmin`
/// contains its event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interval {
    /// The event this interval belongs to.
    pub event: EventId,
    /// `Gmin(e) = e.vc` — the least cut containing `e`.
    pub gmin: Frontier,
    /// `Gbnd(e)` — the cut of everything at or before `e` in `→p`
    /// (offline), or the insertion-time snapshot of maximal events
    /// (online); consistent by Theorem 1.
    pub gbnd: Frontier,
    /// True only for the first event of `→p`: its worker also emits the
    /// empty cut.
    pub include_empty: bool,
}

impl Interval {
    /// Enumerates exactly the cuts of this interval into `sink`, using the
    /// given bounded subroutine (Lemma 1: each cut exactly once).
    pub fn enumerate<Sp, S>(
        &self,
        space: &Sp,
        algorithm: Algorithm,
        sink: &mut S,
    ) -> Result<EnumStats, EnumError>
    where
        Sp: CutSpace + ?Sized,
        S: CutSink,
    {
        self.enumerate_budgeted(space, algorithm, None, sink)
    }

    /// As [`Interval::enumerate`], with a frontier budget for the stateful
    /// subroutines. This is the one place the empty-cut special case (the
    /// first event of `→p` also owns `{0,…,0}`) is handled; both execution
    /// engines route every interval through here.
    pub fn enumerate_budgeted<Sp, S>(
        &self,
        space: &Sp,
        algorithm: Algorithm,
        frontier_budget: Option<usize>,
        sink: &mut S,
    ) -> Result<EnumStats, EnumError>
    where
        Sp: CutSpace + ?Sized,
        S: CutSink,
    {
        let mut extra = 0;
        if self.include_empty {
            let empty = Frontier::empty(space.num_threads());
            if sink.visit(empty.as_cut()).is_break() {
                return Err(EnumError::Stopped);
            }
            extra = 1;
        }
        let mut stats =
            algorithm.run_bounded_budgeted(space, &self.gmin, &self.gbnd, frontier_budget, sink)?;
        stats.cuts += extra;
        Ok(stats)
    }

    /// Number of *potential* cuts in the bounding box `[gmin, gbnd]` —
    /// an upper bound on the interval's true size, used for scheduling
    /// heuristics and reporting.
    pub fn box_size(&self) -> u128 {
        self.gmin
            .as_slice()
            .iter()
            .zip(self.gbnd.as_slice())
            .map(|(&lo, &hi)| (hi - lo) as u128 + 1)
            .product()
    }

    /// Does the interval contain the cut (by bounds alone)?
    pub fn contains(&self, g: &Frontier) -> bool {
        self.gmin.leq(g) && g.leq(&self.gbnd)
    }

    /// Splits the interval into two sub-intervals that partition its cut
    /// set — the preemption primitive of the overload governor: a hung
    /// interval whose worker delivered nothing yet is split and both
    /// halves rescheduled independently.
    ///
    /// The cut is made along the widest dimension `t` (the owner thread
    /// always has width 0 — `Gmin(e)[e.tid] = Gbnd(e)[e.tid] = e.index` by
    /// Definitions 1–2 — so `t` is never the owner) at a midpoint `m`:
    ///
    /// * **lower half** `[gmin, down(b)]` where `b` is `gbnd` with
    ///   component `t` lowered to `m`, and `down(b)` is the *maximum*
    ///   consistent cut `≤ b`, computed by the standard iterated-decrement
    ///   fixpoint (drop any frontier event whose causal history escapes
    ///   `b`; every consistent cut `≤ b` survives each step, so the
    ///   fixpoint dominates them all — in particular `gmin`).
    /// * **upper half** `[gmin ∨ Gmin(e_t[m+1]), gbnd]` — raising the
    ///   floor to the least consistent cut containing the pivot event.
    ///   The join of consistent cuts is consistent, and it stays `≤ gbnd`
    ///   because `gbnd` is a consistent cut containing the pivot.
    ///
    /// Every cut of the interval lands in exactly one half (`G[t] ≤ m` ⟹
    /// lower by maximality of `down(b)`; `G[t] > m` ⟹ `G` contains the
    /// pivot, hence dominates its clock, hence the upper floor), both
    /// halves keep consistent bounds as the bounded subroutines require,
    /// and both bounding boxes are strictly smaller, so recursive
    /// splitting terminates. The empty-cut flag rides with the lower half
    /// (which retains `gmin`); both halves keep the owning event, so the
    /// packed-descriptor invariant `gmin[e.tid] = e.index` is preserved.
    ///
    /// Returns `None` when every dimension has width 0 — a single-cut box
    /// that cannot be subdivided.
    pub fn split<Sp: CutSpace + ?Sized>(&self, space: &Sp) -> Option<(Interval, Interval)> {
        let n = self.gmin.len();
        let widths = |i: usize| {
            let t = paramount_poset::Tid::from(i);
            self.gbnd.get(t) - self.gmin.get(t)
        };
        let t = paramount_poset::Tid::from((0..n).max_by_key(|&i| widths(i))?);
        let width = self.gbnd.get(t) - self.gmin.get(t);
        if width == 0 {
            return None;
        }
        let mid = self.gmin.get(t) + (width - 1) / 2;

        let pivot = EventId::new(t, mid + 1);
        let gmin_hi = self.gmin.join(&Frontier::from_clock(space.vc(pivot)));

        let mut gbnd_lo = self.gbnd.clone();
        gbnd_lo.set(t, mid);
        max_consistent_below(space, &mut gbnd_lo);

        debug_assert!(gmin_hi.is_consistent(space), "upper floor inconsistent");
        debug_assert!(gmin_hi.leq(&self.gbnd), "upper floor escaped gbnd");
        debug_assert!(self.gmin.leq(&gbnd_lo), "lower ceiling dropped below gmin");
        debug_assert_eq!(gbnd_lo.get(self.event.tid), self.event.index);

        let lower = Interval {
            event: self.event,
            gmin: self.gmin.clone(),
            gbnd: gbnd_lo,
            include_empty: self.include_empty,
        };
        let upper = Interval {
            event: self.event,
            gmin: gmin_hi,
            gbnd: self.gbnd.clone(),
            include_empty: false,
        };
        Some((lower, upper))
    }

    /// Serializes this interval into a compact delta-coded byte form:
    /// LEB128 varints for the owner thread and each `gmin[t]`, with
    /// `gbnd[t]` stored as its (non-negative, usually tiny) delta above
    /// `gmin[t]`. The owner's index is not stored — `Gmin(e)[e.tid] =
    /// e.index` by definition, so decoding recovers it for free.
    ///
    /// On hot traces the bounds of an interval hug each other (`Gbnd` is
    /// the insertion-time snapshot, `Gmin` the event's own clock), so the
    /// encoding shrinks a descriptor to a handful of bytes — the backing
    /// format of [`crate::store::PackedIntervalQueue`], which keeps the
    /// spill path's unbounded buffer compact.
    pub fn pack_into(&self, out: &mut Vec<u8>) {
        debug_assert_eq!(self.gmin.len(), self.gbnd.len());
        debug_assert_eq!(
            self.gmin.get(self.event.tid),
            self.event.index,
            "Gmin must contain its own event at its thread"
        );
        push_varint(out, self.event.tid.0);
        out.push(u8::from(self.include_empty));
        for (&lo, &hi) in self.gmin.as_slice().iter().zip(self.gbnd.as_slice()) {
            debug_assert!(lo <= hi, "interval bounds inverted");
            push_varint(out, lo);
            push_varint(out, hi - lo);
        }
    }

    /// Decodes one interval of width `n` from a byte stream produced by
    /// [`Interval::pack_into`]. Returns `None` on a truncated stream.
    pub fn unpack(bytes: &mut impl Iterator<Item = u8>, n: usize) -> Option<Interval> {
        let tid = paramount_poset::Tid(read_varint(bytes)?);
        let include_empty = bytes.next()? != 0;
        let mut gmin = Frontier::empty(n);
        let mut gbnd = Frontier::empty(n);
        for t in 0..n {
            let lo = read_varint(bytes)?;
            let delta = read_varint(bytes)?;
            gmin.set(paramount_poset::Tid::from(t), lo);
            gbnd.set(paramount_poset::Tid::from(t), lo + delta);
        }
        let event = EventId::new(tid, gmin.get(tid));
        Some(Interval {
            event,
            gmin,
            gbnd,
            include_empty,
        })
    }
}

/// Lowers `g` in place to the maximum consistent cut `≤ g`: repeatedly
/// drop any frontier event whose vector clock is not dominated by `g`.
/// Any consistent cut `c ≤ g` survives every step (if `c[j] = g[j]` the
/// frontier event's history is inside `c ⊆ g`, so it is not dropped), so
/// the fixpoint — which is consistent by construction and reached because
/// components only decrease — dominates them all.
fn max_consistent_below<Sp: CutSpace + ?Sized>(space: &Sp, g: &mut Frontier) {
    let n = g.len();
    loop {
        let mut changed = false;
        for j in 0..n {
            let t = paramount_poset::Tid::from(j);
            let k = g.get(t);
            if k == 0 {
                continue;
            }
            let dominated = space
                .vc(EventId::new(t, k))
                .iter_nonzero()
                .all(|(j, need)| need <= g.as_slice()[j]);
            if !dominated {
                g.set(t, k - 1);
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// LEB128: 7 payload bits per byte, high bit = continuation. The
/// implementation lives in `paramount-durable` (shared with the WAL
/// record framing, so descriptors and durable records speak one codec).
use paramount_durable::varint::{push_u32 as push_varint, read_u32 as read_varint};

/// Computes the interval partition for a complete space under the given
/// total order `→p` (which must be a linear extension — see
/// [`paramount_poset::topo`]).
///
/// Walking `→p` with a running frontier gives each `Gbnd(e)` in `O(1)`
/// amortized: `Gbnd` of the `i`-th event is the running frontier after
/// raising the event's own thread — precisely "`e` plus everything
/// `→p`-before `e`" (Definition 1).
pub fn partition<Sp: CutSpace + ?Sized>(space: &Sp, order: &[EventId]) -> Vec<Interval> {
    let n = space.num_threads();
    let mut running = Frontier::empty(n);
    order
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            debug_assert_eq!(
                e.index,
                running.get(e.tid) + 1,
                "order is not a linear extension (thread sequence broken)"
            );
            running.set(e.tid, e.index);
            Interval {
                event: e,
                gmin: Frontier::from_clock(space.vc(e)),
                gbnd: running.clone(),
                include_empty: i == 0,
            }
        })
        .collect()
}

/// [`partition`], delta-coded: streams each interval straight into a
/// [`PackedIntervalQueue`](crate::store::PackedIntervalQueue) instead of
/// materializing the whole `Vec<Interval>`. Each interval lives as two
/// `Frontier`s only for the instant it takes to pack; the resident
/// representation is one contiguous varint-delta byte buffer, which for
/// wide posets (n > the inline-frontier width) replaces the partition's
/// two heap vectors per event. The offline engine drains it in bounded
/// chunks (see `ParaMount::enumerate_packed`).
pub fn partition_packed<Sp: CutSpace + ?Sized>(
    space: &Sp,
    order: &[EventId],
) -> crate::store::PackedIntervalQueue {
    let n = space.num_threads();
    let mut running = Frontier::empty(n);
    let mut queue = crate::store::PackedIntervalQueue::new(n);
    for (i, &e) in order.iter().enumerate() {
        debug_assert_eq!(
            e.index,
            running.get(e.tid) + 1,
            "order is not a linear extension (thread sequence broken)"
        );
        running.set(e.tid, e.index);
        queue.push_back(&Interval {
            event: e,
            gmin: Frontier::from_clock(space.vc(e)),
            gbnd: running.clone(),
            include_empty: i == 0,
        });
    }
    queue
}

/// Exact per-interval work: the number of consistent cuts in each
/// interval, measured with the stateless lexical subroutine.
///
/// This is the input to load-balance analysis (the simulated-makespan
/// speedup model in the benchmark harness) and sums to `i(P)` minus the
/// empty cut.
pub fn measure_interval_work<Sp: CutSpace + ?Sized>(
    space: &Sp,
    intervals: &[Interval],
) -> Vec<u64> {
    intervals
        .iter()
        .map(|iv| {
            let mut sink = paramount_enumerate::CountSink::default();
            paramount_enumerate::lexical::enumerate_bounded(space, &iv.gmin, &iv.gbnd, &mut sink)
                .expect("lexical is stateless");
            sink.count + u64::from(iv.include_empty)
        })
        .collect()
}

/// A [`CutSink`] that asserts every visited cut lies inside an interval —
/// test helper for the subroutine contract.
pub struct BoundsCheckSink<'a, S> {
    interval: &'a Interval,
    inner: &'a mut S,
}

impl<'a, S: CutSink> BoundsCheckSink<'a, S> {
    /// Wraps `inner`, checking each cut against `interval`'s bounds.
    pub fn new(interval: &'a Interval, inner: &'a mut S) -> Self {
        BoundsCheckSink { interval, inner }
    }
}

impl<S: CutSink> CutSink for BoundsCheckSink<'_, S> {
    fn visit(&mut self, cut: paramount_poset::CutRef<'_>) -> ControlFlow<()> {
        assert!(
            cut.total_events() == 0 || self.interval.contains(&cut.to_frontier()),
            "cut {cut} escaped interval of {}",
            self.interval.event
        );
        self.inner.visit(cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paramount_poset::builder::PosetBuilder;
    use paramount_poset::random::RandomComputation;
    use paramount_poset::{oracle, topo, Poset, Tid};
    use std::collections::HashMap;

    fn figure4() -> Poset {
        let mut b = PosetBuilder::new(2);
        let a = b.append(Tid(0), ());
        let bb = b.append(Tid(1), ());
        b.append_after(Tid(0), &[bb], ());
        b.append_after(Tid(1), &[a], ());
        b.finish()
    }

    /// The →p order of Figures 5–6: e1[1], e2[1], e1[2], e2[2].
    fn figure5_order() -> Vec<EventId> {
        vec![
            EventId::new(Tid(0), 1),
            EventId::new(Tid(1), 1),
            EventId::new(Tid(0), 2),
            EventId::new(Tid(1), 2),
        ]
    }

    #[test]
    fn figure5_gbnd_values() {
        let p = figure4();
        let ivs = partition(&p, &figure5_order());
        let gbnds: Vec<&[u32]> = ivs.iter().map(|iv| iv.gbnd.as_slice()).collect();
        // Gbnd(e1[1]) = {1,0}, Gbnd(e2[1]) = {1,1}, Gbnd(e1[2]) = {2,1},
        // Gbnd(e2[2]) = {2,2} — exactly Figure 5.
        assert_eq!(gbnds, vec![&[1, 0][..], &[1, 1], &[2, 1], &[2, 2]]);
        assert!(ivs[0].include_empty);
        assert!(!ivs[1].include_empty);
    }

    #[test]
    fn theorem1_gbnd_is_consistent() {
        for seed in 0..20 {
            let p = RandomComputation::new(4, 5, 0.4, seed).generate();
            for order in [topo::weight_order(&p), topo::kahn_order(&p)] {
                for iv in partition(&p, &order) {
                    assert!(iv.gbnd.is_consistent(&p), "seed {seed}");
                    assert!(iv.gmin.is_consistent(&p), "seed {seed}");
                    assert!(iv.gmin.leq(&iv.gbnd), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn lemmas_2_and_3_partition_covers_disjointly() {
        // Every consistent cut belongs to exactly one interval.
        for seed in 0..20 {
            let p = RandomComputation::new(3, 5, 0.4, seed).generate();
            let order = topo::weight_order(&p);
            let ivs = partition(&p, &order);
            for g in oracle::enumerate_product_scan(&p) {
                let owners: Vec<EventId> = ivs
                    .iter()
                    .filter(|iv| iv.contains(&g))
                    .map(|iv| iv.event)
                    .collect();
                if g.total_events() == 0 {
                    // Empty cut: owned via include_empty, not bounds.
                    assert!(owners.is_empty(), "seed {seed}: empty cut in an interval");
                } else {
                    assert_eq!(owners.len(), 1, "seed {seed}: cut {g} owned by {owners:?}");
                    // Lemma 2's witness: the owner is the →p-last event in G.
                    let pos: HashMap<EventId, usize> =
                        order.iter().enumerate().map(|(i, &e)| (e, i)).collect();
                    let last = g
                        .frontier_events()
                        .flat_map(|fe| (1..=fe.index).map(move |k| EventId::new(fe.tid, k)))
                        .max_by_key(|e| pos[e])
                        .expect("non-empty cut");
                    assert_eq!(owners[0], last, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn theorem2_intervals_enumerate_each_cut_exactly_once() {
        use paramount_enumerate::CollectSink;
        for seed in 0..15 {
            let p = RandomComputation::new(3, 4, 0.5, seed).generate();
            let order = topo::kahn_order(&p);
            for algo in Algorithm::ALL {
                let mut all = Vec::new();
                for iv in partition(&p, &order) {
                    let mut sink = CollectSink::default();
                    let mut checked = BoundsCheckSink::new(&iv, &mut sink);
                    iv.enumerate(&p, algo, &mut checked).unwrap();
                    all.extend(sink.cuts);
                }
                assert_eq!(
                    oracle::canonicalize(all),
                    oracle::enumerate_product_scan(&p),
                    "algo {algo:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn measured_work_sums_to_lattice_size() {
        for seed in 0..8 {
            let p = RandomComputation::new(3, 4, 0.4, seed).generate();
            let order = topo::weight_order(&p);
            let intervals = partition(&p, &order);
            let work = measure_interval_work(&p, &intervals);
            let total: u64 = work.iter().sum();
            assert_eq!(total, oracle::count_ideals(&p), "seed {seed}");
        }
    }

    #[test]
    fn box_size_upper_bounds() {
        let p = figure4();
        let ivs = partition(&p, &figure5_order());
        // I(e2[2]) spans {1,2}..{2,2}: box = 2×1.
        assert_eq!(ivs[3].box_size(), 2);
        assert_eq!(ivs[0].box_size(), 1);
    }

    #[test]
    fn packed_descriptors_round_trip() {
        for seed in 0..10 {
            let p = RandomComputation::new(5, 6, 0.4, seed).generate();
            let order = topo::weight_order(&p);
            let ivs = partition(&p, &order);
            let mut buf = Vec::new();
            for iv in &ivs {
                iv.pack_into(&mut buf);
            }
            let mut bytes = buf.iter().copied();
            for iv in &ivs {
                let got = Interval::unpack(&mut bytes, p.num_threads()).expect("decode");
                assert_eq!(&got, iv, "seed {seed}");
            }
            assert!(bytes.next().is_none(), "trailing bytes after decode");
        }
    }

    #[test]
    fn packed_descriptors_are_compact_and_reject_truncation() {
        let p = figure4();
        let ivs = partition(&p, &figure5_order());
        let mut buf = Vec::new();
        ivs[3].pack_into(&mut buf);
        // tid + flag + 2 × (varint gmin, varint delta): 6 single-byte
        // varints for Figure 4's small counts.
        assert_eq!(buf.len(), 6);
        for cutoff in 0..buf.len() {
            let mut short = buf[..cutoff].iter().copied();
            assert!(Interval::unpack(&mut short, 2).is_none(), "cutoff {cutoff}");
        }
    }

    /// Enumerates one interval with the lexical subroutine, bounds-checked.
    fn collect_cuts(p: &Poset, iv: &Interval) -> Vec<Frontier> {
        use paramount_enumerate::CollectSink;
        let mut sink = CollectSink::default();
        let mut checked = BoundsCheckSink::new(iv, &mut sink);
        iv.enumerate(p, Algorithm::Lexical, &mut checked).unwrap();
        sink.cuts
    }

    #[test]
    fn split_halves_partition_the_interval_exactly() {
        for seed in 0..15 {
            let p = RandomComputation::new(3, 5, 0.4, seed).generate();
            let order = topo::weight_order(&p);
            for iv in partition(&p, &order) {
                let Some((lo, hi)) = iv.split(&p) else {
                    assert_eq!(iv.box_size(), 1, "seed {seed}: unsplittable wide box");
                    continue;
                };
                assert!(lo.box_size() < iv.box_size(), "seed {seed}");
                assert!(hi.box_size() < iv.box_size(), "seed {seed}");
                let mut halves = collect_cuts(&p, &lo);
                halves.extend(collect_cuts(&p, &hi));
                halves.sort();
                let mut whole = collect_cuts(&p, &iv);
                whole.sort();
                // Sorted with duplicates kept: catches both a missed cut
                // (cover violation) and a double-delivered one (overlap).
                assert_eq!(halves, whole, "seed {seed} event {}", iv.event);
            }
        }
    }

    #[test]
    fn recursive_splitting_terminates_and_loses_nothing() {
        for (threads, events, seed) in [(2, 6, 1u64), (4, 4, 7), (10, 2, 3)] {
            let p = RandomComputation::new(threads, events, 0.3, seed).generate();
            let order = topo::kahn_order(&p);
            for iv in partition(&p, &order) {
                let mut work = vec![iv.clone()];
                let mut leaves = Vec::new();
                while let Some(next) = work.pop() {
                    match next.split(&p) {
                        Some((lo, hi)) => work.extend([lo, hi]),
                        None => leaves.push(next),
                    }
                }
                // Every leaf is a single-cut box; together they are the
                // interval, each cut exactly once.
                let mut from_leaves = Vec::new();
                for leaf in &leaves {
                    assert_eq!(leaf.box_size(), 1);
                    from_leaves.extend(collect_cuts(&p, leaf));
                }
                from_leaves.sort();
                let mut whole = collect_cuts(&p, &iv);
                whole.sort();
                assert_eq!(from_leaves, whole, "threads {threads} seed {seed}");
            }
        }
    }

    #[test]
    fn split_keeps_owner_dimension_and_empty_flag_on_lower_half() {
        let p = figure4();
        let ivs = partition(&p, &figure5_order());
        // I(e2[2]) spans {1,2}..{2,2}: splittable along thread 0.
        let (lo, hi) = ivs[3].split(&p).expect("width-1 box splits");
        assert_eq!(lo.event, ivs[3].event);
        assert_eq!(hi.event, ivs[3].event);
        assert_eq!(lo.gmin, ivs[3].gmin);
        assert_eq!(hi.gbnd, ivs[3].gbnd);
        assert!(!lo.include_empty && !hi.include_empty);
        // I(e1[1]) is a single cut: unsplittable.
        assert!(ivs[0].split(&p).is_none());
    }

    #[test]
    fn empty_cut_emitted_once_via_first_interval() {
        use paramount_enumerate::CollectSink;
        let p = figure4();
        let ivs = partition(&p, &figure5_order());
        let mut sink = CollectSink::default();
        ivs[0].enumerate(&p, Algorithm::Lexical, &mut sink).unwrap();
        assert_eq!(
            sink.cuts,
            vec![Frontier::empty(2), Frontier::from_counts(vec![1, 0])]
        );
    }
}
