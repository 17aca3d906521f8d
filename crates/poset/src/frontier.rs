use crate::{CutSpace, EventId};
use paramount_vclock::{Tid, VectorClock};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Threads covered without heap allocation. Every workload evaluated in the
/// paper runs on n ≤ 8 threads, and the hedc/elevator-scale traces reach
/// 9–16, so two cache lines of inline counts keep every cut an enumerator
/// materializes per visit allocation-free on all of them.
const INLINE_CAP: usize = 16;

/// Storage for the per-thread counts: a fixed inline buffer for n ≤
/// [`INLINE_CAP`], a boxed slice beyond. The width of a frontier is fixed at
/// construction, so the spilled form never needs to grow and a `Box<[u32]>`
/// (16 bytes) beats a `Vec` (24 bytes).
#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u32; INLINE_CAP] },
    Heap(Box<[u32]>),
}

/// A global state, identified by its frontier: per thread, the 1-based index
/// of the latest included event (0 = none).
///
/// This is the paper's `{i1, i2, …, in}` notation — e.g. `{1,0}` is the cut
/// containing only `e1[1]`. A frontier is *consistent* (a down-set of the
/// happened-before order) iff every included event's causal predecessors are
/// also included; [`Frontier::is_consistent`] checks exactly that using the
/// events' vector clocks.
///
/// Consistent cuts of a poset form a distributive lattice under the product
/// order [`Frontier::leq`]; componentwise min/max ([`Frontier::meet`] /
/// [`Frontier::join`]) are its lattice operations and preserve consistency.
///
/// Frontiers up to 16 threads wide are stored inline (no heap allocation):
/// cloning, [`Frontier::advanced`] and collection into sets are free of
/// allocator traffic on every paper workload. Wider frontiers spill to a
/// boxed slice transparently — all operations and orderings are defined on
/// the logical `&[u32]` slice regardless of representation.
///
/// ```
/// use paramount_poset::{Frontier, Tid};
///
/// let a = Frontier::from_counts(vec![2, 1]);
/// let b = Frontier::from_counts(vec![1, 3]);
/// assert!(!a.leq(&b) && !b.leq(&a));         // incomparable cuts...
/// assert_eq!(a.join(&b).as_slice(), &[2, 3]); // ...with a least upper bound
/// assert_eq!(a.meet(&b).as_slice(), &[1, 1]);
/// assert_eq!(a.to_string(), "{2,1}");
/// assert_eq!(a.get(Tid(0)), 2);
/// ```
#[derive(Clone)]
pub struct Frontier {
    repr: Repr,
}

/// A borrowed view of a cut — the argument type of the sink `visit`
/// methods.
///
/// Enumerators advance one scratch [`Frontier`] in place and hand sinks a
/// `CutRef` into it; a sink that retains the cut copies it explicitly with
/// [`CutRef::to_frontier`], and every other sink (counting, predicate
/// evaluation, wire encoding) reads it allocation-free. `CutRef` is `Copy`
/// and exposes the read-only half of the [`Frontier`] API.
#[derive(Clone, Copy)]
pub struct CutRef<'a> {
    counts: &'a [u32],
}

impl Frontier {
    /// The empty cut (no events on any thread).
    pub fn empty(n: usize) -> Self {
        Frontier::from_fn(n, |_| 0)
    }

    /// Builds a frontier from explicit per-thread counts.
    pub fn from_counts(counts: Vec<u32>) -> Self {
        if counts.len() <= INLINE_CAP {
            Self::from_slice(&counts)
        } else {
            Frontier {
                repr: Repr::Heap(counts.into_boxed_slice()),
            }
        }
    }

    /// Builds a frontier by copying a slice of per-thread counts.
    pub fn from_slice(counts: &[u32]) -> Self {
        if counts.len() <= INLINE_CAP {
            let mut buf = [0u32; INLINE_CAP];
            buf[..counts.len()].copy_from_slice(counts);
            Frontier {
                repr: Repr::Inline {
                    len: counts.len() as u8,
                    buf,
                },
            }
        } else {
            Frontier {
                repr: Repr::Heap(counts.into()),
            }
        }
    }

    /// Builds a frontier of width `n` from a per-thread function — the
    /// allocation-free analog of `from_counts((0..n).map(f).collect())`.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> u32) -> Self {
        if n <= INLINE_CAP {
            let mut buf = [0u32; INLINE_CAP];
            for (i, slot) in buf[..n].iter_mut().enumerate() {
                *slot = f(i);
            }
            Frontier {
                repr: Repr::Inline { len: n as u8, buf },
            }
        } else {
            Frontier {
                repr: Repr::Heap((0..n).map(f).collect()),
            }
        }
    }

    /// Reads a frontier straight out of a vector clock.
    ///
    /// For an event `e`, `Frontier::from_clock(&e.vc)` is `Gmin(e)` — the
    /// least consistent cut containing `e` (§2.2 of the paper).
    pub fn from_clock(vc: &VectorClock) -> Self {
        match vc.view() {
            paramount_vclock::ClockRef::Dense(c) => Self::from_slice(c),
            sparse => {
                let mut g = Frontier::empty(sparse.len());
                for (j, v) in sparse.iter_nonzero() {
                    g.as_mut_slice()[j] = v;
                }
                g
            }
        }
    }

    /// True when this frontier's width fits the inline buffer (n ≤ 16): no
    /// heap allocation backs it, and neither will any clone of it.
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// A borrowed [`CutRef`] view of this frontier.
    #[inline]
    pub fn as_cut(&self) -> CutRef<'_> {
        CutRef {
            counts: self.as_slice(),
        }
    }

    /// Number of threads the frontier spans.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(b) => b.len(),
        }
    }

    /// True for a zero-width frontier.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Count for thread `t` (0 = no event of `t` included).
    #[inline]
    pub fn get(&self, t: Tid) -> u32 {
        self.as_slice()[t.index()]
    }

    /// Sets the count for thread `t`.
    #[inline]
    pub fn set(&mut self, t: Tid, count: u32) {
        self.as_mut_slice()[t.index()] = count;
    }

    /// Raw per-thread counts (thread id is the index).
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    /// Raw per-thread counts, writable: the width is fixed, the counts are
    /// the caller's to keep meaningful (an enumerator's scratch frontier
    /// writes a whole suffix through this in one borrow).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u32] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(b) => b,
        }
    }

    /// The frontier event of thread `t`, i.e. the paper's `G[i]`;
    /// `None` when the cut contains no event of `t`.
    pub fn frontier_event(&self, t: Tid) -> Option<EventId> {
        self.as_cut().frontier_event(t)
    }

    /// Iterates over all frontier events (threads with at least one event).
    pub fn frontier_events(&self) -> impl Iterator<Item = EventId> + '_ {
        self.as_cut().into_frontier_events()
    }

    /// Total number of events in the cut.
    pub fn total_events(&self) -> u64 {
        self.as_cut().total_events()
    }

    /// Does the cut contain the given event?
    #[inline]
    pub fn contains(&self, e: EventId) -> bool {
        self.as_cut().contains(e)
    }

    /// Product order `self ≤ other`: every component ≤ (the comparison the
    /// paper uses to define intervals `Gmin(e) ≤ G ≤ Gbnd(e)`).
    pub fn leq(&self, other: &Frontier) -> bool {
        self.as_cut().leq(other.as_cut())
    }

    /// Lattice join: componentwise max. The join of two consistent cuts is
    /// consistent (union of down-sets).
    pub fn join(&self, other: &Frontier) -> Frontier {
        debug_assert_eq!(self.len(), other.len(), "frontier width mismatch");
        let (a, b) = (self.as_slice(), other.as_slice());
        Frontier::from_fn(a.len(), |i| a[i].max(b[i]))
    }

    /// Lattice meet: componentwise min (intersection of down-sets).
    pub fn meet(&self, other: &Frontier) -> Frontier {
        debug_assert_eq!(self.len(), other.len(), "frontier width mismatch");
        let (a, b) = (self.as_slice(), other.as_slice());
        Frontier::from_fn(a.len(), |i| a[i].min(b[i]))
    }

    /// Raises `self` to the componentwise max with `other` in place.
    pub fn join_assign(&mut self, other: &Frontier) {
        debug_assert_eq!(self.len(), other.len(), "frontier width mismatch");
        let other = other.as_slice();
        for (a, b) in self.as_mut_slice().iter_mut().zip(other) {
            if *b > *a {
                *a = *b;
            }
        }
    }

    /// Consistency check: the cut is a down-set of happened-before.
    ///
    /// Using the vector-clock encoding it suffices to check, for each
    /// thread `i` with `G[i] ≥ 1`, that the frontier event `E_i[G[i]]`'s
    /// clock is dominated by `G` — the event's clock *is* its causal
    /// history, so domination means every predecessor is included.
    pub fn is_consistent<S: CutSpace + ?Sized>(&self, space: &S) -> bool {
        self.as_cut().is_consistent(space)
    }

    /// Is event `e` *enabled* at this cut — i.e. is `self` extended with `e`
    /// still consistent? Requires `e` to be the next event of its thread.
    pub fn enables<S: CutSpace + ?Sized>(&self, space: &S, e: EventId) -> bool {
        self.as_cut().enables(space, e)
    }

    /// The cut obtained by executing one more event of thread `t`.
    pub fn advanced(&self, t: Tid) -> Frontier {
        let mut next = self.clone();
        next.as_mut_slice()[t.index()] += 1;
        next
    }
}

impl<'a> CutRef<'a> {
    /// Wraps a raw count slice (thread id is the index).
    #[inline]
    pub fn new(counts: &'a [u32]) -> Self {
        CutRef { counts }
    }

    /// Copies the cut into an owned [`Frontier`] — the one place a
    /// retaining sink pays for storage.
    #[inline]
    pub fn to_frontier(self) -> Frontier {
        Frontier::from_slice(self.counts)
    }

    /// Number of threads the cut spans.
    #[inline]
    pub fn len(self) -> usize {
        self.counts.len()
    }

    /// True for a zero-width cut.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.counts.is_empty()
    }

    /// Count for thread `t` (0 = no event of `t` included).
    #[inline]
    pub fn get(self, t: Tid) -> u32 {
        self.counts[t.index()]
    }

    /// Raw per-thread counts (thread id is the index).
    #[inline]
    pub fn as_slice(self) -> &'a [u32] {
        self.counts
    }

    /// The frontier event of thread `t`; `None` when the cut contains no
    /// event of `t`.
    pub fn frontier_event(self, t: Tid) -> Option<EventId> {
        match self.counts[t.index()] {
            0 => None,
            k => Some(EventId::new(t, k)),
        }
    }

    /// Iterates over all frontier events, consuming the (Copy) view —
    /// callers borrowing from a `Frontier` use
    /// [`Frontier::frontier_events`].
    pub fn into_frontier_events(self) -> impl Iterator<Item = EventId> + 'a {
        self.counts.iter().enumerate().filter_map(|(i, &k)| {
            if k == 0 {
                None
            } else {
                Some(EventId::new(Tid::from(i), k))
            }
        })
    }

    /// Total number of events in the cut.
    pub fn total_events(self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }

    /// Does the cut contain the given event?
    #[inline]
    pub fn contains(self, e: EventId) -> bool {
        e.index <= self.counts[e.tid.index()]
    }

    /// Product order `self ≤ other`: every component ≤.
    pub fn leq(self, other: CutRef<'_>) -> bool {
        debug_assert_eq!(self.len(), other.len(), "frontier width mismatch");
        self.counts.iter().zip(other.counts).all(|(a, b)| a <= b)
    }

    /// Consistency check — see [`Frontier::is_consistent`].
    pub fn is_consistent<S: CutSpace + ?Sized>(self, space: &S) -> bool {
        debug_assert_eq!(self.len(), space.num_threads(), "frontier width mismatch");
        self.into_frontier_events().all(|id| {
            // Zero clock components are satisfied by any cut, so only the
            // nonzero entries need checking — O(causal fan-in) for sparse
            // clocks instead of O(n).
            space
                .vc(id)
                .iter_nonzero()
                .all(|(j, need)| need <= self.counts[j])
        })
    }

    /// Is event `e` *enabled* at this cut — see [`Frontier::enables`].
    pub fn enables<S: CutSpace + ?Sized>(self, space: &S, e: EventId) -> bool {
        debug_assert_eq!(
            e.index,
            self.get(e.tid) + 1,
            "enables() is defined for the next event of its thread"
        );
        space.vc(e).iter_nonzero().all(|(j, need)| {
            if j == e.tid.index() {
                true // own component is e.index itself
            } else {
                need <= self.counts[j]
            }
        })
    }
}

impl<'a> From<&'a Frontier> for CutRef<'a> {
    #[inline]
    fn from(g: &'a Frontier) -> Self {
        g.as_cut()
    }
}

// Equality, hashing and ordering are defined on the logical count slice so
// that the two representations (and the garbage tail of the inline buffer)
// can never influence the result. Deriving them on the enum would order
// `Inline` before `Heap` and compare dead buffer slots.
impl PartialEq for Frontier {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Frontier {}

impl Hash for Frontier {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for Frontier {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Frontier {
    /// Lexicographic order of the count vectors — the emission order of the
    /// lexical enumerator (for equal widths).
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialEq for CutRef<'_> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts
    }
}

impl Eq for CutRef<'_> {}

impl PartialEq<Frontier> for CutRef<'_> {
    #[inline]
    fn eq(&self, other: &Frontier) -> bool {
        self.counts == other.as_slice()
    }
}

impl PartialEq<CutRef<'_>> for Frontier {
    #[inline]
    fn eq(&self, other: &CutRef<'_>) -> bool {
        self.as_slice() == other.counts
    }
}

fn fmt_counts(counts: &[u32], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    // Paper notation: {1,0}.
    write!(f, "{{")?;
    for (i, c) in counts.iter().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "{c}")?;
    }
    write!(f, "}}")
}

impl fmt::Debug for Frontier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{:?}", self.as_slice())
    }
}

impl fmt::Display for Frontier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_counts(self.as_slice(), f)
    }
}

impl fmt::Debug for CutRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{:?}", self.counts)
    }
}

impl fmt::Display for CutRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_counts(self.counts, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PosetBuilder;
    use crate::Poset;

    /// The poset of Figure 4(a): two threads, two events each, with
    /// `e2[1] → e1[2]` and `e1[1] → e2[2]` (cross dependencies).
    fn figure4_poset() -> Poset {
        let mut b = PosetBuilder::new(2);
        let e1_1 = b.append(Tid(0), ());
        let e2_1 = b.append(Tid(1), ());
        b.append_after(Tid(0), &[e2_1], ());
        b.append_after(Tid(1), &[e1_1], ());
        b.finish()
    }

    #[test]
    fn paper_figure_4_consistency() {
        let p = figure4_poset();
        // G1 = {1,0} and G2 = {1,2} are consistent; G3 = {2,0} is not
        // (it misses e2[1] → e1[2]).
        assert!(Frontier::from_counts(vec![1, 0]).is_consistent(&p));
        assert!(Frontier::from_counts(vec![1, 2]).is_consistent(&p));
        assert!(!Frontier::from_counts(vec![2, 0]).is_consistent(&p));
        assert!(!Frontier::from_counts(vec![0, 2]).is_consistent(&p));
    }

    #[test]
    fn empty_cut_is_always_consistent() {
        let p = figure4_poset();
        assert!(Frontier::empty(2).is_consistent(&p));
    }

    #[test]
    fn contains_and_frontier_events() {
        let g = Frontier::from_counts(vec![2, 0, 1]);
        assert!(g.contains(EventId::new(Tid(0), 1)));
        assert!(g.contains(EventId::new(Tid(0), 2)));
        assert!(!g.contains(EventId::new(Tid(0), 3)));
        assert!(!g.contains(EventId::new(Tid(1), 1)));
        let fe: Vec<EventId> = g.frontier_events().collect();
        assert_eq!(fe, vec![EventId::new(Tid(0), 2), EventId::new(Tid(2), 1)]);
        assert_eq!(g.total_events(), 3);
    }

    #[test]
    fn product_order_and_lattice_ops() {
        let a = Frontier::from_counts(vec![1, 2]);
        let b = Frontier::from_counts(vec![2, 1]);
        assert!(!a.leq(&b));
        assert!(!b.leq(&a));
        assert_eq!(a.join(&b).as_slice(), &[2, 2]);
        assert_eq!(a.meet(&b).as_slice(), &[1, 1]);
        assert!(a.meet(&b).leq(&a));
        assert!(a.leq(&a.join(&b)));
    }

    #[test]
    fn join_of_consistent_cuts_is_consistent() {
        let p = figure4_poset();
        let a = Frontier::from_counts(vec![2, 1]); // needs e2[1]: ok
        let b = Frontier::from_counts(vec![1, 2]);
        assert!(a.is_consistent(&p));
        assert!(b.is_consistent(&p));
        assert!(a.join(&b).is_consistent(&p));
        assert!(a.meet(&b).is_consistent(&p));
    }

    #[test]
    fn enables_respects_cross_dependencies() {
        let p = figure4_poset();
        let g = Frontier::from_counts(vec![1, 0]);
        // e1[2] needs e2[1]; e2[1] needs nothing beyond e1[0].
        assert!(!g.enables(&p, EventId::new(Tid(0), 2)));
        assert!(g.enables(&p, EventId::new(Tid(1), 1)));
        let g2 = g.advanced(Tid(1));
        assert!(g2.enables(&p, EventId::new(Tid(0), 2)));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Frontier::from_counts(vec![1, 0]).to_string(), "{1,0}");
        assert_eq!(Frontier::empty(3).to_string(), "{0,0,0}");
    }

    #[test]
    fn from_clock_is_gmin() {
        let p = figure4_poset();
        // Gmin(e1[2]) = e1[2].vc = [2,1].
        let id = EventId::new(Tid(0), 2);
        let gmin = Frontier::from_clock(p.vc(id));
        assert_eq!(gmin.as_slice(), &[2, 1]);
        assert!(gmin.is_consistent(&p));
        assert!(gmin.contains(id));
    }

    #[test]
    fn narrow_frontiers_are_inline_wide_ones_spill() {
        assert!(Frontier::empty(16).is_inline());
        assert!(!Frontier::empty(17).is_inline());
        let widths = [0usize, 1, 7, 8, 9, 15, 16, 17, 32];
        for n in widths {
            let g = Frontier::from_fn(n, |i| i as u32);
            assert_eq!(g.len(), n);
            assert_eq!(g.is_inline(), n <= 16);
            let clone = g.clone();
            assert_eq!(clone, g);
            assert_eq!(clone.is_inline(), g.is_inline());
        }
    }

    #[test]
    fn semantics_agree_across_representations() {
        // The same logical operations at an inline width and a spilled
        // width — representation must be unobservable.
        for n in [4usize, 12] {
            let a = Frontier::from_fn(n, |i| (i as u32) % 3);
            let b = Frontier::from_fn(n, |i| 2 - (i as u32) % 3);
            assert_eq!(a.join(&b).len(), n);
            assert!(a.meet(&b).leq(&a) && a.meet(&b).leq(&b));
            assert!(a.leq(&a.join(&b)) && b.leq(&a.join(&b)));
            let mut j = a.clone();
            j.join_assign(&b);
            assert_eq!(j, a.join(&b));
            let t = Tid(n as u32 - 1);
            assert_eq!(a.advanced(t).get(t), a.get(t) + 1);
        }
    }

    #[test]
    fn equality_hash_and_order_use_the_logical_slice() {
        use std::collections::hash_map::DefaultHasher;
        // Two routes to the same logical value (tail garbage would differ).
        let mut a = Frontier::from_counts(vec![5, 5, 5]);
        a.set(Tid(2), 1);
        let b = Frontier::from_counts(vec![5, 5, 1]);
        assert_eq!(a, b);
        let hash = |g: &Frontier| {
            let mut h = DefaultHasher::new();
            g.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        assert!(Frontier::from_counts(vec![1, 9]) < Frontier::from_counts(vec![2, 0]));
        assert!(Frontier::from_fn(12, |_| 1) < Frontier::from_fn(12, |i| 1 + (i / 11) as u32));
    }

    #[test]
    fn cut_ref_views_match_the_frontier() {
        let g = Frontier::from_counts(vec![2, 0, 1]);
        let c = g.as_cut();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(Tid(0)), 2);
        assert_eq!(c.total_events(), 3);
        assert!(c.contains(EventId::new(Tid(2), 1)));
        assert_eq!(c.frontier_event(Tid(1)), None);
        assert_eq!(c.to_string(), g.to_string());
        assert_eq!(format!("{c:?}"), format!("{g:?}"));
        assert_eq!(c.to_frontier(), g);
        assert!(c == g);
        let h = Frontier::from_counts(vec![2, 1, 1]);
        assert!(c.leq(h.as_cut()) && !h.as_cut().leq(c));
        let p = figure4_poset();
        let g = Frontier::from_counts(vec![1, 0]);
        assert!(g.as_cut().is_consistent(&p));
        assert!(g.as_cut().enables(&p, EventId::new(Tid(1), 1)));
    }
}
