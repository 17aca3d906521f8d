//! The Ganter/Garg lexical ("next-closure") enumeration — the paper's
//! Algorithm 2 in its bounded form.
//!
//! Cuts are visited in lexicographic order of their frontier vectors. The
//! walk holds exactly one current frontier (`peak_frontiers == 1`, the
//! memory baseline of Figure 12) plus `O(free²)` words of *floor scratch*,
//! where `free` counts the threads the interval leaves any room on
//! (`gbnd[i] > gmin[i]`). That is what makes it the subroutine of choice
//! for ParaMount ("L-Para").
//!
//! Successor computation (Algorithm 2 lines 5–14, de-compressed): from the
//! current cut `G`, scan positions `k = n…1` for the largest `k` such that
//!
//! 1. `G[k] < Gbnd[k]` — one more event of thread `k` stays in bounds, and
//! 2. the next event `f = E_k[G[k]+1]` needs nothing beyond `G` on threads
//!    `j < k` (`f.vc[j] ≤ G[j]`) — threads before `k` are frozen in a
//!    lexical step, while threads after `k` may be raised freely.
//!
//! The successor keeps `G[1..k-1]`, increments `G[k]`, and sets every later
//! component to the least value causality allows: the interval floor
//! `Gmin` joined with the vector clocks of the ≤ k frontier events. Both
//! are dominated by the consistent cut `Gbnd`, so the closure can never
//! escape the interval (the argument inside Theorem 1 / Lemma 1 of the
//! paper).
//!
//! # The floors are kept, not recomputed
//!
//! A lexical walk is an odometer: most steps land on the last threads and
//! leave the prefix, and therefore what the prefix demands, untouched.
//! So the demands are kept as a stack of *prefix floors*
//!
//! ```text
//! need[k][i] = max(gmin[i], max over j ≤ k of vc(G[j])[i])     for i > k
//! ```
//!
//! A step at `k` is `need[k] = need[k-1] ⊔ vc(f)` on the components
//! `> k`, and the new suffix of `G` is read straight off `need[k]`. The
//! positions after `k` need no pass of their own: every suffix event the
//! step resets is either `gmin`'s own (and `gmin` is a consistent cut) or
//! one that a prefix clock names, so its clock is already dominated by
//! that prefix clock — `need[j] = need[k]` for every `j > k` until one of
//! them steps. (That is also why the successor never needed a second
//! closure pass.) So only the rows of positions that actually stepped are
//! stored, as a stack ordered by position; a step pops the rows at or
//! after it and pushes its own. A step costs `O(nnz(f) + n − k)` plus the
//! pops it causes, each paid for by an earlier push.
//!
//! A floor can exceed `gmin` only on a free thread, so rows and columns
//! range over the free threads alone: no scratch at all for a single-cut
//! interval, none on the heap up to 16 free threads ([`Frontier`]'s inline
//! width), and one allocation of `free·(free + 2)` words beyond.

use crate::{debug_check_interval, CutSink, EnumError, EnumStats};
use paramount_poset::{CutRef, CutSpace, EventId, Frontier, Tid};

/// Free threads whose floor scratch fits on the stack — the width up to
/// which a [`Frontier`] itself is inline.
const INLINE_FREE: usize = 16;

/// Enumerates every consistent cut of `poset` in lexical order.
///
/// ```
/// use paramount_enumerate::{lexical, CollectSink};
/// use paramount_poset::builder::PosetBuilder;
/// use paramount_poset::Tid;
///
/// let mut b = PosetBuilder::new(2);
/// b.append(Tid(0), ());
/// b.append(Tid(1), ());
/// let poset = b.finish(); // two independent events: 4 cuts
///
/// let mut sink = CollectSink::default();
/// lexical::enumerate(&poset, &mut sink).unwrap();
/// let shown: Vec<String> = sink.cuts.iter().map(|c| c.to_string()).collect();
/// assert_eq!(shown, ["{0,0}", "{0,1}", "{1,0}", "{1,1}"]);
/// ```
pub fn enumerate<Sp: CutSpace + ?Sized, S: CutSink>(
    poset: &Sp,
    sink: &mut S,
) -> Result<EnumStats, EnumError> {
    let empty = Frontier::empty(poset.num_threads());
    let last = poset.current_frontier();
    enumerate_bounded(poset, &empty, &last, sink)
}

/// Enumerates every consistent cut `G` with `gmin ≤ G ≤ gbnd` in lexical
/// order — the ParaMount subroutine (Lemma 1: exactly once each).
///
/// Never inlined: as its own function the loop is compiled the same
/// whatever calls it. Inlined into `Algorithm::run_bounded_budgeted`'s
/// four-way dispatch (which LLVM does or does not do depending on the
/// shape of the executor above it) it cost `offline-detect` 4–6 % of
/// its `cuts_per_s` (CHANGES.md, PR 16).
#[inline(never)]
pub fn enumerate_bounded<Sp: CutSpace + ?Sized, S: CutSink>(
    poset: &Sp,
    gmin: &Frontier,
    gbnd: &Frontier,
    sink: &mut S,
) -> Result<EnumStats, EnumError> {
    debug_check_interval(poset, gmin, gbnd);
    let mut stats = EnumStats {
        cuts: 1,
        peak_frontiers: 1, // exactly one live frontier
        expansions: 0,
    };
    if sink.visit(gmin.as_cut()).is_break() {
        return Err(EnumError::Stopped);
    }
    if gmin == gbnd {
        return Ok(stats); // a single cut: nothing to walk, nothing built
    }

    let (lo, hi) = (gmin.as_slice(), gbnd.as_slice());
    let free_threads = || (0..lo.len()).filter(|&i| lo[i] < hi[i]);
    let nf = free_threads().count();
    // One buffer: the free threads, the stack's positions, its rows.
    let words = nf * (nf + 2);
    let mut inline = [0u32; INLINE_FREE * (INLINE_FREE + 2)];
    let mut spilled = Vec::new();
    let scratch = match inline.get_mut(..words) {
        Some(fits) => fits,
        None => {
            spilled.resize(words, 0);
            &mut spilled[..]
        }
    };
    let (free, scratch) = scratch.split_at_mut(nf);
    let (pos, rows) = scratch.split_at_mut(nf);
    for (c, i) in free_threads().enumerate() {
        free[c] = i as u32;
        rows[c] = lo[i]; // row 0: the interval floor itself
    }
    let mut floors = Floors {
        free,
        pos,
        rows,
        depth: 0,
    };

    let mut g = gmin.clone();
    let g = g.as_mut_slice();
    while *g != *hi {
        if !floors.advance(poset, hi, g, &mut stats.expansions) {
            // Gbnd is the lexical maximum of the interval, so a successor
            // must exist until we reach it.
            debug_assert!(false, "no lexical successor before gbnd — interval bug");
            break;
        }
        stats.cuts += 1;
        if sink.visit(CutRef::new(g)).is_break() {
            return Err(EnumError::Stopped);
        }
    }
    Ok(stats)
}

/// The prefix floors of one bounded walk (module doc), over the interval's
/// free threads only: `free[c]` is the thread of column `c`, in thread
/// order. `rows` holds `depth + 1` rows of `free.len()` columns — row 0 is
/// `gmin`, row `d + 1` the floor left by the step at column `pos[d]`, with
/// `pos[..depth]` strictly increasing — and only the columns right of a
/// row's own position mean anything. The last column never gets a row:
/// nothing lies right of it.
struct Floors<'a> {
    free: &'a [u32],
    pos: &'a mut [u32],
    rows: &'a mut [u32],
    depth: usize,
}

impl Floors<'_> {
    /// Replaces `g` with its lexical successor within `[gmin, gbnd]`.
    /// Returns `false` if no successor exists (only possible at `gbnd`).
    /// Each position scanned counts one probe into `expansions`; a thread
    /// the interval pins is a probe that never needs looking at.
    fn advance<Sp: CutSpace + ?Sized>(
        &mut self,
        poset: &Sp,
        gbnd: &[u32],
        g: &mut [u32],
        expansions: &mut u64,
    ) -> bool {
        let (n, nf) = (g.len(), self.free.len());
        for c in (0..nf).rev() {
            let k = self.free[c] as usize;
            if g[k] >= gbnd[k] {
                continue; // thread k is at its bound
            }
            let f = EventId::new(Tid::from(k), g[k] + 1);
            // Prefix-enabled: f's dependencies on frozen threads j < k must
            // already be inside g. (If f fails this, so does every later
            // event of thread k — process order — so skipping straight to
            // the next position is sound.) `take_while` also swallows f's
            // own component, which is never zero, so what is left of
            // `later` afterwards is exactly the components > k.
            let mut later = poset.vc(f).iter_nonzero();
            let prefix_ok = later
                .by_ref()
                .take_while(|&(j, _)| j < k)
                .all(|(j, need)| need <= g[j]);
            if !prefix_ok {
                continue;
            }
            *expansions += (n - k) as u64;
            g[k] += 1;
            if c + 1 < nf {
                self.step(c, later, g);
            }
            debug_assert!(CutRef::new(g).leq(CutRef::new(gbnd)), "closure escaped");
            debug_assert!(
                CutRef::new(g).is_consistent(poset),
                "lexical successor inconsistent"
            );
            return true;
        }
        false
    }

    /// Commits a step at column `c`: its floor is the nearest floor to its
    /// left joined with `later` (the stepped event's clock right of its
    /// own thread), and the suffix of `g` drops onto it.
    fn step(&mut self, c: usize, later: impl Iterator<Item = (usize, u32)>, g: &mut [u32]) {
        let nf = self.free.len();
        while self.depth > 0 && self.pos[self.depth - 1] as usize >= c {
            self.depth -= 1;
        }
        let (below, above) = self.rows.split_at_mut((self.depth + 1) * nf);
        let row = &mut above[c + 1..nf];
        row.copy_from_slice(&below[self.depth * nf + c + 1..]);
        let columns = &self.free[c + 1..];
        let mut at = 0;
        for (i, need) in later {
            // Both sides ascend by thread; a pinned thread has no column
            // and cannot be raised (need ≤ gbnd = gmin there).
            while at < columns.len() && (columns[at] as usize) < i {
                at += 1;
            }
            if at == columns.len() {
                break;
            }
            if columns[at] as usize == i && need > row[at] {
                row[at] = need;
            }
        }
        for (&t, &floor) in columns.iter().zip(row.iter()) {
            g[t as usize] = floor;
        }
        self.pos[self.depth] = c as u32;
        self.depth += 1;
    }
}

/// The successor as it was before the floors were kept: every step
/// re-joins the clocks of all frontier events `0..=k` from scratch. Slower
/// (`O(n²)` per step) and obviously the definition, which is what the
/// differential tests below hold [`Floors::advance`] to.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn enumerate_bounded<Sp: CutSpace + ?Sized, S: CutSink>(
        poset: &Sp,
        gmin: &Frontier,
        gbnd: &Frontier,
        sink: &mut S,
    ) -> Result<EnumStats, EnumError> {
        let mut stats = EnumStats {
            cuts: 0,
            peak_frontiers: 1,
            expansions: 0,
        };
        let mut g = gmin.clone();
        loop {
            stats.cuts += 1;
            if sink.visit(g.as_cut()).is_break() {
                return Err(EnumError::Stopped);
            }
            if &g == gbnd || !advance(poset, gmin, gbnd, &mut g, &mut stats.expansions) {
                return Ok(stats);
            }
        }
    }

    fn advance<Sp: CutSpace + ?Sized>(
        poset: &Sp,
        gmin: &Frontier,
        gbnd: &Frontier,
        g: &mut Frontier,
        expansions: &mut u64,
    ) -> bool {
        let n = g.len();
        for k in (0..n).rev() {
            *expansions += 1;
            let tk = Tid::from(k);
            if g.get(tk) >= gbnd.get(tk) {
                continue;
            }
            let f = EventId::new(tk, g.get(tk) + 1);
            let prefix_ok = poset
                .vc(f)
                .iter_nonzero()
                .take_while(|&(j, _)| j < k)
                .all(|(j, need)| need <= g.as_slice()[j]);
            if !prefix_ok {
                continue;
            }
            g.set(tk, g.get(tk) + 1);
            for i in (k + 1)..n {
                let ti = Tid::from(i);
                g.set(ti, gmin.get(ti));
            }
            for j in 0..=k {
                let tj = Tid::from(j);
                let cj = g.get(tj);
                if cj == 0 {
                    continue;
                }
                for (i, need) in poset.vc(EventId::new(tj, cj)).iter_nonzero() {
                    if i > k {
                        let ti = Tid::from(i);
                        if need > g.get(ti) {
                            g.set(ti, need);
                        }
                    }
                }
            }
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectSink;
    use paramount_poset::builder::PosetBuilder;
    use paramount_poset::oracle;
    use paramount_poset::random::RandomComputation;
    use paramount_poset::Poset;
    use paramount_vclock::VectorClock;

    fn figure4() -> Poset {
        let mut b = PosetBuilder::new(2);
        let a = b.append(Tid(0), ());
        let bb = b.append(Tid(1), ());
        b.append_after(Tid(0), &[bb], ());
        b.append_after(Tid(1), &[a], ());
        b.finish()
    }

    fn collect_full(p: &Poset) -> Vec<Frontier> {
        let mut sink = CollectSink::default();
        enumerate(p, &mut sink).unwrap();
        sink.cuts
    }

    #[test]
    fn full_lexical_matches_oracle_in_order() {
        let p = figure4();
        let cuts = collect_full(&p);
        // The product-scan oracle also emits in lexicographic order, so the
        // sequences must be identical, not just set-equal.
        assert_eq!(cuts, oracle::enumerate_product_scan(&p));
    }

    #[test]
    fn emission_order_is_strictly_lexical() {
        for seed in 0..10 {
            let p = RandomComputation::new(4, 4, 0.3, seed).generate();
            let cuts = collect_full(&p);
            for w in cuts.windows(2) {
                assert!(w[0] < w[1], "order violated at seed {seed}");
            }
        }
    }

    #[test]
    fn lexical_agrees_with_oracle_on_random_posets() {
        for seed in 0..40 {
            let p = RandomComputation::new(4, 5, 0.4, seed).generate();
            let cuts = collect_full(&p);
            assert_eq!(
                cuts,
                oracle::enumerate_product_scan(&p),
                "mismatch at seed {seed}"
            );
        }
    }

    #[test]
    fn bounded_lexical_enumerates_exactly_the_interval() {
        // For every event e of random posets, compare the bounded run on
        // [Gmin(e), Gbnd(e)] against the oracle filtered to that interval.
        for seed in 0..15 {
            let p = RandomComputation::new(3, 4, 0.4, seed).generate();
            let order = paramount_poset::topo::weight_order(&p);
            let all = oracle::enumerate_product_scan(&p);
            // Build Gbnd by walking →p.
            let mut running = Frontier::empty(p.num_threads());
            for &e in &order {
                running.set(e.tid, e.index);
                let gmin = Frontier::from_clock(p.vc(e));
                let gbnd = running.clone();
                let mut sink = CollectSink::default();
                enumerate_bounded(&p, &gmin, &gbnd, &mut sink).unwrap();
                let expected: Vec<Frontier> = all
                    .iter()
                    .filter(|g| gmin.leq(g) && g.leq(&gbnd))
                    .cloned()
                    .collect();
                assert_eq!(sink.cuts, expected, "event {e} seed {seed}");
            }
        }
    }

    #[test]
    fn interval_of_figure6_events() {
        // Figure 6 with →p = e1[1], e2[1], e1[2], e2[2]:
        //   I(e1[1]) = {{1,0}} (+ the empty cut, handled by ParaMount),
        //   I(e2[1]) = {{0,1},{1,1}}, I(e1[2]) = {{2,1}},
        //   I(e2[2]) = {{1,2},{2,2}}.
        let p = figure4();
        let cases: Vec<(Frontier, Frontier, Vec<Frontier>)> = vec![
            (
                Frontier::from_counts(vec![1, 0]),
                Frontier::from_counts(vec![1, 0]),
                vec![Frontier::from_counts(vec![1, 0])],
            ),
            (
                Frontier::from_counts(vec![0, 1]),
                Frontier::from_counts(vec![1, 1]),
                vec![
                    Frontier::from_counts(vec![0, 1]),
                    Frontier::from_counts(vec![1, 1]),
                ],
            ),
            (
                Frontier::from_counts(vec![2, 1]),
                Frontier::from_counts(vec![2, 1]),
                vec![Frontier::from_counts(vec![2, 1])],
            ),
            (
                Frontier::from_counts(vec![1, 2]),
                Frontier::from_counts(vec![2, 2]),
                vec![
                    Frontier::from_counts(vec![1, 2]),
                    Frontier::from_counts(vec![2, 2]),
                ],
            ),
        ];
        for (gmin, gbnd, expected) in cases {
            let mut sink = CollectSink::default();
            enumerate_bounded(&p, &gmin, &gbnd, &mut sink).unwrap();
            assert_eq!(sink.cuts, expected);
        }
    }

    #[test]
    fn stateless_peak_is_one() {
        let p = RandomComputation::new(4, 5, 0.3, 1).generate();
        let mut sink = crate::CountSink::default();
        let stats = enumerate(&p, &mut sink).unwrap();
        assert_eq!(stats.peak_frontiers, 1);
        assert_eq!(stats.cuts, sink.count);
    }

    #[test]
    fn expansions_are_a_deterministic_work_witness() {
        let p = RandomComputation::new(4, 5, 0.3, 9).generate();
        let run = || {
            let mut sink = crate::CountSink::default();
            enumerate(&p, &mut sink).unwrap()
        };
        // Same poset, same interval ⇒ bit-identical stats, probes included.
        let first = run();
        assert_eq!(first, run());
        assert!(first.expansions >= first.cuts - 1, "one probe per advance");
    }

    #[test]
    fn early_stop_propagates() {
        let p = figure4();
        let mut sink =
            crate::FirstMatchSink::new(|c: paramount_poset::CutRef<'_>| c.total_events() == 1);
        assert_eq!(enumerate(&p, &mut sink).unwrap_err(), EnumError::Stopped);
        assert_eq!(sink.witness, Some(Frontier::from_counts(vec![0, 1])));
    }

    #[test]
    fn single_thread_chain() {
        let mut b = PosetBuilder::new(1);
        for _ in 0..5 {
            b.append(Tid(0), ());
        }
        let p = b.finish();
        let cuts = collect_full(&p);
        assert_eq!(cuts.len(), 6);
    }

    #[test]
    fn empty_poset_emits_only_empty_cut() {
        let p: Poset = Poset::empty(3);
        let cuts = collect_full(&p);
        assert_eq!(cuts, vec![Frontier::empty(3)]);
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A random computation whose lattice stays small at any width: every
    /// thread gets one event (in a shuffled order), then `extra` more land
    /// on random threads, and each event hears *everything* older than a
    /// random lag of `1..=max_lag` events — so it is concurrent with fewer
    /// than `max_lag` events on either side, while its clock raises later
    /// threads through message edges all the time. `sparse` stores every
    /// clock in the neighborhood representation.
    fn windowed(n: usize, extra: usize, max_lag: usize, sparse: bool, seed: u64) -> Poset {
        let mut state = seed;
        let mut first: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            first.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
        }
        let mut b = PosetBuilder::new(n);
        let mut own = vec![vec![0u32; n]; n]; // each thread's latest clock
        let mut known = vec![vec![0u32; n]]; // known[e]: join of the first e events
        for e in 0..n + extra {
            let t = match first.get(e) {
                Some(&t) => t,
                None => (splitmix64(&mut state) % n as u64) as usize,
            };
            let lag = 1 + (splitmix64(&mut state) % max_lag as u64) as usize;
            let heard = &known[(e + 1).saturating_sub(lag)];
            let clock = &mut own[t];
            for (c, h) in clock.iter_mut().zip(heard) {
                *c = (*c).max(*h);
            }
            clock[t] += 1;
            let all = known[e].iter().zip(clock.iter()).map(|(a, b)| *a.max(b));
            known.push(all.collect());
            let vc = if sparse {
                let entries = clock.iter().enumerate().map(|(j, &c)| (j as u32, c));
                VectorClock::from_entries(n, entries.collect())
            } else {
                VectorClock::from_components(clock.clone())
            };
            assert_eq!(vc.is_sparse(), sparse);
            b.append_with_clock(Tid::from(t), vc, ());
        }
        b.finish()
    }

    /// Same cuts in the same order and the same stats, probes included.
    /// Returns how many free threads the interval had.
    fn assert_same_walk(p: &Poset, gmin: &Frontier, gbnd: &Frontier, what: &str) -> usize {
        let (mut kept, mut scratch) = (CollectSink::default(), CollectSink::default());
        let kept_stats = enumerate_bounded(p, gmin, gbnd, &mut kept).unwrap();
        let scratch_stats = reference::enumerate_bounded(p, gmin, gbnd, &mut scratch).unwrap();
        assert_eq!(kept.cuts, scratch.cuts, "{what}: cut sequence");
        assert_eq!(kept_stats, scratch_stats, "{what}: stats");
        assert_eq!(kept_stats.peak_frontiers, 1);
        let (lo, hi) = (gmin.as_slice(), gbnd.as_slice());
        lo.iter().zip(hi).filter(|(lo, hi)| lo < hi).count()
    }

    #[test]
    fn kept_floors_walk_exactly_like_the_from_scratch_successor() {
        // Widths on both sides of the inline scratch (16 | 17), dense and
        // sparse clocks; (n, extra events, max lag, sparse clocks).
        let shapes = [
            (1, 6, 3, false),
            (3, 12, 6, false),
            (8, 40, 12, false),
            (8, 40, 12, true),
            (16, 40, 10, false),
            (17, 40, 10, false),
            (17, 40, 10, true),
            (40, 48, 9, false),
            (40, 48, 9, true),
        ];
        for (n, extra, max_lag, sparse) in shapes {
            let mut widest = 0;
            for seed in 0..6 {
                let p = windowed(n, extra, max_lag, sparse, seed);
                let what = format!("n {n} sparse {sparse} seed {seed}");
                let empty = Frontier::empty(n);
                let last = p.current_frontier();
                // Every thread has an event, so the whole lattice leaves
                // all n threads free: past 16 the scratch is on the heap.
                assert_eq!(assert_same_walk(&p, &empty, &last, &what), n);
                // Every event's interval, with Gbnd built by walking →p.
                let mut running = Frontier::empty(n);
                for e in paramount_poset::topo::weight_order(&p) {
                    running.set(e.tid, e.index);
                    let gmin = Frontier::from_clock(p.vc(e));
                    let free = assert_same_walk(&p, &gmin, &running, &format!("{what} {e}"));
                    widest = widest.max(free);
                }
            }
            assert!(
                n == 1 || widest >= 2,
                "n {n}: no interval had a suffix to reset"
            );
        }
    }

    #[test]
    fn a_step_before_the_last_thread_raises_a_later_one_through_a_message() {
        // t2: c1, c2.  t1: b1.  t0: a1, which received c2's message.
        let mut b = PosetBuilder::new(3);
        b.append(Tid(2), ());
        let c2 = b.append(Tid(2), ());
        b.append(Tid(1), ());
        b.append_after(Tid(0), &[c2], ());
        let p = b.finish();
        let expected: Vec<Frontier> = [
            [0, 0, 0],
            [0, 0, 1],
            [0, 0, 2],
            [0, 1, 0],
            [0, 1, 1],
            [0, 1, 2],
            // The step at k = 0 lifts thread 2 straight to c2, not to
            // gmin; the step at k = 1 after it must keep it there.
            [1, 0, 2],
            [1, 1, 2],
        ]
        .iter()
        .map(|c| Frontier::from_slice(c))
        .collect();
        assert_eq!(collect_full(&p), expected);
        assert_same_walk(
            &p,
            &Frontier::empty(3),
            &p.current_frontier(),
            "hand-written",
        );
    }
}
