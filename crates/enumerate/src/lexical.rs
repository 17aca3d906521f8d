//! The Ganter/Garg lexical ("next-closure") enumeration — the paper's
//! Algorithm 2 in its bounded form.
//!
//! Cuts are visited in lexicographic order of their frontier vectors. The
//! algorithm is **stateless**: it holds exactly one current frontier and
//! computes its lexical successor in `O(n²)` from the event vector clocks,
//! so live memory is `O(n)` regardless of lattice size. That property is
//! what makes it the subroutine of choice for ParaMount ("L-Para") and the
//! memory baseline of Figure 12.
//!
//! Successor computation (Algorithm 2 lines 5–14, de-compressed): from the
//! current cut `G`, scan positions `k = n…1` for the largest `k` such that
//!
//! 1. `G[k] < Gbnd[k]` — one more event of thread `k` stays in bounds, and
//! 2. the next event `f = E_k[G[k]+1]` needs nothing beyond `G` on threads
//!    `j < k` (`f.vc[j] ≤ G[j]`) — threads before `k` are frozen in a
//!    lexical step, while threads after `k` may be raised freely.
//!
//! The successor keeps `G[1..k-1]`, increments `G[k]`, resets every later
//! component to `Gmin`, then closes under causality by joining in the
//! vector clocks of the ≤ k frontier events. Both the reset floor and the
//! closure sources are dominated by the consistent cut `Gbnd`, so the
//! closure can never escape the interval (the argument inside Theorem 1 /
//! Lemma 1 of the paper).

use crate::{debug_check_interval, CutSink, EnumError, EnumStats};
use paramount_poset::{CutSpace, EventId, Frontier, Tid};

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
        cuts: 0,
        peak_frontiers: 1, // stateless: exactly one live frontier
        expansions: 0,
    };
    let mut g = gmin.clone();

    loop {
        stats.cuts += 1;
        if sink.visit(g.as_cut()).is_break() {
            return Err(EnumError::Stopped);
        }
        if &g == gbnd {
            break;
        }
        if !advance(poset, gmin, gbnd, &mut g, &mut stats.expansions) {
            // Gbnd is the lexical maximum of the interval, so a successor
            // must exist until we reach it.
            debug_assert!(false, "no lexical successor before gbnd — interval bug");
            break;
        }
    }
    Ok(stats)
}

/// Replaces `g` with its lexical successor within `[gmin, gbnd]`.
/// Returns `false` if no successor exists (only possible at `gbnd`).
/// Each position scanned counts one probe into `expansions`.
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
            continue; // thread k is at its bound
        }
        let f = EventId::new(tk, g.get(tk) + 1);
        let fvc = poset.vc(f);
        // Prefix-enabled: f's dependencies on frozen threads j < k must
        // already be inside g. (If f fails this, so does every later event
        // of thread k — process order — so skipping straight to k-1 is
        // sound.)
        let prefix_ok = fvc
            .iter_nonzero()
            .take_while(|&(j, _)| j < k)
            .all(|(j, need)| need <= g.as_slice()[j]);
        if !prefix_ok {
            continue;
        }

        // Commit the increment at position k.
        g.set(tk, g.get(tk) + 1);
        // Reset the free suffix to the interval floor...
        for i in (k + 1)..n {
            let ti = Tid::from(i);
            g.set(ti, gmin.get(ti));
        }
        // ...and close under causality: every frontier event of the frozen
        // prefix (including the new f) may demand events on later threads.
        for j in 0..=k {
            let tj = Tid::from(j);
            let cj = g.get(tj);
            if cj == 0 {
                continue;
            }
            let vcj = poset.vc(EventId::new(tj, cj));
            for (i, need) in vcj.iter_nonzero() {
                if i > k {
                    let ti = Tid::from(i);
                    if need > g.get(ti) {
                        g.set(ti, need);
                    }
                }
            }
        }
        debug_assert!(g.leq(gbnd), "closure escaped the interval");
        debug_assert!(g.is_consistent(poset), "lexical successor inconsistent");
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CollectSink;
    use paramount_poset::builder::PosetBuilder;
    use paramount_poset::oracle;
    use paramount_poset::random::RandomComputation;
    use paramount_poset::Poset;

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
}
