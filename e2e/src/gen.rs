//! The benchmark's own input generator and its closed-form oracle.
//!
//! `phased(shape, seed)` is the only source of inputs: the program under
//! measurement sees nothing but what this module generates, and the
//! counts every operation must reproduce follow from the shape alone.

use paramount_detect::EventView;
use paramount_ingest::WireOp;
use paramount_poset::{EventId, Poset, Tid};
use paramount_trace::{TraceEvent, VarId};
use std::fmt::Write as _;

/// SplitMix64 (Steele, Lea & Flood 2014): the whole generator state is
/// the seed, so equal seeds give equal inputs on every platform.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the modulo bias at these bounds is below
    /// 2⁻⁵⁰ and only shapes the input, never a count).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Shape of a phased computation: `phases` phases of `rounds` rounds in
/// which each of `threads` threads makes `accesses` accesses, names drawn
/// from pools of `vars` each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub threads: usize,
    pub rounds: usize,
    pub accesses: usize,
    pub phases: usize,
    pub vars: usize,
}

impl Shape {
    /// The same shape cut to (or repeated up to) `phases` phases.
    pub fn with_phases(self, phases: usize) -> Shape {
        Shape { phases, ..self }
    }

    /// `EVENT` frames / trace lines: per phase, every thread's rounds
    /// (accesses plus the own-lock pair when there is more than one
    /// round) and the 4n-operation barrier.
    pub fn wire_events(&self) -> u64 {
        let own_lock = if self.rounds > 1 { 2 } else { 0 };
        let round_ops = self.threads * self.rounds * (self.accesses + own_lock);
        (self.phases * (round_ops + 4 * self.threads)) as u64
    }

    /// Poset events: one access segment per thread and round.
    pub fn poset_events(&self) -> u64 {
        (self.phases * self.threads * self.rounds) as u64
    }

    /// Consistent cuts: inside a phase the threads are independent chains
    /// of `rounds` events, `(rounds+1)^threads` cuts; a full barrier
    /// chains the phases, which share only their end points.
    pub fn cuts(&self) -> u64 {
        let per_phase = (self.rounds as u64 + 1).pow(self.threads as u32);
        self.phases as u64 * (per_phase - 1) + 1
    }
}

/// One generated input: operations in observed order.
pub struct Input {
    pub shape: Shape,
    pub ops: Vec<(usize, WireOp)>,
}

/// Generates the phased computation of `shape` from `seed`.
///
/// In each round the threads run in seed-shuffled order; each makes its
/// accesses (¾ from its private pool, ¼ from the shared pool, 40 %
/// writes) and, when a phase has several rounds, closes the round with
/// an acquire/release of its own lock (which ends the access segment
/// without ordering it against any other thread). A phase ends in a full
/// barrier: every thread passes through lock `b` twice, so after the
/// second pass each knows every event of the phase. The seed therefore
/// permutes insertion order, interval sizes and race verdicts, and
/// leaves every count of [`Shape`] alone.
pub fn phased(shape: Shape, seed: u64) -> Input {
    let Shape {
        threads,
        rounds,
        accesses,
        phases,
        vars,
    } = shape;
    let mut rng = SplitMix64::new(seed);
    let private: Vec<Vec<String>> = (0..threads)
        .map(|t| (0..vars).map(|k| format!("p{t}_{k}")).collect())
        .collect();
    let shared: Vec<String> = (0..vars).map(|k| format!("s{k}")).collect();
    let own_lock: Vec<String> = (0..threads).map(|t| format!("l{t}")).collect();
    let barrier = "b".to_string();

    let mut ops = Vec::with_capacity(shape.wire_events() as usize);
    let mut order: Vec<usize> = (0..threads).collect();
    for _ in 0..phases {
        for _ in 0..rounds {
            rng.shuffle(&mut order);
            for &t in &order {
                for _ in 0..accesses {
                    let pool = if rng.below(4) == 0 {
                        &shared
                    } else {
                        &private[t]
                    };
                    let name = pool[rng.below(vars)].clone();
                    let op = if rng.below(10) < 4 {
                        WireOp::Write(name)
                    } else {
                        WireOp::Read(name)
                    };
                    ops.push((t, op));
                }
                if rounds > 1 {
                    ops.push((t, WireOp::Acquire(own_lock[t].clone())));
                    ops.push((t, WireOp::Release(own_lock[t].clone())));
                }
            }
        }
        for _pass in 0..2 {
            rng.shuffle(&mut order);
            for &t in &order {
                ops.push((t, WireOp::Acquire(barrier.clone())));
                ops.push((t, WireOp::Release(barrier.clone())));
            }
        }
    }
    debug_assert_eq!(ops.len() as u64, shape.wire_events());
    Input { shape, ops }
}

impl Input {
    /// The input as a trace file: `threads N`, then one line per operation.
    pub fn trace_text(&self) -> String {
        let mut text = format!("threads {}\n", self.shape.threads);
        for (tid, op) in &self.ops {
            let _ = writeln!(text, "{tid} {}", op.render());
        }
        text
    }
}

/// Reference race verdict: every variable on which two concurrent events
/// of different threads conflict, by comparing all pairs of events of
/// the recorded poset — no enumeration involved. Initialization writes
/// are not blamed, as in `RacePredicate::new(_, true)`.
pub fn racy_vars_all_pairs(poset: &Poset<TraceEvent>) -> Vec<VarId> {
    let n = EventView::num_threads(poset);
    let events: Vec<EventId> = (0..n)
        .flat_map(|t| {
            let tid = Tid::from(t);
            (1..=poset.events_of(tid) as u32).map(move |i| EventId::new(tid, i))
        })
        .collect();
    let mut racy = Vec::new();
    for (i, &e) in events.iter().enumerate() {
        let Some(own) = poset.payload(e).collection() else {
            continue;
        };
        for &f in &events[i + 1..] {
            if f.tid == e.tid || !EventView::concurrent(poset, e, f) {
                continue;
            }
            let Some(other) = poset.payload(f).collection() else {
                continue;
            };
            for a in own.accesses() {
                for b in other.accesses() {
                    if a.conflicts_with(b) && !a.init && !b.init {
                        racy.push(a.var);
                    }
                }
            }
        }
    }
    racy.sort_unstable();
    racy.dedup();
    racy
}

#[cfg(test)]
mod tests {
    use super::*;
    use paramount_enumerate::{Algorithm, CountSink};
    use paramount_trace::parse_trace;

    const SMALL: Shape = Shape {
        threads: 3,
        rounds: 2,
        accesses: 2,
        phases: 3,
        vars: 4,
    };

    #[test]
    fn equal_seeds_give_equal_inputs_and_other_seeds_differ() {
        let a = phased(SMALL, 7).trace_text();
        assert_eq!(a, phased(SMALL, 7).trace_text());
        assert_ne!(a, phased(SMALL, 8).trace_text());
        assert_eq!(a.lines().count() as u64, SMALL.wire_events() + 1);
    }

    #[test]
    fn closed_form_matches_sequential_enumeration_on_three_shapes() {
        let shapes = [
            SMALL,
            Shape {
                threads: 4,
                rounds: 1,
                accesses: 4,
                phases: 9,
                vars: 2,
            },
            Shape {
                threads: 5,
                rounds: 3,
                accesses: 1,
                phases: 2,
                vars: 3,
            },
        ];
        for (i, shape) in shapes.into_iter().enumerate() {
            for seed in [1, 99] {
                let trace = parse_trace(&phased(shape, seed + i as u64).trace_text()).unwrap();
                assert_eq!(trace.ops.len() as u64, shape.wire_events());
                let poset = trace.to_poset(false);
                assert_eq!(poset.num_events() as u64, shape.poset_events(), "{shape:?}");
                let mut sink = CountSink::default();
                let stats = Algorithm::Lexical.run(&poset, &mut sink).unwrap();
                assert_eq!(stats.cuts, shape.cuts(), "{shape:?}");
                assert_eq!(sink.count, shape.cuts());
            }
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_below_stays_in_range() {
        let mut rng = SplitMix64::new(3);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}
