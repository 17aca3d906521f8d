//! Calibration helper: sizes the Table 1 inputs so the harness finishes
//! in minutes on a laptop and reproduces the paper's `o.o.m.` rows. Not
//! part of the paper's tables; kept because re-calibration is needed
//! whenever the generator or the scales change.
//!
//! `calibrate <stage> [args]`, in the order the inputs were calibrated:
//!
//! * `density [cap]` — lattice sizes of random computations over a grid of
//!   events-per-process × message fractions.
//! * `fraction [events] [cap] [seed] [f1,f2,…]` — sweep message fractions
//!   at one of the paper's event counts, to land near its 42 M / 237 M /
//!   4,962 M lattices.
//! * `traces [cap]` — lattice size and BFS peak width of the workload
//!   traces (`bank`, `tsp`, `hedc`, `elevator`) at candidate sizes.
//! * `budget [all|d|tsp|elev|d10k|bank] [frontiers]` — the same probe on
//!   the committed inputs, to choose the frontier budget that separates
//!   the `o.o.m.` rows (bank, hedc, elevator) from the finishing ones.
//!
//! Every stage runs the same [`Probe`]; the BFS peak width it reports
//! decides which rows run out of memory under Table 1's frontier budget.

use paramount_bench::fmt::group_digits;
use paramount_enumerate::bfs::{self, BfsOptions};
use paramount_enumerate::{lexical, CountSink, EnumError};
use paramount_poset::{CutRef, CutSpace};
use paramount_trace::sim::SimScheduler;
use paramount_trace::Program;
use paramount_workloads::{banking, distributed, elevator, hedc, tsp};
use std::ops::ControlFlow;
use std::time::Instant;

/// The one probe every stage runs: a lexical count stopped at `cap` cuts
/// and, given a `bfs_budget` and a count that finished, the peak width
/// of a BFS stopped at that many live frontiers.
struct Probe {
    cap: u64,
    bfs_budget: Option<usize>,
}

impl Probe {
    fn new(cap: u64, bfs_budget: Option<usize>) -> Self {
        Probe { cap, bfs_budget }
    }

    /// Prints one row for `space`.
    fn space<S: CutSpace + ?Sized>(&self, name: &str, space: &S) {
        let mut cuts = 0u64;
        let mut sink = |_: CutRef<'_>| {
            cuts += 1;
            if cuts >= self.cap {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        let start = Instant::now();
        let capped = matches!(
            lexical::enumerate(space, &mut sink),
            Err(EnumError::Stopped)
        );
        print!(
            "{name:>16}: cuts={:>14}{} lex={:>7.2}s",
            group_digits(cuts),
            if capped { "+" } else { " " },
            start.elapsed().as_secs_f64()
        );
        if let Some(frontier_budget) = self.bfs_budget.filter(|_| !capped) {
            let start = Instant::now();
            let options = BfsOptions {
                frontier_budget: Some(frontier_budget),
            };
            let (peak, oom) = match bfs::enumerate(space, &options, &mut CountSink::default()) {
                Ok(stats) => (stats.peak_frontiers, false),
                Err(EnumError::OutOfBudget { live_frontiers, .. }) => (live_frontiers, true),
                Err(e) => panic!("{e}"),
            };
            print!(
                " bfs_peak={:>12} oom={oom} bfs={:>7.2}s",
                group_digits(peak as u64),
                start.elapsed().as_secs_f64()
            );
        }
        println!();
    }

    /// A random computation of 10 processes.
    fn random(&self, name: &str, events: usize, fraction: f64, seed: u64) {
        self.space(
            name,
            &distributed::scaled(events, fraction, seed).generate(),
        );
    }

    /// The trace a seeded simulation of `program` observes.
    fn trace(&self, name: String, program: Program) {
        self.space(&name, &SimScheduler::new(17).run(&program));
    }

    fn bank(&self, rounds: usize) {
        self.trace(
            format!("bank-w 8x{rounds}"),
            banking::wide_program(8, rounds),
        );
    }

    fn tsp(&self, subproblems: usize, prune_depth: usize) {
        let params = tsp::Params {
            workers: 8,
            subproblems,
            prune_depth,
        };
        let name = format!("tsp 8x{subproblems}x{prune_depth}");
        self.trace(name, tsp::program(&params));
    }

    fn hedc(&self, segments: usize) {
        let name = format!("hedc-w 11x{segments}");
        self.trace(name, hedc::wide_program(11, segments));
    }

    fn elevator(&self, trips: usize, moves: usize) {
        let name = format!("elev-w 11x{trips}x{moves}");
        self.trace(name, elevator::wide_program(11, trips, moves));
    }
}

/// Positional argument `i` (after the stage name), or `default`.
fn arg<T: std::str::FromStr>(i: usize, default: T) -> T {
    std::env::args()
        .nth(i + 1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn density() {
    let probe = Probe::new(arg(1, 50_000_000), None);
    let grid: [(usize, &[f64]); 8] = [
        (8, &[0.70, 0.78, 0.85]),
        (12, &[0.80, 0.86]),
        (16, &[0.82, 0.86, 0.90]),
        (24, &[0.88, 0.92]),
        (32, &[0.92, 0.95]),
        (50, &[0.95]),
        (100, &[0.97]),
        (1000, &[0.92]),
    ];
    for (events, fractions) in grid {
        for &fraction in fractions {
            probe.random(&format!("10x{events} f={fraction}"), events, fraction, 42);
        }
    }
}

fn fraction() {
    let (events, seed) = (arg(1, 30), arg(3, 300));
    let probe = Probe::new(arg(2, 100_000_000), None);
    let fractions: Vec<f64> = std::env::args()
        .nth(5)
        .map(|s| s.split(',').filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_else(|| vec![0.90, 0.93, 0.95, 0.97, 0.98]);
    println!("events/proc = {events}, seed = {seed}");
    for fraction in fractions {
        probe.random(&format!("f={fraction}"), events, fraction, seed);
    }
}

fn traces() {
    let probe = Probe::new(arg(1, 300_000_000), Some(20_000_000));
    for rounds in [3, 4] {
        probe.bank(rounds);
    }
    for (sub, depth) in [(10, 3), (20, 2), (20, 3)] {
        probe.tsp(sub, depth);
    }
    for segments in [4, 5] {
        probe.hedc(segments);
    }
    for (trips, moves) in [(2, 2), (3, 2), (3, 3)] {
        probe.elevator(trips, moves);
    }
}

fn budget() {
    let which: String = arg(1, "all".to_string());
    let bfs_budget = Some(arg(2, 30_000_000));
    let probe = Probe::new(u64::MAX, bfs_budget);
    let wants =
        |group: &str| which == group || (which == "all" && group != "d10k" && group != "bank");
    if wants("d") {
        probe.random("d-300", 30, 0.83, 300);
        probe.random("d-500", 50, 0.705, 500);
    }
    if wants("tsp") {
        for (sub, depth) in [(20, 2), (20, 3), (40, 2)] {
            probe.tsp(sub, depth);
        }
    }
    if wants("elev") {
        let capped = Probe::new(2_000_000_000, bfs_budget);
        for (trips, moves) in [(3, 3), (2, 4), (3, 4)] {
            capped.elevator(trips, moves);
        }
    }
    if wants("d10k") {
        probe.random("d-10K", 1000, 0.98, 10_000);
    }
    if wants("bank") {
        probe.bank(4);
        probe.hedc(4);
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("density") => density(),
        Some("fraction") => fraction(),
        Some("traces") => traces(),
        Some("budget") => budget(),
        _ => {
            eprintln!("usage: calibrate density|fraction|traces|budget [args]");
            std::process::exit(1);
        }
    }
}
