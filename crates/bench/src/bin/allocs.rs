//! **Allocations per cut** — how many heap allocations the enumerators
//! perform per visited global state, on `fig11`-style workloads.
//!
//! Chauhan & Garg (*Space Efficient BFS/Level Traversals of Consistent
//! Global States*) identify per-cut allocation as the dominant constant
//! factor of cut enumeration; the compact-cut work (inline `Frontier`,
//! borrowed-visit sinks, delta-coded intervals) exists to drive this
//! number to ~0 for n ≤ 8. This binary is the before/after instrument:
//! run it on both sides of a change and diff the `allocs/cut` column
//! (numbers are recorded in EXPERIMENTS.md).
//!
//! Counts come from [`alloc_track::CountingAllocator`] installed as the
//! global allocator, so they include *everything* the run touches —
//! sink bookkeeping, hash-table growth, and (for the `L-Para` rows)
//! one-time worker-pool setup. Ratios are meaningful because the cut
//! counts dwarf the constant overheads.

use paramount::{Algorithm, AtomicCountSink, ParaMount};
use paramount_bench::alloc_track::{self, CountingAllocator};
use paramount_enumerate::{bfs, dfs, lexical, CountSink};
use paramount_poset::random::RandomComputation;
use paramount_poset::Poset;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn report(workload: &str, run: &str, cuts: u64, allocs: usize) {
    let ratio = if cuts == 0 {
        "-".into()
    } else {
        format!("{:.3}", allocs as f64 / cuts as f64)
    };
    println!("{workload:<10} {run:<12} {cuts:>12} {allocs:>12} {ratio:>10}");
}

fn main() {
    println!("Allocations per visited cut (global-allocator event counts)\n");
    println!(
        "{:<10} {:<12} {:>12} {:>12} {:>10}",
        "workload", "run", "cuts", "allocs", "allocs/cut"
    );

    // fig11-style distributed computations. The first two stay within the
    // n <= 8 inline-frontier regime the paper's workloads occupy; d8-wide
    // is message-sparse, so its lattice is wide enough (~100K cuts) that
    // per-cut costs dominate any setup constant. BFS/DFS rows are capped
    // to the d8 posets — their visited sets on d-300's 42M cuts would
    // need gigabytes; the lexical rows cover the big poset.
    let d8_dense = ("d8-dense", RandomComputation::new(8, 4, 0.6, 7).generate());
    let d8_wide = ("d8-wide", RandomComputation::new(8, 4, 0.25, 11).generate());
    let d300 = (
        "d-300",
        paramount_workloads::distributed::scaled(30, 0.83, 300).generate(),
    );

    for (name, poset) in [&d8_dense, &d8_wide] {
        seq_lexical(name, poset);
        let (cuts, allocs) = alloc_track::measure_allocs(|| {
            let mut sink = CountSink::default();
            bfs::enumerate(poset, &bfs::BfsOptions::default(), &mut sink).expect("unbounded");
            sink.count
        });
        report(name, "bfs seq", cuts, allocs);

        let (cuts, allocs) = alloc_track::measure_allocs(|| {
            let mut sink = CountSink::default();
            dfs::enumerate(poset, &dfs::DfsOptions::default(), &mut sink).expect("unbounded");
            sink.count
        });
        report(name, "dfs seq", cuts, allocs);
        l_para(name, poset);
    }

    let (name, poset) = &d300;
    seq_lexical(name, poset);
    l_para(name, poset);

    println!("\n(allocs = successful alloc/realloc calls during the run; L-Para rows include pool setup)");
}

fn seq_lexical(name: &str, poset: &Poset) {
    let (cuts, allocs) = alloc_track::measure_allocs(|| {
        let mut sink = CountSink::default();
        lexical::enumerate(poset, &mut sink).expect("stateless");
        sink.count
    });
    report(name, "lexical seq", cuts, allocs);
}

fn l_para(name: &str, poset: &Poset) {
    for threads in [1usize, 8] {
        let (cuts, allocs) = alloc_track::measure_allocs(|| {
            let sink = AtomicCountSink::new();
            ParaMount::new(Algorithm::Lexical)
                .with_threads(threads)
                .enumerate(poset, &sink)
                .expect("stateless");
            sink.count()
        });
        report(name, &format!("L-Para t={threads}"), cuts, allocs);
    }
}
