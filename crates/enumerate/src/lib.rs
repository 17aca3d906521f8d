#![warn(missing_docs)]
//! Sequential global-state enumeration algorithms and their *bounded*
//! variants.
//!
//! These are the algorithms ParaMount builds on and is evaluated against
//! (§3.2 and §5.1 of the paper):
//!
//! * [`bfs`] — Cooper & Marzullo's breadth-first enumeration, enhanced (as
//!   in the paper's evaluation) to emit every cut exactly once. Its
//!   defining cost is the *intermediate state set*: one full level of the
//!   lattice kept live, exponential in the number of threads in the worst
//!   case. An optional memory budget turns exhaustion into a reported
//!   [`EnumError::OutOfBudget`] — the reproduction of the paper's `o.o.m.`
//!   rows.
//! * [`dfs`] — depth-first enumeration with a visited set; same worst-case
//!   space, different traversal order. Included as an extra baseline.
//! * [`lexical`] — the Ganter/Garg lexical ("next-closure") algorithm
//!   (the paper's Algorithm 2 when bounded): **one live frontier**, the
//!   closure kept as a stack of prefix floors (`O(free²)` words for an
//!   interval with `free` unpinned threads), amortised
//!   `O(nnz(f) + n − k)` work per step.
//! * [`leveled`] — the Chauhan/Garg space-efficient breadth-first walk:
//!   level-by-level (rank-ordered) emission like BFS, but each level is
//!   *regenerated* by a backtracking search instead of stored, so live
//!   memory stays `O(n)` like the lexical algorithm.
//!
//! [`Algorithm::Auto`] is not a fifth traversal: it picks between the
//! lexical and leveled subroutines per interval from the interval's
//! potential-cut box size (and, in the execution engines, from runtime
//! memory-pressure signals).
//!
//! Every algorithm exists in two forms: full enumeration of the whole
//! lattice, and a bounded form that enumerates exactly the interval
//! `{ G consistent | gmin ≤ G ≤ gbnd }` — the ParaMount subroutine
//! contract (Lemma 1).
//!
//! Enumeration is decoupled from consumption through [`CutSink`]; sinks
//! count cuts, collect them, evaluate predicates, or abort early.

pub mod bfs;
pub mod dfs;
pub mod fxhash;
pub mod leveled;
pub mod lexical;
mod sink;

pub use sink::{CollectSink, CountSink, CutSink, FirstMatchSink};

use paramount_poset::{CutSpace, Frontier};
use std::fmt;

/// Why an enumeration stopped before completing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EnumError {
    /// A stateful algorithm (BFS/DFS) exceeded its configured budget for
    /// intermediate frontier storage — the analog of the paper's
    /// out-of-memory rows for the 2 GB JVM heap.
    OutOfBudget {
        /// Number of frontiers live when the budget tripped.
        live_frontiers: usize,
        /// The configured limit.
        budget: usize,
    },
    /// The sink requested an early stop (e.g. a predicate matched and the
    /// caller only needed the first witness).
    Stopped,
    /// The sink (or a user predicate inside it) panicked mid-enumeration
    /// and the panic was contained at the enumeration boundary (see
    /// [`Algorithm::run_isolated`]). Carries the panic payload rendered
    /// as a string so the fault is reportable across threads.
    Panicked {
        /// The panic payload, stringified (`&str`/`String` payloads are
        /// preserved verbatim; anything else becomes a placeholder).
        message: String,
    },
}

impl fmt::Display for EnumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnumError::OutOfBudget {
                live_frontiers,
                budget,
            } => write!(
                f,
                "out of budget: {live_frontiers} live frontiers exceeds limit {budget}"
            ),
            EnumError::Stopped => write!(f, "stopped early by sink"),
            EnumError::Panicked { message } => {
                write!(f, "sink panicked during enumeration: {message}")
            }
        }
    }
}

impl std::error::Error for EnumError {}

/// Renders a caught panic payload (from [`std::panic::catch_unwind`])
/// as a human-readable string. `&str` and `String` payloads — the
/// overwhelmingly common cases from `panic!`/`assert!` — are preserved
/// verbatim; anything else becomes a stable placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Statistics reported by a completed enumeration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Cuts emitted to the sink.
    pub cuts: u64,
    /// Peak number of simultaneously stored frontiers (1 for lexical).
    pub peak_frontiers: usize,
    /// Successor-candidate probes performed: one per event examined for
    /// enabledness (BFS/DFS) or per position scanned by the lexical
    /// `advance`. A deterministic work witness — for a fixed interval it
    /// does not vary run to run, so tests can assert on it, and the
    /// `cuts / expansions` ratio exposes each algorithm's per-cut
    /// overhead (the paper's `O(n²)` lexical bound made measurable).
    pub expansions: u64,
}

/// Algorithm selector used by benchmarks and the ParaMount subroutine
/// configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Cooper–Marzullo breadth-first search (exactly-once variant).
    Bfs,
    /// Depth-first search with a visited set.
    Dfs,
    /// Ganter/Garg lexical next-closure.
    Lexical,
    /// Chauhan/Garg space-efficient level traversal (rank-ordered, `O(n)`
    /// live memory).
    Leveled,
    /// Adaptive: picks [`Algorithm::Lexical`] or [`Algorithm::Leveled`]
    /// per interval. Standalone resolution uses the interval's
    /// potential-cut box size (see [`Algorithm::resolve_for_box`]); the
    /// execution engines refine the choice with runtime metrics.
    Auto,
}

/// Box-size threshold (potential cuts in `[gmin, gbnd]`) above which
/// [`Algorithm::Auto`] prefers the leveled walk. Below it an interval is
/// small enough that the lexical scan's lower constant wins; above it the
/// rank-ordered walk costs the same `O(n)` memory and keeps emission
/// breadth-first, which downstream consumers (and the adaptive executor)
/// prefer for wide intervals.
pub const AUTO_BOX_THRESHOLD: u128 = 4096;

impl Algorithm {
    /// Every selectable mode (the concrete traversals plus `auto`), for
    /// exhaustive comparison tests and CLI listings.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Bfs,
        Algorithm::Dfs,
        Algorithm::Lexical,
        Algorithm::Leveled,
        Algorithm::Auto,
    ];

    /// The concrete traversals only — what [`Algorithm::Auto`] may
    /// resolve to, plus the stateful baselines.
    pub const CONCRETE: [Algorithm; 4] = [
        Algorithm::Bfs,
        Algorithm::Dfs,
        Algorithm::Lexical,
        Algorithm::Leveled,
    ];

    /// Short name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Bfs => "bfs",
            Algorithm::Dfs => "dfs",
            Algorithm::Lexical => "lexical",
            Algorithm::Leveled => "leveled",
            Algorithm::Auto => "auto",
        }
    }

    /// Parses the [`Algorithm::name`] spelling back into the selector —
    /// the single source of truth for every user-facing surface (CLI
    /// flags, the ingestion `HELLO` line, environment overrides).
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Algorithm::ALL.into_iter().find(|a| a.name() == name)
    }

    /// Resolves `Auto` for an interval whose potential-cut box (the
    /// product of per-thread extents of `[gmin, gbnd]`) has `box_size`
    /// cells: big boxes take the space-efficient leveled walk, small ones
    /// the lexical scan. Concrete algorithms return themselves.
    pub fn resolve_for_box(self, box_size: u128) -> Algorithm {
        match self {
            Algorithm::Auto if box_size >= AUTO_BOX_THRESHOLD => Algorithm::Leveled,
            Algorithm::Auto => Algorithm::Lexical,
            concrete => concrete,
        }
    }

    /// The potential-cut box size of `[gmin, gbnd]`:
    /// `Π (gbnd_t − gmin_t + 1)`, saturating at `u128::MAX`. The
    /// standalone signal `Auto` resolves on.
    pub fn interval_box_size(gmin: &Frontier, gbnd: &Frontier) -> u128 {
        gmin.as_slice()
            .iter()
            .zip(gbnd.as_slice())
            .fold(1u128, |acc, (&lo, &hi)| {
                acc.saturating_mul(u128::from(hi.saturating_sub(lo)) + 1)
            })
    }

    /// Runs the full enumeration of `poset` through this algorithm.
    pub fn run<Sp: CutSpace + ?Sized, S: CutSink>(
        self,
        poset: &Sp,
        sink: &mut S,
    ) -> Result<EnumStats, EnumError> {
        match self {
            Algorithm::Bfs => bfs::enumerate(poset, &bfs::BfsOptions::default(), sink),
            Algorithm::Dfs => dfs::enumerate(poset, &dfs::DfsOptions::default(), sink),
            Algorithm::Lexical => lexical::enumerate(poset, sink),
            Algorithm::Leveled => leveled::enumerate(poset, sink),
            Algorithm::Auto => {
                let empty = Frontier::empty(poset.num_threads());
                let last = poset.current_frontier();
                let resolved = self.resolve_for_box(Self::interval_box_size(&empty, &last));
                resolved.run(poset, sink)
            }
        }
    }

    /// Runs the bounded enumeration of the interval `[gmin, gbnd]`.
    pub fn run_bounded<Sp: CutSpace + ?Sized, S: CutSink>(
        self,
        poset: &Sp,
        gmin: &Frontier,
        gbnd: &Frontier,
        sink: &mut S,
    ) -> Result<EnumStats, EnumError> {
        self.run_bounded_budgeted(poset, gmin, gbnd, None, sink)
    }

    /// As [`Algorithm::run_bounded`], with a frontier budget for the
    /// stateful subroutines (BFS/DFS). The lexical algorithm is stateless
    /// and ignores the budget — this is the one dispatch point both
    /// execution engines route through.
    pub fn run_bounded_budgeted<Sp: CutSpace + ?Sized, S: CutSink>(
        self,
        poset: &Sp,
        gmin: &Frontier,
        gbnd: &Frontier,
        frontier_budget: Option<usize>,
        sink: &mut S,
    ) -> Result<EnumStats, EnumError> {
        match self {
            Algorithm::Bfs => bfs::enumerate_bounded(
                poset,
                gmin,
                gbnd,
                &bfs::BfsOptions { frontier_budget },
                sink,
            ),
            Algorithm::Dfs => dfs::enumerate_bounded(
                poset,
                gmin,
                gbnd,
                &dfs::DfsOptions { frontier_budget },
                sink,
            ),
            Algorithm::Lexical => lexical::enumerate_bounded(poset, gmin, gbnd, sink),
            Algorithm::Leveled => leveled::enumerate_bounded(poset, gmin, gbnd, sink),
            Algorithm::Auto => {
                // Standalone resolution: box size only. The execution
                // engines resolve `Auto` *before* reaching this dispatch
                // so they can also weigh runtime memory pressure; landing
                // here means a direct library/CLI call.
                let resolved = self.resolve_for_box(Self::interval_box_size(gmin, gbnd));
                resolved.run_bounded_budgeted(poset, gmin, gbnd, frontier_budget, sink)
            }
        }
    }

    /// Runs the full enumeration with the sink boundary isolated behind
    /// [`std::panic::catch_unwind`]: a panicking sink/predicate surfaces
    /// as [`EnumError::Panicked`] instead of unwinding through the caller
    /// (and, in a worker pool, killing the process). Cuts delivered
    /// before the panic have already reached the sink; the enumerators
    /// themselves are stateless across calls, so the caller may re-run
    /// with a repaired sink.
    ///
    /// The closure is wrapped in [`std::panic::AssertUnwindSafe`]: the
    /// sink is reachable after the catch, and any interior state it
    /// mutated mid-panic is the sink's own responsibility — the
    /// enumeration core holds no shared state that a panic can corrupt.
    pub fn run_isolated<Sp: CutSpace + ?Sized, S: CutSink>(
        self,
        poset: &Sp,
        sink: &mut S,
    ) -> Result<EnumStats, EnumError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run(poset, sink)))
            .unwrap_or_else(|payload| {
                Err(EnumError::Panicked {
                    message: panic_message(payload.as_ref()),
                })
            })
    }

    /// Bounded-interval variant of [`Algorithm::run_isolated`].
    pub fn run_bounded_isolated<Sp: CutSpace + ?Sized, S: CutSink>(
        self,
        poset: &Sp,
        gmin: &Frontier,
        gbnd: &Frontier,
        sink: &mut S,
    ) -> Result<EnumStats, EnumError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_bounded(poset, gmin, gbnd, sink)
        }))
        .unwrap_or_else(|payload| {
            Err(EnumError::Panicked {
                message: panic_message(payload.as_ref()),
            })
        })
    }
}

/// Validates the interval precondition shared by all bounded enumerators:
/// both ends consistent and `gmin ≤ gbnd`. Debug-only (hot path).
pub(crate) fn debug_check_interval<Sp: CutSpace + ?Sized>(
    poset: &Sp,
    gmin: &Frontier,
    gbnd: &Frontier,
) {
    debug_assert!(gmin.is_consistent(poset), "gmin must be a consistent cut");
    debug_assert!(gbnd.is_consistent(poset), "gbnd must be a consistent cut");
    debug_assert!(gmin.leq(gbnd), "gmin must be ≤ gbnd");
}
