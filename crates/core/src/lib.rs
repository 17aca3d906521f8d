#![warn(missing_docs)]
//! **ParaMount** — the first parallel and online algorithm for global-states
//! enumeration (Chang & Garg, PPoPP 2015).
//!
//! The lattice of consistent cuts of an event poset is partitioned into one
//! *interval* per event `e` (§3.1 of the paper):
//!
//! ```text
//! I(e) = { G consistent | Gmin(e) ≤ G ≤ Gbnd(e) }
//! Gmin(e) = e.vc                       — least cut containing e
//! Gbnd(e) = { f | f = e ∨ f →p e }     — everything at or before e in a
//!                                        fixed total (topological) order →p
//! ```
//!
//! The intervals are pairwise disjoint and jointly cover every cut (the
//! paper's Lemmas 2–3; the empty cut is assigned to the first event of
//! `→p`), so any *bounded* sequential enumerator — BFS, DFS or lexical from
//! [`paramount_enumerate`] — can process intervals independently on as many
//! threads as desired, with no shared mutable state and no duplicated or
//! missed cuts (Theorem 2). With the lexical subroutine the scheme does
//! `O(n²·i(P))` total work, the same as the sequential algorithm: ParaMount
//! is work-optimal.
//!
//! This crate provides both execution modes:
//!
//! * [`offline`] — Algorithm 1: partition a complete poset and let scoped
//!   workers pull the intervals off the shared `→p` order one at a time
//!   (which soaks up the wildly uneven interval sizes).
//! * [`online`] — Algorithm 4: events arrive one at a time *while the
//!   program under observation is still running*; each insertion atomically
//!   computes its interval from a snapshot of the current maximal events
//!   and hands it to a worker pool. The store is an append-only,
//!   lock-free-for-readers structure ([`store::AppendVec`]), so bounded
//!   enumerations proceed concurrently with insertions (Theorem 3).
//!
//! Both modes are thin front-ends over one interval-execution core
//! ([`exec`]): one worker pool with the same subroutine dispatch,
//! panic-isolation boundary, split/retry/quarantine protocol and metrics
//! registry, fed from a finished partition or from a live channel.
//!
//! Consumers receive cuts through [`ParallelCutSink`], the `Sync` analog of
//! the sequential [`paramount_enumerate::CutSink`].

pub mod exec;
pub mod faults;
pub mod governor;
pub mod interval;
pub mod json;
pub mod metrics;
pub mod offline;
pub mod online;
mod sink;
pub mod store;

pub use faults::{FaultLog, FaultPlan, Outcome, QuarantinedInterval};
pub use governor::{BudgetSnapshot, GovernorConfig, MemoryBudget, OverloadError, Pressure};
pub use interval::{measure_interval_work, partition, partition_packed, Interval};
pub use metrics::{
    FleetMetrics, FleetSnapshot, HistogramSnapshot, IngestMetrics, IngestSnapshot, MetricsSnapshot,
    ParaMetrics, WorkerSnapshot,
};
pub use offline::{ParaMount, ParaStats};
pub use online::{BackpressurePolicy, OnlineEngine, OnlineEngineConfig, OnlinePoset, OnlineReport};
pub use sink::{AtomicCountSink, ConcurrentCollectSink, MeteredSink, ParallelCutSink, SinkBridge};

pub use paramount_enumerate::{panic_message, Algorithm, EnumError, EnumStats};
pub use paramount_poset::{CutRef, CutSpace, EventId, Frontier, Poset, Tid, VectorClock};
