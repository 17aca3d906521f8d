//! Fault containment and deterministic fault injection.
//!
//! The interval decomposition (Lemmas 1–3, Theorem 2) makes intervals
//! `I(e) = [Gmin(e), Gbnd(e)]` *disjoint* and *covering*: every
//! consistent cut belongs to exactly one interval. That independence is
//! what makes graceful degradation sound — a panic while enumerating one
//! interval cannot corrupt any other interval's output, so the engine
//! can quarantine the failed interval, keep enumerating the rest, and
//! report an **exact** account of what was skipped instead of aborting
//! the whole run.
//!
//! Two halves live here:
//!
//! * **Containment** (always compiled): [`QuarantinedInterval`],
//!   [`FaultLog`], and [`Outcome`] — the record of faults survived and
//!   the degraded-result contract carried by `OnlineReport`/`ParaStats`.
//! * **Injection** (sites gated behind the `chaos` cargo feature):
//!   [`FaultPlan`] and [`FaultState`] — a seeded, `Copy` plan of
//!   deterministic faults (panic the sink at the k-th call, fail queue
//!   sends, delay workers, fail worker spawns, kill a daemon session
//!   mid-stream) threaded through engine and daemon config. The plan
//!   type exists on every build so configs stay feature-independent;
//!   without `chaos` no injection site is compiled and the plan is
//!   inert.

use crate::interval::Interval;
use std::sync::atomic::{AtomicU64, Ordering};

/// One interval the engine gave up on after a contained panic (or an
/// injected dispatch fault). Carries everything needed to account for —
/// or later re-enumerate — the skipped work.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedInterval {
    /// The quarantined interval: its `Gmin`/`Gbnd` pair (and owner
    /// event). `interval.box_size()` bounds the cuts it contains.
    pub interval: Interval,
    /// Cuts from this interval that *were* delivered to the sink before
    /// the fault (counted after each sink call returned). Deterministic
    /// subroutines enumerate a fixed order per interval, so this prefix
    /// length identifies exactly which cuts the sink saw.
    pub cuts_emitted: u64,
    /// Processing attempts made (1 = failed first try with partial
    /// output, so no retry; 2 = clean retry also failed).
    pub attempts: u32,
    /// Stringified panic payload (or injection-site description).
    pub message: String,
}

impl QuarantinedInterval {
    /// Upper bound on cuts this quarantine skipped: the interval's box
    /// volume (including the empty cut when the interval owns it) minus
    /// the prefix already delivered. The box volume over-approximates
    /// the *consistent* cuts in the interval, so the true loss is ≤
    /// this; re-enumerating `[gmin, gbnd]` offline recovers it exactly.
    pub fn skipped_cuts_bound(&self) -> u128 {
        let total = self.interval.box_size() + u128::from(self.interval.include_empty);
        total.saturating_sub(u128::from(self.cuts_emitted))
    }
}

/// The record of every fault a run survived. Empty on a clean run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Quarantined intervals, in the order they were abandoned.
    pub quarantined: Vec<QuarantinedInterval>,
}

impl FaultLog {
    /// No faults recorded?
    pub fn is_empty(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Number of quarantined intervals.
    pub fn len(&self) -> usize {
        self.quarantined.len()
    }

    /// Exact upper bound on cuts lost to quarantine across the run
    /// (sum of per-interval bounds).
    pub fn skipped_cuts_bound(&self) -> u128 {
        self.quarantined
            .iter()
            .map(QuarantinedInterval::skipped_cuts_bound)
            .sum()
    }

    /// The run's outcome view: [`Outcome::Complete`] iff nothing was
    /// quarantined.
    pub fn outcome(&self) -> Outcome<'_> {
        if self.is_empty() {
            Outcome::Complete
        } else {
            Outcome::Degraded(self)
        }
    }

    pub(crate) fn push(&mut self, entry: QuarantinedInterval) {
        self.quarantined.push(entry);
    }
}

/// Did an enumeration deliver the whole lattice, or survive faults by
/// quarantining intervals?
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome<'a> {
    /// Every interval completed: the emitted cut set is exactly the
    /// lattice (Theorem 2 / Theorem 3 semantics, unchanged).
    Complete,
    /// Some intervals were quarantined. The emitted cut set is exactly
    /// the lattice **minus** the quarantined intervals' remainders; the
    /// log bounds the loss and carries each `Gmin`/`Gbnd` for offline
    /// recovery.
    Degraded(&'a FaultLog),
}

impl Outcome<'_> {
    /// `true` for [`Outcome::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete)
    }
}

/// A seeded, deterministic plan of faults to inject. Plain `Copy` data
/// so it can ride inside the engine/session/server config structs; all
/// fields default to "inject nothing".
///
/// Injection sites only exist when the crate is built with the `chaos`
/// feature; release builds carry the plan but never consult it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into the pseudo-random injections (`sink_panic_every`)
    /// and the client backoff jitter, so every chaos run is replayable.
    pub seed: u64,
    /// Panic the sink boundary on exactly the k-th cut delivery
    /// (1-based, counted across all workers).
    pub sink_panic_at: Option<u64>,
    /// Panic the sink boundary pseudo-randomly at rate ~1/n, seeded —
    /// the "many intervals quarantined" stressor.
    pub sink_panic_every: Option<u64>,
    /// Panic the worker *outside* the per-interval catch (simulating a
    /// dying worker thread) when it picks up the k-th interval
    /// (1-based, counted across all workers). Exercises the supervisor
    /// respawn path.
    pub worker_kill_at: Option<u64>,
    /// Treat every n-th queue send as failed at dispatch (1-based): the
    /// interval is quarantined with zero emitted cuts instead of being
    /// enqueued.
    pub send_fail_every: Option<u64>,
    /// Sleep this many microseconds before processing each interval —
    /// widens race windows for the other injections.
    pub worker_delay_us: Option<u64>,
    /// Fail the first k worker-spawn attempts at engine construction,
    /// exercising the degrade-to-fewer-workers path (all spawns failing
    /// degrades to inline enumeration on the observer thread).
    pub spawn_fail_first: u32,
    /// Daemon only: panic the session's connection thread after it has
    /// applied this many EVENT frames — the "session killed mid-stream"
    /// fault. Exercises `EndReason::Fault` finalization.
    pub session_panic_after: Option<u64>,
}

impl FaultPlan {
    /// Does this plan inject anything at the sink boundary?
    pub fn arms_sink(&self) -> bool {
        self.sink_panic_at.is_some() || self.sink_panic_every.is_some()
    }

    /// Does this plan inject anything at all? (Used by tests and the
    /// engine to skip wrapper setup on inert plans.)
    pub fn is_inert(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Should the k-th sink call (1-based) panic under this plan?
    pub fn sink_call_faults(&self, call: u64) -> bool {
        if self.sink_panic_at == Some(call) {
            return true;
        }
        match self.sink_panic_every {
            Some(every) if every > 0 => splitmix64(self.seed ^ call) % every == 0,
            _ => false,
        }
    }

    /// Should the k-th dispatched send (1-based) fail under this plan?
    pub fn send_faults(&self, send: u64) -> bool {
        matches!(self.send_fail_every, Some(every) if every > 0 && send % every == 0)
    }

    /// Should the k-th interval pickup (1-based) kill its worker?
    pub fn pickup_kills_worker(&self, pickup: u64) -> bool {
        self.worker_kill_at == Some(pickup)
    }

    /// Should the k-th worker-spawn attempt (1-based) fail?
    pub fn spawn_faults(&self, attempt: u64) -> bool {
        attempt <= u64::from(self.spawn_fail_first)
    }
}

/// Shared runtime counters backing a [`FaultPlan`]'s "k-th call" sites.
/// Lives in the engine/daemon shared state; always compiled (a few
/// atomics) so the struct layout doesn't change with the feature.
#[derive(Debug, Default)]
pub struct FaultState {
    /// Sink deliveries attempted (pre-increment, so the first call is 1).
    pub sink_calls: AtomicU64,
    /// Intervals picked up by workers.
    pub pickups: AtomicU64,
    /// Queue sends attempted at dispatch.
    pub sends: AtomicU64,
    /// Worker-spawn attempts.
    pub spawns: AtomicU64,
}

impl FaultState {
    /// Next 1-based sink-call ordinal.
    pub fn next_sink_call(&self) -> u64 {
        self.sink_calls.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Next 1-based interval-pickup ordinal.
    pub fn next_pickup(&self) -> u64 {
        self.pickups.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Next 1-based send ordinal.
    pub fn next_send(&self) -> u64 {
        self.sends.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Next 1-based spawn ordinal.
    pub fn next_spawn(&self) -> u64 {
        self.spawns.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// SplitMix64 mixer — the standard 64-bit finalizer (Steele et al.),
/// used for seeded injection decisions and backoff jitter. Deterministic
/// and dependency-free.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paramount_poset::Frontier;

    fn sample_interval(include_empty: bool) -> Interval {
        Interval {
            event: paramount_poset::EventId {
                tid: paramount_poset::Tid(0),
                index: 0,
            },
            gmin: Frontier::from_counts(vec![1, 0]),
            gbnd: Frontier::from_counts(vec![2, 3]),
            include_empty,
        }
    }

    #[test]
    fn skipped_bound_subtracts_emitted_prefix() {
        let q = QuarantinedInterval {
            interval: sample_interval(false),
            cuts_emitted: 3,
            attempts: 1,
            message: "boom".into(),
        };
        // box: (2-1+1) * (3-0+1) = 8; minus 3 emitted.
        assert_eq!(q.skipped_cuts_bound(), 5);
        let with_empty = QuarantinedInterval {
            interval: sample_interval(true),
            ..q
        };
        assert_eq!(with_empty.skipped_cuts_bound(), 6);
    }

    #[test]
    fn fault_log_outcome_and_totals() {
        let mut log = FaultLog::default();
        assert!(log.outcome().is_complete());
        assert_eq!(log.skipped_cuts_bound(), 0);
        log.push(QuarantinedInterval {
            interval: sample_interval(false),
            cuts_emitted: 0,
            attempts: 2,
            message: "boom".into(),
        });
        assert_eq!(log.len(), 1);
        assert!(!log.outcome().is_complete());
        assert_eq!(log.skipped_cuts_bound(), 8);
        match log.outcome() {
            Outcome::Degraded(l) => assert_eq!(l.len(), 1),
            Outcome::Complete => panic!("log is non-empty"),
        }
    }

    #[test]
    fn plan_injection_decisions_are_deterministic() {
        let plan = FaultPlan {
            seed: 42,
            sink_panic_at: Some(7),
            sink_panic_every: Some(16),
            send_fail_every: Some(5),
            worker_kill_at: Some(3),
            spawn_fail_first: 2,
            ..FaultPlan::default()
        };
        assert!(!plan.is_inert());
        assert!(plan.arms_sink());
        assert!(plan.sink_call_faults(7));
        assert!(plan.send_faults(5) && plan.send_faults(10) && !plan.send_faults(4));
        assert!(plan.pickup_kills_worker(3) && !plan.pickup_kills_worker(4));
        assert!(plan.spawn_faults(1) && plan.spawn_faults(2) && !plan.spawn_faults(3));
        // Seeded decisions replay identically.
        let replay: Vec<bool> = (1..=100).map(|c| plan.sink_call_faults(c)).collect();
        assert_eq!(
            replay,
            (1..=100)
                .map(|c| plan.sink_call_faults(c))
                .collect::<Vec<_>>()
        );
        assert!(
            replay.iter().any(|&b| b),
            "rate ~1/16 over 100 calls should fire"
        );
        assert!(FaultPlan::default().is_inert());
        assert!(!FaultPlan::default().sink_call_faults(1));
        assert!(!FaultPlan::default().send_faults(1));
        assert!(!FaultPlan::default().spawn_faults(1));
    }

    #[test]
    fn fault_state_counters_are_one_based() {
        let st = FaultState::default();
        assert_eq!(st.next_sink_call(), 1);
        assert_eq!(st.next_sink_call(), 2);
        assert_eq!(st.next_pickup(), 1);
        assert_eq!(st.next_send(), 1);
        assert_eq!(st.next_spawn(), 1);
    }

    #[test]
    fn splitmix_is_a_bijective_mixer() {
        // Distinct inputs give distinct outputs (sanity on a small set).
        let outs: std::collections::HashSet<u64> = (0..1000).map(splitmix64).collect();
        assert_eq!(outs.len(), 1000);
    }
}
