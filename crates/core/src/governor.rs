//! The overload governor: byte-accounted memory budgets shared across
//! engines, with soft/hard watermarks driving adaptive backpressure and
//! admission control.
//!
//! The ROADMAP names the gap this closes: the backpressure policy used to
//! be chosen statically at construction, so a
//! [`SpillToDeque`](crate::online::BackpressurePolicy::SpillToDeque)
//! engine under sustained overload re-admitted exactly the unbounded
//! memory the bounded queue was meant to cap. A [`MemoryBudget`] makes
//! the overload *observable* (atomic byte accounting of the packed spill
//! buffer and of live event retention) and *actionable*:
//!
//! * **Soft watermark** — the streaming executor promotes
//!   `SpillToDeque → Block`: producers slow down instead of growing the
//!   spill, and the promotion is counted in
//!   [`ParaMetrics::backpressure_promotions`].
//! * **Hard watermark** — new work fails fast with a typed
//!   [`OverloadError`] instead of being buffered, and the ingest daemon
//!   refuses new `HELLO`s with a `busy` frame carrying a retry-after
//!   hint.
//!
//! One budget can be shared by many engines (the daemon threads a single
//! `Arc<MemoryBudget>` through every session), which is what makes the
//! watermarks a *process-wide* statement instead of a per-run one.
//!
//! [`ParaMetrics::backpressure_promotions`]:
//!     crate::metrics::ParaMetrics::backpressure_promotions

use crate::metrics::stat_line;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Governor knobs carried by engine configs (plain `Copy` data — the
/// shared [`MemoryBudget`] itself travels separately as an `Arc`).
///
/// The default turns everything off: no watermarks, no deadline — the
/// governor is strictly opt-in, and a default-configured engine behaves
/// exactly as before it existed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GovernorConfig {
    /// Soft watermark in accounted bytes. At or above it,
    /// `SpillToDeque` submissions block instead of spilling.
    pub soft_spill_bytes: Option<usize>,
    /// Hard watermark in accounted bytes. At or above it, adaptive
    /// submissions are rejected with an [`OverloadError`] and the daemon
    /// refuses new sessions.
    pub hard_spill_bytes: Option<usize>,
    /// Capacity of the **disk** spill tier in bytes. When an engine has
    /// a spill directory, RAM pressure at or past the watermarks moves
    /// cold spill batches to disk instead of blocking or shedding —
    /// disk bytes are accounted here and do *not* count toward
    /// [`Pressure`], so the hard watermark stops being a ceiling on run
    /// size and becomes a ceiling on *RAM*. Work is shed only once the
    /// disk tier itself would exceed this cap (`None` = uncapped).
    pub disk_spill_bytes: Option<usize>,
    /// Deadline for one in-flight interval. When set, the pool's watchdog
    /// thread or an inline per-cut check (offline and online alike)
    /// preempts an interval that overstays: it is split into independently
    /// schedulable sub-intervals if nothing was delivered yet, or
    /// quarantined with its exact delivered prefix otherwise.
    pub interval_deadline: Option<Duration>,
}

/// Where the accounted total sits relative to the watermarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pressure {
    /// Below the soft watermark: configured policies apply unchanged.
    Nominal,
    /// At or past the soft watermark: spill is promoted to blocking.
    Soft,
    /// At or past the hard watermark: new work is shed.
    Hard,
}

/// Atomic byte account shared across engines (and, in the daemon, across
/// sessions): packed spill-buffer bytes plus live retention, compared
/// against the configured watermarks.
///
/// All operations are relaxed atomics — the budget is advisory
/// flow-control state, not a synchronization point, and a submission
/// racing a credit merely sees pressure one interval late.
#[derive(Debug)]
pub struct MemoryBudget {
    spill: AtomicUsize,
    spill_high_water: AtomicUsize,
    retained: AtomicUsize,
    disk: AtomicUsize,
    disk_high_water: AtomicUsize,
    soft: usize,
    hard: usize,
    disk_cap: usize,
}

impl MemoryBudget {
    /// A budget with the config's watermarks (an unset watermark never
    /// trips). A soft watermark above the hard one is clamped down to it.
    pub fn new(config: GovernorConfig) -> Self {
        let hard = config.hard_spill_bytes.unwrap_or(usize::MAX);
        let soft = config.soft_spill_bytes.unwrap_or(usize::MAX).min(hard);
        MemoryBudget {
            spill: AtomicUsize::new(0),
            spill_high_water: AtomicUsize::new(0),
            retained: AtomicUsize::new(0),
            disk: AtomicUsize::new(0),
            disk_high_water: AtomicUsize::new(0),
            soft,
            hard,
            disk_cap: config.disk_spill_bytes.unwrap_or(usize::MAX),
        }
    }

    /// A budget that never trips (both watermarks unset).
    pub fn unlimited() -> Self {
        Self::new(GovernorConfig::default())
    }

    /// Accounts `bytes` entering the packed spill buffer.
    pub fn charge_spill(&self, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let now = self.spill.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.spill_high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Accounts `bytes` leaving the packed spill buffer.
    pub fn credit_spill(&self, bytes: usize) {
        if bytes > 0 {
            self.spill.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// Accounts `bytes` of live retention (event storage held by a
    /// running engine).
    pub fn charge_retained(&self, bytes: usize) {
        if bytes > 0 {
            self.retained.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Releases retention accounted by [`MemoryBudget::charge_retained`].
    pub fn credit_retained(&self, bytes: usize) {
        if bytes > 0 {
            self.retained.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// Accounts `bytes` entering the disk spill tier. Disk bytes do not
    /// feed [`MemoryBudget::pressure`] — moving cold state to disk is
    /// how an engine *relieves* RAM pressure.
    pub fn charge_disk(&self, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let now = self.disk.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.disk_high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Accounts `bytes` leaving the disk spill tier.
    pub fn credit_disk(&self, bytes: usize) {
        if bytes > 0 {
            self.disk.fetch_sub(bytes, Ordering::Relaxed);
        }
    }

    /// Bytes currently in the disk spill tier.
    pub fn disk_bytes(&self) -> usize {
        self.disk.load(Ordering::Relaxed)
    }

    /// Largest disk-tier total ever accounted.
    pub fn disk_high_water(&self) -> usize {
        self.disk_high_water.load(Ordering::Relaxed)
    }

    /// Whether the disk tier can take `bytes` more without exceeding its
    /// cap (always true when uncapped).
    pub fn disk_can_accept(&self, bytes: usize) -> bool {
        self.disk_cap == usize::MAX || self.disk_bytes().saturating_add(bytes) <= self.disk_cap
    }

    /// Bytes currently in spill buffers.
    pub fn spill_bytes(&self) -> usize {
        self.spill.load(Ordering::Relaxed)
    }

    /// Largest spill total ever accounted — the "did the cap hold"
    /// number.
    pub fn spill_high_water(&self) -> usize {
        self.spill_high_water.load(Ordering::Relaxed)
    }

    /// Bytes currently accounted as live retention.
    pub fn retained_bytes(&self) -> usize {
        self.retained.load(Ordering::Relaxed)
    }

    /// Total accounted bytes (spill + retention).
    pub fn accounted_bytes(&self) -> usize {
        self.spill_bytes().saturating_add(self.retained_bytes())
    }

    /// Current pressure level against the watermarks.
    pub fn pressure(&self) -> Pressure {
        let total = self.accounted_bytes();
        if total >= self.hard {
            Pressure::Hard
        } else if total >= self.soft {
            Pressure::Soft
        } else {
            Pressure::Nominal
        }
    }

    /// The typed error describing the current overload (for callers that
    /// just observed [`Pressure::Hard`]).
    pub fn overload_error(&self) -> OverloadError {
        OverloadError {
            accounted_bytes: self.accounted_bytes(),
            hard_watermark: self.hard,
        }
    }

    /// Plain-data view of the account for reports and `stats` output.
    pub fn snapshot(&self) -> BudgetSnapshot {
        BudgetSnapshot {
            spill_bytes: self.spill_bytes() as u64,
            spill_bytes_high_water: self.spill_high_water() as u64,
            retained_bytes: self.retained_bytes() as u64,
            disk_spill_bytes: self.disk_bytes() as u64,
            disk_spill_bytes_high_water: self.disk_high_water() as u64,
            disk_watermark: watermark(self.disk_cap),
            soft_watermark: watermark(self.soft),
            hard_watermark: watermark(self.hard),
        }
    }
}

/// An unset watermark is stored as `usize::MAX`; snapshots report it as
/// `None` so renderers can omit it.
fn watermark(raw: usize) -> Option<u64> {
    (raw != usize::MAX).then_some(raw as u64)
}

/// Owned, comparable snapshot of a [`MemoryBudget`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BudgetSnapshot {
    /// Bytes in spill buffers at snapshot time.
    pub spill_bytes: u64,
    /// Largest spill total ever accounted.
    pub spill_bytes_high_water: u64,
    /// Live retention bytes at snapshot time.
    pub retained_bytes: u64,
    /// Bytes in the disk spill tier at snapshot time.
    pub disk_spill_bytes: u64,
    /// Largest disk-tier total ever accounted.
    pub disk_spill_bytes_high_water: u64,
    /// Configured disk-tier cap, if any.
    pub disk_watermark: Option<u64>,
    /// Configured soft watermark, if any.
    pub soft_watermark: Option<u64>,
    /// Configured hard watermark, if any.
    pub hard_watermark: Option<u64>,
}

impl BudgetSnapshot {
    /// The `metric` of [`BudgetSnapshot::to_json_line`] — what the fleet
    /// router's probe looks for in a shard's STATS reply.
    pub const METRIC: &'static str = "memory_budget";

    /// One JSON object line in the metrics vocabulary (a gauge line of
    /// [`MetricsSnapshot`](crate::metrics::MetricsSnapshot) with the
    /// account's other totals and its configured watermarks appended).
    pub fn to_json_line(&self, label: &str) -> String {
        let mut line = stat_line(label, Self::METRIC, "gauge")
            .u64("value", self.spill_bytes)
            .u64("high_water", self.spill_bytes_high_water)
            .u64("retained", self.retained_bytes);
        if self.disk_spill_bytes_high_water > 0 || self.disk_watermark.is_some() {
            line = line
                .u64("disk", self.disk_spill_bytes)
                .u64("disk_high_water", self.disk_spill_bytes_high_water);
        }
        for (key, watermark) in [
            ("disk_cap", self.disk_watermark),
            ("soft", self.soft_watermark),
            ("hard", self.hard_watermark),
        ] {
            if let Some(bytes) = watermark {
                line = line.u64(key, bytes);
            }
        }
        line.finish()
    }
}

/// Typed overload error: the account crossed the hard watermark and new
/// work was shed instead of buffered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadError {
    /// Accounted bytes (spill + retention) when the shed happened.
    pub accounted_bytes: usize,
    /// The configured hard watermark.
    pub hard_watermark: usize,
}

impl std::fmt::Display for OverloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory budget exhausted: {} accounted bytes at or past the hard watermark ({})",
            self.accounted_bytes, self.hard_watermark
        )
    }
}

impl std::error::Error for OverloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(soft: usize, hard: usize) -> GovernorConfig {
        GovernorConfig {
            soft_spill_bytes: Some(soft),
            hard_spill_bytes: Some(hard),
            ..GovernorConfig::default()
        }
    }

    #[test]
    fn pressure_crosses_watermarks_in_order() {
        let b = MemoryBudget::new(config(100, 200));
        assert_eq!(b.pressure(), Pressure::Nominal);
        b.charge_spill(99);
        assert_eq!(b.pressure(), Pressure::Nominal);
        b.charge_spill(1);
        assert_eq!(b.pressure(), Pressure::Soft);
        b.charge_spill(100);
        assert_eq!(b.pressure(), Pressure::Hard);
        b.credit_spill(150);
        assert_eq!(b.pressure(), Pressure::Nominal);
        assert_eq!(b.spill_high_water(), 200);
        assert_eq!(b.spill_bytes(), 50);
    }

    #[test]
    fn retention_counts_toward_pressure_but_not_spill_high_water() {
        let b = MemoryBudget::new(config(10, 20));
        b.charge_retained(15);
        assert_eq!(b.pressure(), Pressure::Soft);
        assert_eq!(b.spill_high_water(), 0);
        b.charge_retained(5);
        assert_eq!(b.pressure(), Pressure::Hard);
        b.credit_retained(20);
        assert_eq!(b.pressure(), Pressure::Nominal);
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = MemoryBudget::unlimited();
        b.charge_spill(usize::MAX / 2);
        b.charge_retained(usize::MAX / 4);
        assert_eq!(b.pressure(), Pressure::Nominal);
        let snap = b.snapshot();
        assert_eq!(snap.soft_watermark, None);
        assert_eq!(snap.hard_watermark, None);
    }

    #[test]
    fn soft_watermark_clamps_to_hard() {
        let b = MemoryBudget::new(GovernorConfig {
            soft_spill_bytes: Some(500),
            hard_spill_bytes: Some(100),
            ..GovernorConfig::default()
        });
        b.charge_spill(100);
        assert_eq!(b.pressure(), Pressure::Hard);
    }

    #[test]
    fn snapshot_renders_one_json_object() {
        let b = MemoryBudget::new(config(64, 256));
        b.charge_spill(10);
        b.charge_retained(7);
        let line = b.snapshot().to_json_line("ingest");
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"metric\":\"memory_budget\""), "{line}");
        assert!(line.contains("\"value\":10"), "{line}");
        assert!(line.contains("\"retained\":7"), "{line}");
        assert!(line.contains("\"soft\":64"), "{line}");
        assert!(line.contains("\"hard\":256"), "{line}");
    }

    #[test]
    fn overload_error_reports_the_numbers() {
        let b = MemoryBudget::new(config(1, 2));
        b.charge_spill(5);
        let err = b.overload_error();
        assert_eq!(err.accounted_bytes, 5);
        assert_eq!(err.hard_watermark, 2);
        let text = err.to_string();
        assert!(text.contains('5') && text.contains('2'), "{text}");
    }

    #[test]
    fn disk_tier_relieves_pressure_and_respects_its_cap() {
        let b = MemoryBudget::new(GovernorConfig {
            soft_spill_bytes: Some(10),
            hard_spill_bytes: Some(20),
            disk_spill_bytes: Some(100),
            ..GovernorConfig::default()
        });
        b.charge_spill(20);
        assert_eq!(b.pressure(), Pressure::Hard);
        // Moving the bytes to disk relieves RAM pressure entirely.
        b.credit_spill(20);
        b.charge_disk(20);
        assert_eq!(b.pressure(), Pressure::Nominal);
        assert_eq!(b.disk_bytes(), 20);
        assert!(b.disk_can_accept(80));
        assert!(!b.disk_can_accept(81));
        b.credit_disk(5);
        assert_eq!(b.disk_bytes(), 15);
        assert_eq!(b.disk_high_water(), 20);
        let line = b.snapshot().to_json_line("x");
        assert!(line.contains("\"disk\":15"), "{line}");
        assert!(line.contains("\"disk_high_water\":20"), "{line}");
        assert!(line.contains("\"disk_cap\":100"), "{line}");
    }

    #[test]
    fn uncapped_disk_tier_accepts_everything_and_stays_out_of_json() {
        let b = MemoryBudget::unlimited();
        assert!(b.disk_can_accept(usize::MAX));
        let line = b.snapshot().to_json_line("x");
        assert!(!line.contains("disk"), "{line}");
    }

    #[test]
    fn pressure_ordering_is_usable_for_comparisons() {
        assert!(Pressure::Nominal < Pressure::Soft);
        assert!(Pressure::Soft < Pressure::Hard);
    }
}
