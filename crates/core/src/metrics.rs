//! **ParaMetrics** — the observability layer of both execution modes, of
//! the ingestion daemon and of the fleet router.
//!
//! Every instrument is declared **once**, as one row of one of three
//! tables ([`ParaMetrics`], [`IngestMetrics`], [`FleetMetrics`]):
//!
//! ```text
//! /// doc comment: the field's documentation and the row's help text
//! Kind name [/ high_water_field], text;
//! ```
//!
//! * `Kind` is `Counter` ([`ShardedCounter`]), `Gauge` or `HighWater`
//!   ([`HighWaterGauge`]; only `HighWater` reports its mark) or `Histogram`
//!   ([`Log2Histogram`]); a row's [`MetricValue`] tells them apart.
//! * `name` is the registry field, the snapshot field and the `metric` of
//!   the JSON line. `/ high_water_field` names the snapshot field holding
//!   a gauge's mark; on a plain `Gauge` the mark is folded into the
//!   snapshot and shown in no report.
//! * `text` is the row's line in the human report ([`text`]), or `None`
//!   when it has no line of its own: the row is JSON-only, or one of the
//!   composite lines written out in the snapshot's `render_text` (`auto
//!   dispatch`, `disk spill bytes`, `shards`, the lease block, histogram
//!   summaries) covers it.
//!
//! From a table the macro derives the registry struct, its snapshot
//! struct, `snapshot()`, `ROWS` and `values()`; **adding a metric is adding
//! one row**. An exposition is one function over `ROWS` zipped with
//! `values()` — [`json_report`] and [`text_report`] are the two that exist.
//! Rows are declared in JSON-lines order; the text report sorts by
//! [`TextLine::at`]. A JSON line is `{"label":…,"metric":…,"type":…`
//! followed by `value` (counter), `value` and `high_water` (gauge), or
//! `count`, `sum`, `max`, `p50`, `p99`, `buckets` (histogram).
//!
//! Registries stay plain structs of named instruments, so a recording site
//! is one field access and one relaxed atomic op (sharded across cache
//! lines for what is touched per *cut*); the table is walked only when a
//! report is rendered. Snapshots are plain data (`Clone + Eq`, owning
//! everything), so reports outlive the engine and can be diffed in tests.
//! DESIGN §5c argues the choices.

use crate::json;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of shards in a [`ShardedCounter`]. Eight 64-byte lines absorb
/// the handful of enumeration workers the engine runs without false
/// sharing; the sum is only folded on snapshot.
const SHARDS: usize = 8;

/// Histogram buckets: value 0, then one bucket per power of two up to
/// `2^63` (bucket `i` holds values in `[2^(i-1), 2^i)`).
pub const HISTOGRAM_BUCKETS: usize = 65;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Monotone counter sharded across cache lines.
///
/// `add` picks a per-thread shard (round-robin assignment on first use),
/// so concurrent workers never contend on one line; `sum` folds all
/// shards — exact once writers have quiesced, approximate while live.
#[derive(Default)]
pub struct ShardedCounter {
    shards: [PaddedU64; SHARDS],
}

thread_local! {
    static THREAD_SHARD: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS
    };
}

impl ShardedCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` on this thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        THREAD_SHARD.with(|&s| self.shards[s].0.fetch_add(n, Ordering::Relaxed));
    }

    /// Adds `n` on an explicit shard (workers pass their index — cheaper
    /// than the thread-local lookup and deterministic in tests).
    #[inline]
    pub fn add_on(&self, shard: usize, n: u64) {
        self.shards[shard % SHARDS]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Folded total across shards.
    pub fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShardedCounter({})", self.sum())
    }
}

/// A current-value gauge that also remembers its high-water mark.
///
/// The queue-depth instrument: `inc` on dispatch, `dec` on receive; the
/// high-water mark is the backpressure headline number.
#[derive(Default, Debug)]
pub struct HighWaterGauge {
    value: AtomicU64,
    high_water: AtomicU64,
}

impl HighWaterGauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the gauge by one and folds the new value into the mark.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Lowers the gauge by one.
    #[inline]
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Raises the gauge by `n` and folds the new value into the mark —
    /// the byte-accounting form used by the spill-size instrument.
    #[inline]
    pub fn add(&self, n: u64) {
        let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Lowers the gauge by `n`.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Sets the gauge to an absolute value and folds it into the mark —
    /// for instruments that republish a recomputed total (e.g. the fleet
    /// prober's shard-state counts) instead of tracking deltas.
    #[inline]
    pub fn set(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
        self.high_water.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest value ever observed.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// Lock-free histogram with log₂ buckets — the shape instrument for
/// quantities that span orders of magnitude (per-interval cut counts,
/// critical-section nanoseconds).
pub struct Log2Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `1 + floor(log2(v))`.
#[inline]
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

impl Log2Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values. With [`Log2Histogram::count`] this
    /// gives a live mean without folding a snapshot — the adaptive
    /// dispatcher reads it on the hot path.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observed value so far.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Log2Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Log2Histogram(count={})", self.count())
    }
}

/// Per-worker busy/idle accounting. Workers time themselves around the
/// blocking receive (idle) and the interval enumeration (busy).
#[derive(Default, Debug)]
pub struct WorkerTally {
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    intervals: AtomicU64,
}

impl WorkerTally {
    /// Adds enumeration time.
    #[inline]
    pub fn add_busy(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Adds queue-wait time.
    #[inline]
    pub fn add_idle(&self, ns: u64) {
        self.idle_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Counts one completed interval.
    #[inline]
    pub fn add_interval(&self) {
        self.intervals.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WorkerSnapshot {
        WorkerSnapshot {
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            idle_ns: self.idle_ns.load(Ordering::Relaxed),
            intervals: self.intervals.load(Ordering::Relaxed),
        }
    }
}

/// Owned, comparable snapshot of a [`Log2Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation counts per log₂ bucket (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 < q <= 1.0`), or 0 when empty. A bucket upper bound is
    /// `2^i - 1`, so the estimate is exact to within one power of two —
    /// plenty for skew reporting.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        self.max
    }

    /// Iterator over the non-empty buckets as `(lower, upper, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower_bound(i), bucket_upper_bound(i), c))
    }
}

/// Smallest value that lands in bucket `i`.
fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Largest value that lands in bucket `i`.
fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// Owned snapshot of one worker's tally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Nanoseconds spent enumerating intervals.
    pub busy_ns: u64,
    /// Nanoseconds spent waiting on the dispatch queue.
    pub idle_ns: u64,
    /// Intervals this worker completed.
    pub intervals: u64,
}

impl WorkerSnapshot {
    /// Fraction of accounted time spent busy (0 when nothing recorded).
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// A row's line in the human report: `label: value note`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TextLine {
    /// Position in the report: lines sort by it, ties keep table order.
    pub at: u8,
    /// What precedes the colon.
    pub label: &'static str,
    /// [`ALWAYS`] printed, or only once the counter (or the gauge's mark)
    /// is [`NONZERO`].
    pub always: bool,
    /// Remark after the value (empty for none).
    pub note: &'static str,
}

/// [`TextLine::always`]: the line is printed even at zero.
pub const ALWAYS: bool = true;
/// [`TextLine::always`]: the line appears with the first count.
pub const NONZERO: bool = false;

/// The `text` column of a row that has a line of its own.
pub const fn text(
    at: u8,
    label: &'static str,
    always: bool,
    note: &'static str,
) -> Option<TextLine> {
    Some(TextLine {
        at,
        label,
        always,
        note,
    })
}

/// One declared metric: everything an exposition needs besides the value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricRow {
    /// Field name and JSON `metric`.
    pub name: &'static str,
    /// The row's doc comment.
    pub help: &'static str,
    /// The row's own line in the text report, if it has one.
    pub text: Option<TextLine>,
}

/// A row's folded value, borrowed from a snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricValue<'a> {
    /// Folded counter total.
    Counter(u64),
    /// Gauge reading and, for a `HighWater` row, its mark.
    Gauge(u64, Option<u64>),
    /// Folded histogram.
    Histogram(&'a HistogramSnapshot),
}

/// Per-kind pieces of [`metric_table!`].
#[rustfmt::skip]
macro_rules! kind {
    (@instrument Counter) => { ShardedCounter };
    (@instrument Histogram) => { Log2Histogram };
    (@instrument $gauge:ident) => { HighWaterGauge };
    (@snapshot Histogram) => { HistogramSnapshot };
    (@snapshot $scalar:ident) => { u64 };
    (@fold Counter, $field:expr) => { $field.sum() };
    (@fold Histogram, $field:expr) => { $field.snapshot() };
    (@fold $gauge:ident, $field:expr) => { $field.get() };
    (@value Counter, $s:expr, $name:ident) => { MetricValue::Counter($s.$name) };
    (@value Histogram, $s:expr, $name:ident) => { MetricValue::Histogram(&$s.$name) };
    (@value Gauge, $s:expr, $name:ident $(, $hw:ident)?) => { MetricValue::Gauge($s.$name, None) };
    (@value HighWater, $s:expr, $name:ident, $hw:ident) => { MetricValue::Gauge($s.$name, Some($s.$hw)) };
}

/// Declares a registry and its snapshot from one table (row schema in the
/// module docs). `extra` carries one field that is not a metric: its
/// registry type, its snapshot type and the function folding the first
/// into the second.
macro_rules! metric_table {
    (
        $(#[$registry_doc:meta])* pub struct $Registry:ident =>
        $(#[$snapshot_doc:meta])* $Snapshot:ident {
            $( $(#[doc = $doc:literal])+ $kind:ident $name:ident $(/ $hw:ident)?, $text:expr; )*
        }
        $( extra { $(#[$xdoc:meta])* $xname:ident: $xinstrument:ty => $xsnapshot:ty = $xfold:path } )?
    ) => {
        $(#[$registry_doc])*
        #[derive(Debug, Default)]
        pub struct $Registry {
            $( $(#[doc = $doc])+ pub $name: kind!(@instrument $kind), )*
            $( $xname: $xinstrument, )?
        }

        impl $Registry {
            /// Folds every instrument into an owned snapshot — exact once
            /// the writers have quiesced, approximate while they run.
            pub fn snapshot(&self) -> $Snapshot {
                $Snapshot {
                    $( $name: kind!(@fold $kind, self.$name), $( $hw: self.$name.high_water(), )? )*
                    $( $xname: $xfold(&self.$xname), )?
                }
            }
        }

        $(#[$snapshot_doc])*
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct $Snapshot {
            $(
                $(#[doc = $doc])+
                pub $name: kind!(@snapshot $kind),
                $( #[doc = concat!("High-water mark of `", stringify!($name), "`.")] pub $hw: u64, )?
            )*
            $( $(#[$xdoc])* pub $xname: $xsnapshot, )?
        }

        impl $Snapshot {
            /// The registry's table, in JSON-lines order.
            pub const ROWS: &'static [MetricRow] = &[ $( MetricRow {
                name: stringify!($name),
                help: concat!($($doc, "\n"),+).trim_ascii(),
                text: $text,
            }, )* ];

            /// This snapshot's values, parallel to [`Self::ROWS`].
            pub fn values(&self) -> Vec<MetricValue<'_>> {
                vec![ $( kind!(@value $kind, self, $name $(, $hw)?), )* ]
            }
        }
    };
}

metric_table! {
    /// The registry: every instrument both engines record into.
    ///
    /// One registry is shared per engine run (`Arc` between the engine, its
    /// workers and any live observer); [`ParaMetrics::snapshot`] folds it
    /// into plain data at any time.
    pub struct ParaMetrics =>
    /// Plain-data snapshot of a whole [`ParaMetrics`] registry.
    MetricsSnapshot {
        /// Events inserted into the (online) poset.
        Counter events_inserted, text(1, "events inserted", ALWAYS, "");
        /// Intervals handed to the worker pool.
        Counter intervals_dispatched, text(2, "intervals dispatched", ALWAYS, "");
        /// Intervals fully enumerated.
        Counter intervals_completed, text(3, "intervals completed", ALWAYS, "");
        /// Intervals diverted to the overflow deque.
        ///
        /// See [`BackpressurePolicy::SpillToDeque`](crate::online::BackpressurePolicy::SpillToDeque).
        Counter intervals_spilled, text(4, "intervals spilled", NONZERO, "");
        /// Intervals dropped at dispatch by the `Fail` backpressure policy.
        ///
        /// [`BackpressurePolicy::Fail`](crate::online::BackpressurePolicy::Fail)
        /// with a saturated queue — any nonzero value means the cut count is
        /// not Theorem-2 complete and the report says so.
        Counter intervals_rejected,
            text(5, "intervals REJECTED", NONZERO, "(Fail policy: cut count is incomplete)");
        /// Cuts emitted to the sink.
        Counter cuts_emitted, text(16, "cuts emitted", ALWAYS, "");
        /// Worker panics contained at the per-interval `catch_unwind` boundary
        /// (sink/predicate panics and injected faults alike).
        Counter worker_panics, text(6, "worker panics", NONZERO, "");
        /// Intervals abandoned into the fault log after a contained panic.
        ///
        /// Or after an injected dispatch fault: any nonzero value means the
        /// run is [`Outcome::Degraded`](crate::faults::Outcome::Degraded) and
        /// the [`FaultLog`](crate::faults::FaultLog) says which intervals.
        Counter intervals_quarantined,
            text(7, "intervals QUARANTINED", NONZERO, "(degraded: see fault log for Gmin/Gbnd)");
        /// Intervals re-run after a panic that emitted zero cuts (the one
        /// bounded retry before quarantine).
        Counter intervals_retried, text(8, "intervals retried", NONZERO, "");
        /// Worker bodies restarted by the supervisor after an escaped panic.
        Counter worker_restarts, text(9, "worker restarts", NONZERO, "");
        /// Worker threads that could not be spawned at engine construction
        /// (the engine degrades to the workers that did start).
        Counter worker_spawn_failures, text(10, "worker spawn failures", NONZERO, "(pool degraded)");
        /// `SpillToDeque` submissions promoted to blocking by the soft watermark
        /// of the [`MemoryBudget`](crate::governor::MemoryBudget).
        Counter backpressure_promotions,
            text(11, "backpressure promotions", NONZERO, "(soft watermark: spill became blocking)");
        /// In-flight intervals preempted by the watchdog on deadline expiry —
        /// each was then either split or quarantined.
        Counter intervals_preempted,
            text(12, "intervals preempted", NONZERO, "(deadline expired mid-interval)");
        /// Preempted intervals split into two sub-intervals and rescheduled
        /// (each split re-dispatches both halves).
        Counter intervals_split, text(13, "intervals split", NONZERO, "");
        /// Scans performed by the watchdog thread.
        Counter watchdog_wakeups, text(14, "watchdog wakeups", NONZERO, "");
        /// Coalesced tiny-interval batches sent to the streaming dispatch queue.
        ///
        /// Each batch carries many consecutive small intervals in one channel
        /// slot, so wide-but-shallow posets pay the channel overhead once per
        /// batch instead of once per interval. JSON-only.
        Counter queue_batches, None;
        /// `Algorithm::Auto` resolutions that picked the space-efficient leveled
        /// walk (big/wide intervals, or any interval under memory pressure).
        Counter intervals_auto_leveled, None;
        /// `Algorithm::Auto` resolutions that picked the lexical scan (small
        /// intervals with no pressure signal).
        Counter intervals_auto_lexical, None;
        /// Cold batches written to the disk tier (each batch freezes the whole
        /// hot spill deque at that moment).
        Counter disk_spill_batches, None;
        /// Dispatch-queue depth in intervals; the mark is the backpressure
        /// headline number.
        HighWater queue_depth / queue_depth_high_water, text(17, "queue depth", ALWAYS, "");
        /// Bytes held in the packed spill deque.
        ///
        /// This engine's contribution to the shared memory budget; the mark is
        /// the "did the memory cap hold" number of the overload governor.
        HighWater spill_bytes / spill_bytes_high_water, text(18, "spill bytes", NONZERO, "");
        /// Bytes of packed intervals resident in the on-disk cold tier.
        ///
        /// The durable relief valve that the governor's `Pressure` deliberately
        /// does not count: a nonzero mark means the run exceeded RAM and
        /// survived by spilling instead of shedding.
        HighWater disk_spill_bytes / disk_spill_bytes_high_water, None;
        /// Distribution of cut counts per interval — the work-skew instrument
        /// (Figure 10/11's load-balance story, measured instead of assumed).
        Histogram interval_cuts, None;
        /// Nanoseconds spent inside the insertion critical section (clock
        /// bookkeeping + snapshot under the poset mutex — Algorithm 4's atomic
        /// block).
        Histogram insert_critical_ns, None;
    }
    extra {
        /// Per-worker busy/idle tallies.
        workers: Box<[WorkerTally]> => Vec<WorkerSnapshot> = fold_workers
    }
}

fn fold_workers(workers: &[WorkerTally]) -> Vec<WorkerSnapshot> {
    workers.iter().map(WorkerTally::snapshot).collect()
}

impl ParaMetrics {
    /// A registry with `workers` per-worker tally slots (0 is fine for
    /// offline runs that only want counters and histograms).
    pub fn new(workers: usize) -> Self {
        ParaMetrics {
            workers: (0..workers).map(|_| WorkerTally::default()).collect(),
            ..Self::default()
        }
    }

    /// The tally slot of worker `index` (clamped into range so offline
    /// callers with an unknown pool size can still record). A registry
    /// built with zero slots discards the recording.
    pub fn worker(&self, index: usize) -> &WorkerTally {
        if self.workers.is_empty() {
            static DISCARD: WorkerTally = WorkerTally {
                busy_ns: AtomicU64::new(0),
                idle_ns: AtomicU64::new(0),
                intervals: AtomicU64::new(0),
            };
            return &DISCARD;
        }
        &self.workers[index % self.workers.len()]
    }

    /// Number of worker tally slots.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }
}

metric_table! {
    /// Daemon-side instruments of the streaming ingestion layer (`paramount
    /// serve`): one registry per daemon, shared by every connection thread.
    ///
    /// It sits beside [`ParaMetrics`] deliberately — same primitives, same
    /// table, same renderers — so `paramount stats` covers a running
    /// daemon with the vocabulary it uses for a single enumeration run.
    pub struct IngestMetrics =>
    /// Plain-data snapshot of an [`IngestMetrics`] registry.
    IngestSnapshot {
        /// Sessions accepted and registered (`HELLO` succeeded).
        Counter sessions_opened, text(1, "sessions opened", ALWAYS, "");
        /// Sessions refused (capacity, limits, or a malformed `HELLO`).
        Counter sessions_rejected, text(2, "sessions rejected", NONZERO, "");
        /// Sessions finalized with a complete `END` handshake.
        Counter sessions_completed, text(3, "sessions completed", ALWAYS, "");
        /// Sessions finalized early (disconnect, limit, timeout, shutdown).
        Counter sessions_aborted, text(4, "sessions aborted", NONZERO, "");
        /// Sessions whose connection thread panicked and was finalized to a
        /// `Fault` report by the containment boundary (subset of aborted).
        Counter sessions_faulted, text(5, "sessions FAULTED", NONZERO, "");
        /// Wire frames decoded successfully (all kinds, all sessions).
        Counter frames_decoded, text(10, "frames decoded", ALWAYS, "");
        /// Lines that failed to decode or violated the session state machine.
        Counter decode_errors, text(11, "decode errors", NONZERO, "");
        /// Raw bytes read off accepted connections.
        Counter bytes_in, text(12, "bytes in", ALWAYS, "");
        /// Checkpoint records written to session WALs (each one compacts its
        /// store, superseding every earlier segment).
        Counter checkpoint_writes, text(8, "checkpoint writes", NONZERO, "");
        /// Sessions rebuilt from a durable store after a restart (boot scan or
        /// lazy `RESUME` recovery).
        Counter sessions_recovered, text(7, "sessions recovered", NONZERO, "");
        /// Concurrently live sessions.
        HighWater active_sessions / active_sessions_high_water,
            text(6, "sessions active", ALWAYS, "");
        /// Live WAL segment files across all durable sessions.
        HighWater wal_segments / wal_segments_high_water, text(9, "wal segments", NONZERO, "");
    }
}

metric_table! {
    /// Router-side instruments of a `paramount fleet`: shard health, routing
    /// decisions, and failover/migration accounting. One registry per
    /// router, shared by the accept loop and the prober thread.
    pub struct FleetMetrics =>
    /// Plain-data snapshot of a [`FleetMetrics`] registry.
    FleetSnapshot {
        /// Health probes attempted (every shard, every prober sweep).
        Counter probes, text(10, "probes", ALWAYS, "");
        /// Probes that failed (connect refused, deadline, bad reply).
        Counter probe_failures, text(11, "probe failures", NONZERO, "");
        /// `ROUTE` requests answered with a shard assignment.
        Counter sessions_routed, text(2, "sessions routed", ALWAYS, "");
        /// Durable sessions re-homed from a dead shard to a survivor.
        Counter sessions_migrated, text(5, "sessions migrated", NONZERO, "");
        /// Up/Suspect → Down transitions (each triggers a migration sweep).
        Counter failovers, text(4, "failovers", NONZERO, "");
        /// `ROUTE` requests rejected with `ERR busy` because every live shard
        /// was at or past its hard pressure watermark.
        Counter routes_rejected, text(3, "routes rejected", NONZERO, "");
        /// Lease grants acknowledged by shards (initial grants and renewals).
        Counter leases_granted, None;
        /// Leases the router declared expired (shard unreachable past TTL).
        Counter lease_expiries, text(7, "lease expiries", NONZERO, "");
        /// Shards declared fenced (lease expired; sessions may migrate).
        Counter shards_fenced, text(8, "shards fenced", NONZERO, "");
        /// Fenced or restarted shards re-admitted under a fresh epoch.
        Counter shards_rejoined, text(9, "shards rejoined", NONZERO, "");
        /// Shards currently `Up`.
        Gauge shards_up, None;
        /// Shards currently `Suspect`.
        Gauge shards_suspect, None;
        /// Shards currently `Down`; the mark is folded but shown in no report.
        Gauge shards_down / shards_down_high_water, None;
        /// Highest fencing epoch the router has granted to any shard.
        Gauge fencing_epoch, None;
        /// Round-trip latency of successful STATS probes, in microseconds.
        Histogram probe_latency_us, None;
    }
}

impl IngestMetrics {
    /// A fresh registry with every instrument at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FleetMetrics {
    /// A fresh registry with every instrument at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Opens a STATS line: the `label`, `metric`, `type` members every line
/// starts with, in the order `scripts/fleet_smoke.sh` greps for. Lines
/// that are not table rows (`worker`, `memory_budget`, `shard_state`, the
/// daemon's ride-along gauges) start here too.
pub fn stat_line(label: &str, metric: &str, kind: &str) -> json::Object {
    json::Object::new()
        .str("label", label)
        .str("metric", metric)
        .str("type", kind)
}

/// The JSON-lines exposition: one object per row, in table order.
pub fn json_report(rows: &[MetricRow], values: &[MetricValue<'_>], label: &str) -> String {
    let mut out = String::new();
    for (row, value) in rows.iter().zip(values) {
        let line = match *value {
            MetricValue::Counter(value) => {
                stat_line(label, row.name, "counter").u64("value", value)
            }
            MetricValue::Gauge(value, mark) => {
                let line = stat_line(label, row.name, "gauge").u64("value", value);
                match mark {
                    Some(mark) => line.u64("high_water", mark),
                    None => line,
                }
            }
            MetricValue::Histogram(h) => stat_line(label, row.name, "histogram")
                .u64("count", h.count())
                .u64("sum", h.sum)
                .u64("max", h.max)
                .u64("p50", h.quantile_bound(0.5))
                .u64("p99", h.quantile_bound(0.99))
                .array(
                    "buckets",
                    ",",
                    h.nonzero_buckets()
                        .map(|(lo, _, n)| json::Object::new().u64("ge", lo).u64("count", n)),
                ),
        };
        out.push_str(&line.finish());
        out.push('\n');
    }
    out
}

/// One text line at position `at`: the label padded to the value column.
fn text_line(at: u8, label: &str, body: impl std::fmt::Display) -> (u8, String) {
    (at, format!("{:<21} {body}\n", format!("{label}:")))
}

/// The human exposition: every row that has a [`TextLine`], merged with
/// the snapshot's composite lines and sorted by position. Histogram
/// summaries differ per histogram, so they are composites.
pub fn text_report(
    rows: &[MetricRow],
    values: &[MetricValue<'_>],
    mut lines: Vec<(u8, String)>,
) -> String {
    for (row, value) in rows.iter().zip(values) {
        let Some(text) = row.text else { continue };
        let (seen, body) = match *value {
            MetricValue::Counter(value) | MetricValue::Gauge(value, None) => {
                (value, value.to_string())
            }
            MetricValue::Gauge(value, Some(mark)) => {
                (mark, format!("{value} now, {mark} high-water"))
            }
            MetricValue::Histogram(_) => continue,
        };
        if text.always || seen > 0 {
            let body = format!("{body} {}", text.note);
            lines.push(text_line(text.at, text.label, body.trim_end()));
        }
    }
    lines.sort_by_key(|(at, _)| *at);
    lines.into_iter().map(|(_, line)| line).collect()
}

impl MetricsSnapshot {
    /// Human-readable multi-line report.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut lines = Vec::new();
        let (leveled, lexical) = (self.intervals_auto_leveled, self.intervals_auto_lexical);
        if leveled + lexical > 0 {
            let body = format!("{leveled} leveled, {lexical} lexical");
            lines.push(text_line(15, "auto dispatch", body));
        }
        let (now, mark) = (self.disk_spill_bytes, self.disk_spill_bytes_high_water);
        if mark > 0 {
            let batches = self.disk_spill_batches;
            let body = format!("{now} now, {mark} high-water ({batches} batches)");
            lines.push(text_line(19, "disk spill bytes", body));
        }
        let cuts = &self.interval_cuts;
        let (mean, p50, p99, max) = (
            cuts.mean(),
            cuts.quantile_bound(0.5),
            cuts.quantile_bound(0.99),
            cuts.max,
        );
        let body = format!("mean {mean:.1}, p50 <= {p50}, p99 <= {p99}, max {max}");
        let mut skew = text_line(20, "interval cut counts", body);
        for (lo, hi, count) in cuts.nonzero_buckets() {
            let _ = writeln!(skew.1, "  cuts/interval {lo}..={hi}: {count}");
        }
        lines.push(skew);
        let critical = &self.insert_critical_ns;
        if critical.count() > 0 {
            let (mean, p99, max) = (critical.mean(), critical.quantile_bound(0.99), critical.max);
            let body = format!("mean {mean:.0} ns, p99 <= {p99} ns, max {max} ns");
            lines.push(text_line(21, "insert critical path", body));
        }
        for (i, w) in self.workers.iter().enumerate() {
            let (busy, idle) = (w.busy_ns as f64 / 1e6, w.idle_ns as f64 / 1e6);
            lines.push((
                22,
                format!(
                    "worker {i}: {} intervals, busy {busy:.3} ms, idle {idle:.3} ms ({:.0}% busy)\n",
                    w.intervals,
                    w.utilization() * 100.0,
                ),
            ));
        }
        text_report(Self::ROWS, &self.values(), lines)
    }

    /// Machine-readable report: one JSON object per line — the table's
    /// rows, then one `worker` line per tally slot. `label` tags every
    /// line so multi-run files (bench sweeps) stay greppable.
    pub fn to_json_lines(&self, label: &str) -> String {
        let mut out = json_report(Self::ROWS, &self.values(), label);
        for (i, w) in self.workers.iter().enumerate() {
            let line = stat_line(label, "worker", "worker")
                .u64("index", i as u64)
                .u64("busy_ns", w.busy_ns)
                .u64("idle_ns", w.idle_ns)
                .u64("intervals", w.intervals);
            out.push_str(&line.finish());
            out.push('\n');
        }
        out
    }
}

impl IngestSnapshot {
    /// Human-readable multi-line report (same style as
    /// [`MetricsSnapshot::render_text`]).
    pub fn render_text(&self) -> String {
        text_report(Self::ROWS, &self.values(), Vec::new())
    }

    /// Machine-readable report: one JSON object per line, same shape as
    /// [`MetricsSnapshot::to_json_lines`].
    pub fn to_json_lines(&self, label: &str) -> String {
        json_report(Self::ROWS, &self.values(), label)
    }
}

impl FleetSnapshot {
    /// Human-readable multi-line report (same style as
    /// [`IngestSnapshot::render_text`]).
    pub fn render_text(&self) -> String {
        let (up, suspect, down) = (self.shards_up, self.shards_suspect, self.shards_down);
        let body = format!("{up} up, {suspect} suspect, {down} down");
        let mut lines = vec![text_line(1, "shards", body)];
        if self.leases_granted > 0 || self.fencing_epoch > 0 {
            lines.push(text_line(6, "leases granted", self.leases_granted));
            lines.push(text_line(6, "fencing epoch", self.fencing_epoch));
        }
        let latency = &self.probe_latency_us;
        if latency.count() > 0 {
            let (mean, p99, max) = (latency.mean(), latency.quantile_bound(0.99), latency.max);
            let body = format!("mean {mean:.1}, p99 <= {p99}, max {max}");
            lines.push(text_line(12, "probe latency us", body));
        }
        text_report(Self::ROWS, &self.values(), lines)
    }

    /// Machine-readable report: one JSON object per line, same shape as
    /// [`IngestSnapshot::to_json_lines`].
    pub fn to_json_lines(&self, label: &str) -> String {
        json_report(Self::ROWS, &self.values(), label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            assert!(bucket_lower_bound(i) <= bucket_upper_bound(i));
            assert_eq!(bucket_of(bucket_lower_bound(i)), i);
            assert_eq!(bucket_of(bucket_upper_bound(i)), i);
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Log2Histogram::new();
        for v in [0, 1, 1, 5, 9, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 6);
        assert_eq!(snap.sum, 1016);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.buckets[0], 1); // the zero
        assert_eq!(snap.buckets[1], 2); // the ones
        assert_eq!(snap.buckets[3], 1); // 5 in [4,8)
        assert_eq!(snap.buckets[4], 1); // 9 in [8,16)
        assert_eq!(snap.buckets[10], 1); // 1000 in [512,1024)
        assert_eq!(snap.quantile_bound(0.5), 1);
        assert_eq!(snap.quantile_bound(1.0), 1023);
    }

    #[test]
    fn sharded_counter_is_exact_across_threads() {
        let counter = ShardedCounter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        counter.add(1);
                    }
                });
            }
        });
        assert_eq!(counter.sum(), 80_000);
        counter.add_on(3, 5);
        assert_eq!(counter.sum(), 80_005);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = HighWaterGauge::new();
        g.inc();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 3);
    }

    #[test]
    fn registry_snapshot_round_trip() {
        let m = ParaMetrics::new(2);
        m.events_inserted.add(3);
        m.intervals_dispatched.add(3);
        m.intervals_completed.add(2);
        m.cuts_emitted.add_on(0, 10);
        m.cuts_emitted.add_on(1, 20);
        m.interval_cuts.record(10);
        m.interval_cuts.record(20);
        m.queue_depth.inc();
        m.worker(0).add_busy(500);
        m.worker(0).add_interval();
        m.worker(1).add_idle(300);
        let snap = m.snapshot();
        assert_eq!(snap.events_inserted, 3);
        assert_eq!(snap.cuts_emitted, 30);
        assert_eq!(snap.interval_cuts.count(), 2);
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.queue_depth_high_water, 1);
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.workers[0].intervals, 1);
        assert!(snap.workers[0].utilization() > 0.99);
        assert!(snap.workers[1].utilization() < 0.01);
        // Snapshots are plain data: clonable and comparable.
        assert_eq!(snap.clone(), snap);
    }

    #[test]
    fn worker_slot_clamps_out_of_range() {
        let m = ParaMetrics::new(2);
        m.worker(7).add_interval(); // lands on 7 % 2 = 1
        assert_eq!(m.snapshot().workers[1].intervals, 1);
        let empty = ParaMetrics::new(0);
        let _ = empty.snapshot(); // no slots: snapshot must not panic
    }

    #[test]
    fn json_lines_are_one_object_per_line() {
        let m = ParaMetrics::new(1);
        m.cuts_emitted.add(7);
        m.interval_cuts.record(7);
        let text = m.snapshot().to_json_lines("smoke \"test\"");
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            // Escaped label must not break the quoting.
            assert!(line.contains("\"label\":\"smoke \\\"test\\\"\""), "{line}");
        }
        assert!(text.contains("\"metric\":\"cuts_emitted\",\"type\":\"counter\",\"value\":7"));
        assert!(text.contains("\"metric\":\"interval_cuts\""));
        assert!(text.contains("\"ge\":4,\"count\":1"));
    }

    #[test]
    fn render_text_mentions_the_headline_numbers() {
        let m = ParaMetrics::new(1);
        m.events_inserted.add(5);
        m.cuts_emitted.add(42);
        m.interval_cuts.record(42);
        m.queue_depth.inc();
        m.queue_depth.dec();
        let text = m.snapshot().render_text();
        assert!(text.contains("events inserted:      5"), "{text}");
        assert!(text.contains("cuts emitted:         42"), "{text}");
        assert!(text.contains("1 high-water"), "{text}");
    }

    #[test]
    fn fault_counters_surface_in_both_renderers_only_when_nonzero() {
        let clean = ParaMetrics::new(1).snapshot();
        let text = clean.render_text();
        assert!(!text.contains("worker panics"), "{text}");
        assert!(!text.contains("QUARANTINED"), "{text}");
        assert!(!text.contains("worker restarts"), "{text}");

        let m = ParaMetrics::new(1);
        m.worker_panics.add(2);
        m.intervals_quarantined.add(1);
        m.intervals_retried.add(1);
        m.worker_restarts.add(1);
        m.worker_spawn_failures.add(1);
        let snap = m.snapshot();
        assert_eq!(snap.worker_panics, 2);
        assert_eq!(snap.intervals_quarantined, 1);
        let text = snap.render_text();
        assert!(text.contains("worker panics:        2"), "{text}");
        assert!(text.contains("intervals QUARANTINED: 1"), "{text}");
        assert!(text.contains("intervals retried:    1"), "{text}");
        assert!(text.contains("worker restarts:      1"), "{text}");
        assert!(text.contains("worker spawn failures: 1"), "{text}");
        let json = snap.to_json_lines("faults");
        assert!(json.contains("\"metric\":\"worker_panics\",\"type\":\"counter\",\"value\":2"));
        assert!(
            json.contains("\"metric\":\"intervals_quarantined\",\"type\":\"counter\",\"value\":1")
        );
        assert!(json.contains("\"metric\":\"worker_restarts\",\"type\":\"counter\",\"value\":1"));
    }

    #[test]
    fn gauge_supports_byte_sized_steps() {
        let g = HighWaterGauge::new();
        g.add(100);
        g.add(50);
        g.sub(120);
        assert_eq!(g.get(), 30);
        assert_eq!(g.high_water(), 150);
    }

    #[test]
    fn governor_counters_surface_in_both_renderers_only_when_nonzero() {
        let clean = ParaMetrics::new(1).snapshot();
        let text = clean.render_text();
        assert!(!text.contains("backpressure promotions"), "{text}");
        assert!(!text.contains("intervals preempted"), "{text}");
        assert!(!text.contains("spill bytes"), "{text}");

        let m = ParaMetrics::new(1);
        m.backpressure_promotions.add(4);
        m.intervals_preempted.add(2);
        m.intervals_split.add(1);
        m.watchdog_wakeups.add(9);
        m.spill_bytes.add(640);
        m.spill_bytes.sub(600);
        let snap = m.snapshot();
        assert_eq!(snap.backpressure_promotions, 4);
        assert_eq!(snap.intervals_preempted, 2);
        assert_eq!(snap.spill_bytes, 40);
        assert_eq!(snap.spill_bytes_high_water, 640);
        let text = snap.render_text();
        assert!(text.contains("backpressure promotions: 4"), "{text}");
        assert!(text.contains("intervals preempted:  2"), "{text}");
        assert!(text.contains("intervals split:      1"), "{text}");
        assert!(text.contains("watchdog wakeups:     9"), "{text}");
        assert!(
            text.contains("spill bytes:          40 now, 640 high-water"),
            "{text}"
        );
        let json = snap.to_json_lines("governor");
        assert!(json
            .contains("\"metric\":\"backpressure_promotions\",\"type\":\"counter\",\"value\":4"));
        assert!(
            json.contains("\"metric\":\"intervals_preempted\",\"type\":\"counter\",\"value\":2")
        );
        assert!(json.contains("\"metric\":\"intervals_split\",\"type\":\"counter\",\"value\":1"));
        assert!(json.contains("\"metric\":\"watchdog_wakeups\",\"type\":\"counter\",\"value\":9"));
        assert!(json.contains(
            "\"metric\":\"spill_bytes\",\"type\":\"gauge\",\"value\":40,\"high_water\":640"
        ));
    }

    #[test]
    fn durable_instruments_surface_only_when_touched() {
        let clean = ParaMetrics::new(0).snapshot();
        assert!(!clean.render_text().contains("disk spill bytes"));

        let m = ParaMetrics::new(0);
        m.disk_spill_bytes.add(1024);
        m.disk_spill_bytes.sub(1000);
        m.disk_spill_batches.add(2);
        let snap = m.snapshot();
        assert_eq!(snap.disk_spill_bytes, 24);
        assert_eq!(snap.disk_spill_bytes_high_water, 1024);
        assert_eq!(snap.disk_spill_batches, 2);
        let text = snap.render_text();
        assert!(
            text.contains("disk spill bytes:     24 now, 1024 high-water (2 batches)"),
            "{text}"
        );
        let json = snap.to_json_lines("durable");
        assert!(json.contains(
            "\"metric\":\"disk_spill_bytes\",\"type\":\"gauge\",\"value\":24,\"high_water\":1024"
        ));
        assert!(json.contains("\"metric\":\"disk_spill_batches\",\"type\":\"counter\",\"value\":2"));

        let i = IngestMetrics::new();
        i.checkpoint_writes.add(5);
        i.sessions_recovered.add(1);
        i.wal_segments.add(3);
        i.wal_segments.sub(2);
        let snap = i.snapshot();
        assert_eq!(snap.checkpoint_writes, 5);
        assert_eq!(snap.sessions_recovered, 1);
        assert_eq!(snap.wal_segments, 1);
        assert_eq!(snap.wal_segments_high_water, 3);
        let text = snap.render_text();
        assert!(text.contains("checkpoint writes:    5"), "{text}");
        assert!(text.contains("sessions recovered:   1"), "{text}");
        assert!(
            text.contains("wal segments:         1 now, 3 high-water"),
            "{text}"
        );
        let json = snap.to_json_lines("ingest");
        assert!(json.contains("\"metric\":\"checkpoint_writes\",\"type\":\"counter\",\"value\":5"));
        assert!(json.contains("\"metric\":\"sessions_recovered\",\"type\":\"counter\",\"value\":1"));
        assert!(json.contains(
            "\"metric\":\"wal_segments\",\"type\":\"gauge\",\"value\":1,\"high_water\":3"
        ));
    }

    #[test]
    fn ingest_faulted_counter_renders() {
        let m = IngestMetrics::new();
        m.sessions_faulted.add(3);
        let snap = m.snapshot();
        assert_eq!(snap.sessions_faulted, 3);
        assert!(snap.render_text().contains("sessions FAULTED:     3"));
        assert!(snap
            .to_json_lines("ingest")
            .contains("\"metric\":\"sessions_faulted\",\"type\":\"counter\",\"value\":3"));
    }

    #[test]
    fn quantiles_on_empty_histogram_are_zero() {
        let snap = HistogramSnapshot::default();
        assert_eq!(snap.quantile_bound(0.5), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn ingest_metrics_snapshot_and_renderers() {
        let m = IngestMetrics::new();
        m.sessions_opened.add(3);
        m.sessions_completed.add(2);
        m.sessions_aborted.add(1);
        m.frames_decoded.add(100);
        m.bytes_in.add(4096);
        m.active_sessions.inc();
        m.active_sessions.inc();
        m.active_sessions.dec();
        let snap = m.snapshot();
        assert_eq!(snap.sessions_opened, 3);
        assert_eq!(snap.active_sessions, 1);
        assert_eq!(snap.active_sessions_high_water, 2);

        let text = snap.render_text();
        assert!(text.contains("sessions opened:      3"), "{text}");
        assert!(text.contains("sessions aborted:     1"), "{text}");
        assert!(text.contains("1 now, 2 high-water"), "{text}");
        // Zero-valued trouble counters stay out of the human report.
        assert!(!text.contains("decode errors"), "{text}");
        assert!(!text.contains("sessions rejected"), "{text}");

        let json = snap.to_json_lines("ingest");
        for line in json.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"label\":\"ingest\""), "{line}");
        }
        assert!(json.contains("\"metric\":\"sessions_opened\",\"type\":\"counter\",\"value\":3"));
        assert!(json.contains(
            "\"metric\":\"active_sessions\",\"type\":\"gauge\",\"value\":1,\"high_water\":2"
        ));
    }

    /// Every metric is declared once: names are unique within a table,
    /// every row carries help text, and every line either report emits is
    /// a row of its table or one of the named non-table lines.
    #[test]
    fn every_metric_name_is_declared_exactly_once() {
        const NON_TABLE: [&str; 5] = [
            "memory_budget",
            "shard_state",
            "worker",
            "protocol_version",
            "fenced",
        ];
        let engine = ParaMetrics::new(2).snapshot();
        let ingest = IngestMetrics::new().snapshot();
        let fleet = FleetMetrics::new().snapshot();
        for (rows, values, json) in [
            (
                MetricsSnapshot::ROWS,
                engine.values(),
                engine.to_json_lines("t"),
            ),
            (
                IngestSnapshot::ROWS,
                ingest.values(),
                ingest.to_json_lines("t"),
            ),
            (
                FleetSnapshot::ROWS,
                fleet.values(),
                fleet.to_json_lines("t"),
            ),
        ] {
            assert_eq!(rows.len(), values.len());
            for (i, row) in rows.iter().enumerate() {
                assert!(!row.help.is_empty(), "{} has no help text", row.name);
                assert!(
                    rows[..i].iter().all(|earlier| earlier.name != row.name),
                    "{} is declared twice",
                    row.name
                );
            }
            let mut emitted = Vec::new();
            for line in json.lines() {
                let stat = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
                let metric = stat.get("metric").and_then(json::Json::as_str).unwrap();
                assert!(
                    rows.iter().any(|row| row.name == metric) || NON_TABLE.contains(&metric),
                    "{metric} is not a table row"
                );
                emitted.push(metric.to_string());
            }
            for row in rows {
                assert!(
                    emitted.iter().any(|m| m == row.name),
                    "{} not emitted",
                    row.name
                );
            }
        }
        assert_eq!(
            MetricsSnapshot::ROWS.len() + IngestSnapshot::ROWS.len() + FleetSnapshot::ROWS.len(),
            51
        );
    }
}
