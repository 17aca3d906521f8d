//! Fleet mode: a router/coordinator that spreads sessions across N
//! `paramount serve` shards with health-checked failover.
//!
//! The router owns no engine. It answers exactly three frames:
//!
//! * `ROUTE paramount/1` — place a *new* session: pick a shard off a
//!   consistent-hash ring, skipping shards that are down and steering
//!   away from shards whose daemon-wide
//!   [`MemoryBudget`](paramount::MemoryBudget) reports `Soft`
//!   pressure. The reply is `OK shard=<k> addr=<addr>`; the client then
//!   connects to the shard directly — the router is a *redirector*, not
//!   a proxy, so the event hot path never crosses an extra hop.
//! * `ROUTE paramount/1 session=<id>` — resolve where an *existing*
//!   session lives now, after any migration.
//! * `STATS` / `SHUTDOWN` — fleet-wide metrics and a coordinated drain.
//!
//! A background prober sends a `STATS` frame to every shard each
//! [`FleetConfig::probe_interval`] under a hard deadline. Consecutive
//! failures walk the shard through [`ShardState`]: `Up` → `Suspect` →
//! `Down`. The same probe reply carries the shard's `memory_budget`
//! gauge, which the router folds into fleet-wide admission control:
//! new sessions avoid `Soft` shards and are rejected with `ERR busy`
//! only when every live shard is `Hard`.
//!
//! **Failover.** Shards share one durable root (`root/shard-<k>/`
//! per shard, see [`shard_subroot`]). Session ids encode their home
//! shard in the high 32 bits ([`first_session_id`]), so the router can
//! resolve any id without bookkeeping. When a shard transitions to
//! `Down` *and its lease has provably expired* (see below), the router
//! *migrates* every durable session directory out of the dead shard's
//! subroot into a survivor's (an atomic `rename` on the shared
//! filesystem) and records the new home. The surviving shard's lazy
//! `RESUME` recovery then rebuilds the session from its WAL exactly
//! as if it had crashed locally, and the client —
//! redirected by its next `ROUTE session=<id>` — re-sends only the
//! unacked tail. Theorem 3 makes this exact: the cut count is a pure
//! function of the accepted event prefix, and the prefix is whatever
//! the store holds, wherever the store now lives.
//!
//! **Fencing leases.** A `Down` verdict proves only that the *router*
//! cannot reach the shard; the shard may be alive behind a partition,
//! still accepting events for the very sessions a migration would hand
//! to a survivor. To make single-ownership of each session's event
//! prefix hold under partitions, every probe piggybacks a `LEASE`
//! frame granting the shard a time-bounded lease stamped with a
//! monotonically increasing *fencing epoch*. A shard that cannot renew
//! before [`FleetConfig::lease_ttl`] self-fences: it stops admitting
//! `HELLO`/`RESUME`/`EVENT`, finalizes live sessions to degraded
//! reports, and its durable stores refuse stale-epoch writes at the
//! WAL layer. The router, symmetrically, migrates a `Down` shard's
//! sessions only after the last acknowledged lease must have expired
//! (`last ack + TTL + margin`), so by the time a survivor replays a
//! session the old owner has provably stopped writing. `ROUTE` for a
//! session homed on a `Down`-but-not-yet-fenced shard answers
//! `ERR busy` with the remaining wait as the retry hint. A fenced (or
//! restarted) shard *re-joins* when a probe gets through again: the
//! router grants a fresh, strictly higher epoch, the shard clears its
//! fence, and the ring resumes placing *new* sessions there — sessions
//! migrated away stay put.
//!
//! **Router crash safety.** With [`FleetConfig::router_data_dir`] set,
//! epoch grants and migrations are journaled to a small
//! `paramount-durable` WAL *before* they take effect, so a restarted
//! router resumes with its placement map and epoch counter intact —
//! it neither re-homes live shards' sessions nor re-issues an epoch a
//! shard may already hold.

use crate::lease::LeaseAck;
use crate::persist::{scan_sessions, session_dir};
use crate::proto::{parse_client_line, ClientFrame, DecodeError, ErrCode, ServerFrame};
use crate::server::{LineReader, Tick};
use paramount::faults::splitmix64;
use paramount::json::{self, Json};
use paramount::metrics::stat_line;
use paramount::{BudgetSnapshot, FleetMetrics, FleetSnapshot, Pressure};
use paramount_durable::{FsyncPolicy, Record, Wal, WalConfig};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the router's accept loop sleeps when idle.
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// Read-timeout tick for router connections (stop-flag granularity).
const READ_TICK: Duration = Duration::from_millis(50);

/// Virtual nodes per shard on the consistent-hash ring. 64 points per
/// shard keeps the expected load imbalance across a handful of shards
/// in the low single-digit percent without making ring walks expensive.
const VNODES_PER_SHARD: usize = 64;

/// Salt mixed into fresh-placement keys so they do not collide with
/// session-id keys on the ring.
const PLACEMENT_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Router-manifest record kind: one epoch grant, `<shard-id> <epoch>`.
const MANIFEST_EPOCH_KIND: u8 = b'E';

/// Router-manifest record kind: one migration, `<session> <shard-id>`.
const MANIFEST_MIGRATE_KIND: u8 = b'G';

/// Router-manifest record kind: a full-state snapshot written by
/// compaction (`N`/`E`/`G` lines, see [`Shared::manifest_snapshot`]).
const MANIFEST_SNAPSHOT_KIND: u8 = b'S';

/// Compact the router manifest after this many incremental appends.
const MANIFEST_COMPACT_EVERY: u64 = 64;

/// One shard of the fleet: a `paramount serve` daemon the router
/// health-checks and redirects clients to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Stable shard index. Session ids created on this shard carry it in
    /// their high 32 bits (see [`first_session_id`]); it also names the
    /// shard's durable subroot (see [`shard_subroot`]).
    pub id: usize,
    /// TCP address clients are redirected to (`host:port`).
    pub addr: String,
}

/// Health state of one shard, driven by the STATS prober.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardState {
    /// Probes succeed; the shard receives new sessions.
    Up,
    /// At least [`FleetConfig::suspect_after`] consecutive probe
    /// failures: no new sessions, existing ones still resolve here.
    Suspect,
    /// At least [`FleetConfig::down_after`] consecutive failures: the
    /// shard is dead; its durable sessions are migrated to survivors.
    Down,
}

impl fmt::Display for ShardState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShardState::Up => "up",
            ShardState::Suspect => "suspect",
            ShardState::Down => "down",
        })
    }
}

/// Router configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Time between health-probe sweeps over the fleet.
    pub probe_interval: Duration,
    /// Per-probe deadline: connect + `STATS` round trip must finish
    /// within this or the probe counts as failed.
    pub probe_deadline: Duration,
    /// Consecutive probe failures before a shard turns `Suspect`.
    pub suspect_after: u32,
    /// Consecutive probe failures before a shard turns `Down` and its
    /// sessions are migrated.
    pub down_after: u32,
    /// Shared durable root. Shard `k` serves `--data-dir` =
    /// `root/shard-<k>`; migration renames session directories between
    /// subroots. `None` disables migration (sessions die with their
    /// shard, exactly as a standalone in-memory daemon would).
    pub data_root: Option<PathBuf>,
    /// Retry hint (milliseconds) on `ERR busy` when the whole fleet is
    /// at `Hard` pressure.
    pub busy_retry_after_ms: u64,
    /// Lease TTL granted to each shard on every successful probe. A
    /// shard that cannot renew within this window self-fences, and the
    /// router migrates a `Down` shard's sessions only once
    /// `last ack + TTL + margin` has elapsed (margin =
    /// `max(probe_interval, 50ms)`), so old owner and new owner never
    /// overlap.
    pub lease_ttl: Duration,
    /// Directory for the router's durable manifest (epoch grants,
    /// migrations). `None` keeps router state in memory only: a router
    /// restart then re-learns placement from disk layout but may
    /// re-issue epochs.
    pub router_data_dir: Option<PathBuf>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            probe_interval: Duration::from_millis(200),
            probe_deadline: Duration::from_millis(500),
            suspect_after: 1,
            down_after: 3,
            data_root: None,
            busy_retry_after_ms: 250,
            lease_ttl: Duration::from_millis(1000),
            router_data_dir: None,
        }
    }
}

/// The durable subroot shard `k` serves with `--data-dir`.
pub fn shard_subroot(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

/// The first session id shard `k` hands out: ids encode their home
/// shard in the high 32 bits, so the router resolves any session to its
/// birth shard without shared state.
pub fn first_session_id(shard: usize) -> u64 {
    ((shard as u64) << 32) | 1
}

/// The home (birth) shard encoded in a session id.
pub fn shard_of_session(session: u64) -> usize {
    (session >> 32) as usize
}

/// Parses a shard manifest: one `shard <id> <addr>` per line, `#`
/// comments and blank lines ignored. Ids must be unique and dense-ish
/// is *not* required — they only need to be distinct `usize`s small
/// enough to index a vector.
pub fn parse_manifest(text: &str) -> Result<Vec<ShardSpec>, String> {
    let mut shards = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (kw, id, addr) = (parts.next(), parts.next(), parts.next());
        if kw != Some("shard") || parts.next().is_some() {
            return Err(format!(
                "manifest line {}: expected `shard <id> <addr>`, got `{line}`",
                lineno + 1
            ));
        }
        let id: usize = id
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("manifest line {}: bad shard id", lineno + 1))?;
        let addr = addr
            .ok_or_else(|| format!("manifest line {}: missing address", lineno + 1))?
            .to_string();
        if shards.iter().any(|s: &ShardSpec| s.id == id) {
            return Err(format!(
                "manifest line {}: duplicate shard id {id}",
                lineno + 1
            ));
        }
        shards.push(ShardSpec { id, addr });
    }
    if shards.is_empty() {
        return Err("manifest defines no shards".to_string());
    }
    Ok(shards)
}

/// Per-shard health, updated by the prober, read by the route path.
#[derive(Clone, Copy, Debug)]
struct ShardHealth {
    state: ShardState,
    pressure: Pressure,
    consecutive_failures: u32,
    /// Fencing epoch of the shard's last *acknowledged* lease (0 until
    /// the first grant lands).
    epoch: u64,
    /// When the shard last acknowledged a lease. The failover fence
    /// waits out `last_ack + TTL + margin` before migrating.
    last_ack: Option<Instant>,
    /// An epoch allocated (and journaled) for this shard but not yet
    /// acknowledged; re-offered until it lands so unreachable shards
    /// don't burn one epoch per sweep.
    pending_offer: Option<u64>,
    /// The router has declared this shard's lease expired and released
    /// its sessions for migration. Cleared on re-join.
    fenced_declared: bool,
    /// The next offer must be a strictly higher epoch (the shard
    /// reported itself fenced, or holds an epoch we never issued).
    needs_fresh_epoch: bool,
}

impl ShardHealth {
    fn new() -> Self {
        ShardHealth {
            // Optimistic start: shards are routable before the first
            // probe completes, and a genuinely dead shard is demoted
            // within `down_after` probe intervals.
            state: ShardState::Up,
            pressure: Pressure::Nominal,
            consecutive_failures: 0,
            epoch: 0,
            last_ack: None,
            pending_offer: None,
            fenced_declared: false,
            needs_fresh_epoch: false,
        }
    }
}

/// Why a placement found no shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PickError {
    /// Live shards exist but every one reports `Hard` pressure.
    AllBusy,
    /// No shard is routable at all.
    NoneUp,
}

/// The consistent-hash ring: sorted `(point, shard index)` pairs,
/// [`VNODES_PER_SHARD`] points per shard. Deterministic in the shard
/// ids, so every router instance over the same manifest agrees.
fn build_ring(shards: &[ShardSpec]) -> Vec<(u64, usize)> {
    let mut ring = Vec::with_capacity(shards.len() * VNODES_PER_SHARD);
    for (index, shard) in shards.iter().enumerate() {
        for vnode in 0..VNODES_PER_SHARD {
            let point = splitmix64(((shard.id as u64) << 8) | vnode as u64);
            ring.push((point, index));
        }
    }
    ring.sort_unstable();
    ring
}

/// Walks the ring clockwise from `key` and returns the best routable
/// shard index: the first `Up`+`Nominal` shard; failing that the first
/// `Up`+`Soft`; failing that the first `Suspect` below `Hard`. Shards
/// that are `Down`, excluded, or at `Hard` pressure never place.
fn pick_shard(
    ring: &[(u64, usize)],
    health: &[ShardHealth],
    key: u64,
    exclude: Option<usize>,
) -> Result<usize, PickError> {
    let start = ring.partition_point(|&(point, _)| point < key);
    let mut seen = vec![false; health.len()];
    let mut soft: Option<usize> = None;
    let mut suspect: Option<usize> = None;
    let mut any_candidate = false;
    for step in 0..ring.len() {
        let (_, shard) = ring[(start + step) % ring.len()];
        if seen[shard] {
            continue;
        }
        seen[shard] = true;
        if Some(shard) == exclude || health[shard].state == ShardState::Down {
            continue;
        }
        any_candidate = true;
        if health[shard].pressure >= Pressure::Hard {
            continue;
        }
        match (health[shard].state, health[shard].pressure) {
            (ShardState::Up, Pressure::Nominal) => return Ok(shard),
            (ShardState::Up, _) => soft = soft.or(Some(shard)),
            (ShardState::Suspect, _) => suspect = suspect.or(Some(shard)),
            (ShardState::Down, _) => unreachable!("filtered above"),
        }
    }
    soft.or(suspect).ok_or(if any_candidate {
        PickError::AllBusy
    } else {
        PickError::NoneUp
    })
}

/// State shared between the accept loop, connection threads and the
/// prober.
struct Shared {
    shards: Vec<ShardSpec>,
    ring: Vec<(u64, usize)>,
    health: Mutex<Vec<ShardHealth>>,
    /// Sessions re-homed off their birth shard: id → shard index.
    migrated: Mutex<HashMap<u64, usize>>,
    metrics: FleetMetrics,
    config: FleetConfig,
    /// Monotone counter salting fresh-placement ring keys.
    placements: AtomicU64,
    /// Next fencing epoch to issue; epochs never repeat, even across
    /// router restarts (restored from the manifest).
    next_epoch: AtomicU64,
    /// Durable journal of epoch grants and migrations (`None` without
    /// [`FleetConfig::router_data_dir`]).
    manifest: Mutex<Option<Manifest>>,
    /// When this router instance started: the fence-wait anchor for
    /// shards that have never acknowledged a lease.
    started: Instant,
}

/// The router's durable manifest: a tiny WAL of epoch grants (`E`),
/// migrations (`G`) and full-state snapshots (`S`).
struct Manifest {
    wal: Wal,
    appends_since_compact: u64,
}

impl Shared {
    /// Re-publishes the `shards_up/suspect/down` gauges from the health
    /// table.
    fn publish_state_gauges(&self) {
        let health = self.health.lock().unwrap_or_else(|e| e.into_inner());
        let count = |want: ShardState| health.iter().filter(|h| h.state == want).count() as u64;
        self.metrics.shards_up.set(count(ShardState::Up));
        self.metrics.shards_suspect.set(count(ShardState::Suspect));
        self.metrics.shards_down.set(count(ShardState::Down));
    }

    /// How long a `Down` shard's last lease could still be live: probe
    /// jitter on top of the TTL itself.
    fn fence_margin(&self) -> Duration {
        self.config.probe_interval.max(Duration::from_millis(50))
    }

    /// Milliseconds until shard `index`'s lease has provably expired
    /// (`None` once it has).
    fn fence_wait_remaining(&self, anchor: Instant) -> Option<u64> {
        let deadline = anchor + self.config.lease_ttl + self.fence_margin();
        let now = Instant::now();
        if now >= deadline {
            return None;
        }
        Some((deadline - now).as_millis().max(1) as u64)
    }

    /// The epoch to offer shard `index` on the next probe: the current
    /// acknowledged epoch when merely renewing, otherwise a fresh
    /// strictly-higher epoch, journaled *before* it ever goes on the
    /// wire so a restarted router never re-issues it.
    fn lease_offer(&self, index: usize) -> u64 {
        let (current, pending, needs_fresh) = {
            let health = self.health.lock().unwrap_or_else(|e| e.into_inner());
            let entry = &health[index];
            (entry.epoch, entry.pending_offer, entry.needs_fresh_epoch)
        };
        if current != 0 && !needs_fresh {
            return current;
        }
        if let Some(pending) = pending {
            return pending;
        }
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed);
        self.metrics.fencing_epoch.set(epoch);
        self.log_manifest(
            MANIFEST_EPOCH_KIND,
            format!("{} {epoch}", self.shards[index].id).as_bytes(),
        );
        let mut health = self.health.lock().unwrap_or_else(|e| e.into_inner());
        health[index].pending_offer = Some(epoch);
        epoch
    }

    /// A shard acknowledged an epoch the router never issued (the
    /// router lost state): never go backwards past it.
    fn note_foreign_epoch(&self, seen: u64) {
        self.next_epoch
            .fetch_max(seen.saturating_add(1), Ordering::Relaxed);
    }

    /// Appends one record to the durable manifest (best-effort: an
    /// unwritable manifest degrades to in-memory routing rather than
    /// taking the fleet down), compacting periodically.
    fn log_manifest(&self, kind: u8, payload: &[u8]) {
        let mut slot = self.manifest.lock().unwrap_or_else(|e| e.into_inner());
        let Some(manifest) = slot.as_mut() else {
            return;
        };
        if manifest.wal.append(kind, payload).is_err() || manifest.wal.sync().is_err() {
            return;
        }
        manifest.appends_since_compact += 1;
        if manifest.appends_since_compact >= MANIFEST_COMPACT_EVERY {
            let snapshot = self.manifest_snapshot();
            if manifest
                .wal
                .compact(MANIFEST_SNAPSHOT_KIND, snapshot.as_bytes())
                .is_ok()
            {
                manifest.appends_since_compact = 0;
            }
        }
    }

    /// Full router state as snapshot text: `N <next-epoch>`, one
    /// `E <shard-id> <epoch>` per granted epoch (acknowledged or still
    /// pending), one `G <session> <shard-id>` per migration.
    fn manifest_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "N {}", self.next_epoch.load(Ordering::Relaxed));
        {
            let health = self.health.lock().unwrap_or_else(|e| e.into_inner());
            for (index, entry) in health.iter().enumerate() {
                let epoch = entry.epoch.max(entry.pending_offer.unwrap_or(0));
                if epoch > 0 {
                    let _ = writeln!(out, "E {} {epoch}", self.shards[index].id);
                }
            }
        }
        {
            let migrated = self.migrated.lock().unwrap_or_else(|e| e.into_inner());
            let mut entries: Vec<(u64, usize)> = migrated.iter().map(|(&s, &t)| (s, t)).collect();
            entries.sort_unstable();
            for (session, target) in entries {
                let _ = writeln!(out, "G {session} {}", self.shards[target].id);
            }
        }
        out
    }

    /// Places a brand-new session.
    fn place_new(&self) -> Result<usize, PickError> {
        let n = self.placements.fetch_add(1, Ordering::Relaxed);
        let key = splitmix64(PLACEMENT_SALT ^ n);
        let health = self.health.lock().unwrap_or_else(|e| e.into_inner());
        pick_shard(&self.ring, &health, key, None)
    }

    /// Resolves where `session` lives now: the migration override if it
    /// was re-homed, its birth shard otherwise. A birth shard that is
    /// `Down` triggers an on-demand single-session migration (covers
    /// the race where `ROUTE` arrives before the sweep, and sweeps that
    /// found no survivor at the time).
    fn resolve_session(&self, session: u64) -> Result<usize, DecodeError> {
        if let Some(&target) = self
            .migrated
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&session)
        {
            return Ok(target);
        }
        let home = shard_of_session(session);
        if home >= self.shards.len() {
            return Err(DecodeError::new(
                ErrCode::State,
                format!("session {session} does not map to any shard of this fleet"),
            ));
        }
        let (state, fenced_declared, anchor) = {
            let health = self.health.lock().unwrap_or_else(|e| e.into_inner());
            let entry = &health[home];
            (
                entry.state,
                entry.fenced_declared,
                entry.last_ack.unwrap_or(self.started),
            )
        };
        if state != ShardState::Down {
            return Ok(home);
        }
        if !fenced_declared {
            // The shard is unreachable but may still be alive behind a
            // partition, holding a live lease; resuming this session on
            // a survivor now could split ownership of its prefix. Hold
            // the client off until the lease has provably expired.
            if let Some(wait_ms) = self.fence_wait_remaining(anchor) {
                self.metrics.routes_rejected.add(1);
                return Err(DecodeError::busy(
                    wait_ms,
                    format!(
                        "shard {} is unreachable; failover is fenced for ~{wait_ms}ms until its lease expires",
                        self.shards[home].id
                    ),
                ));
            }
            // The wait elapsed between sweeps: this ROUTE observes the
            // expiry first, so it performs the declaration (and the
            // shard-wide migration) rather than leaving the accounting
            // to a sweep that hasn't run yet.
            self.declare_fenced(home);
            if let Some(&target) = self
                .migrated
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(&session)
            {
                return Ok(target);
            }
        }
        match self.migrate_one(session, home) {
            Some(target) => Ok(target),
            None => Err(DecodeError::new(
                ErrCode::State,
                format!("session {session} was lost with shard {home}"),
            )),
        }
    }

    /// Moves one durable session out of `dead`'s subroot to a surviving
    /// shard; returns the new home. `None` when there is nothing to
    /// move (no durable root, no on-disk state) or nowhere to move it.
    fn migrate_one(&self, session: u64, dead: usize) -> Option<usize> {
        let root = self.config.data_root.as_ref()?;
        let target = {
            let health = self.health.lock().unwrap_or_else(|e| e.into_inner());
            pick_shard(&self.ring, &health, splitmix64(session), Some(dead)).ok()?
        };
        let src = session_dir(&shard_subroot(root, self.shards[dead].id), session);
        let dst_root = shard_subroot(root, self.shards[target].id);
        let dst = session_dir(&dst_root, session);
        if !src.is_dir() {
            // Already moved (sweep won the race)? Trust the override map
            // filled by whoever moved it; otherwise the state is gone.
            return self
                .migrated
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get(&session)
                .copied();
        }
        std::fs::create_dir_all(&dst_root).ok()?;
        std::fs::rename(&src, &dst).ok()?;
        self.migrated
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(session, target);
        self.log_manifest(
            MANIFEST_MIGRATE_KIND,
            format!("{session} {}", self.shards[target].id).as_bytes(),
        );
        self.metrics.sessions_migrated.add(1);
        Some(target)
    }

    /// Failover sweep: migrates every durable session found under the
    /// dead shard's subroot. Best-effort per session — a rename that
    /// fails leaves the directory in place for forensics (and for the
    /// on-demand path to retry when the session's client shows up).
    fn migrate_dead_shard(&self, dead: usize) {
        let Some(root) = self.config.data_root.clone() else {
            return;
        };
        let subroot = shard_subroot(&root, self.shards[dead].id);
        let ids = scan_sessions(&subroot).unwrap_or_default();
        for id in ids {
            let _ = self.migrate_one(id, dead);
        }
    }

    /// One probe sweep over every shard: renew (or freshly grant) each
    /// shard's lease alongside the health check, then declare fenced —
    /// and only then migrate — any `Down` shard whose last acknowledged
    /// lease has provably expired.
    fn probe_sweep(&self) {
        let ttl_ms = self.config.lease_ttl.as_millis().max(1) as u64;
        for (index, shard) in self.shards.iter().enumerate() {
            self.metrics.probes.add(1);
            let offer = self.lease_offer(index);
            match probe_shard(
                &shard.addr,
                self.config.probe_deadline,
                Some((offer, ttl_ms)),
            ) {
                Ok((latency, pressure, ack)) => {
                    self.metrics
                        .probe_latency_us
                        .record(latency.as_micros().min(u128::from(u64::MAX)) as u64);
                    if let Some(ack) = ack {
                        if ack.epoch > offer {
                            self.note_foreign_epoch(ack.epoch);
                        }
                    }
                    let mut health = self.health.lock().unwrap_or_else(|e| e.into_inner());
                    let entry = &mut health[index];
                    entry.consecutive_failures = 0;
                    entry.pressure = pressure;
                    match ack {
                        Some(ack) if ack.epoch > offer => {
                            // The shard holds an epoch this router never
                            // issued (we lost state). Routable for its
                            // existing sessions, but hold new placements
                            // until a strictly higher grant lands.
                            entry.pending_offer = None;
                            entry.needs_fresh_epoch = true;
                            entry.state = ShardState::Suspect;
                        }
                        Some(ack) if ack.fenced => {
                            // Alive but self-fenced; an equal-epoch offer
                            // cannot clear a fence. Next sweep offers a
                            // fresh epoch.
                            entry.needs_fresh_epoch = true;
                            entry.state = ShardState::Suspect;
                        }
                        Some(_) => {
                            let rejoining = entry.fenced_declared;
                            entry.epoch = offer;
                            entry.pending_offer = None;
                            entry.needs_fresh_epoch = false;
                            entry.last_ack = Some(Instant::now());
                            entry.fenced_declared = false;
                            entry.state = ShardState::Up;
                            self.metrics.leases_granted.add(1);
                            if rejoining {
                                self.metrics.shards_rejoined.add(1);
                            }
                        }
                        None => {
                            // Pre-lease shard: health-only probing, and
                            // the fence wait anchors at the last healthy
                            // probe.
                            entry.last_ack = Some(Instant::now());
                            entry.state = ShardState::Up;
                        }
                    }
                }
                Err(_) => {
                    self.metrics.probe_failures.add(1);
                    let mut health = self.health.lock().unwrap_or_else(|e| e.into_inner());
                    let entry = &mut health[index];
                    entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
                    entry.state = if entry.consecutive_failures >= self.config.down_after {
                        ShardState::Down
                    } else if entry.consecutive_failures >= self.config.suspect_after {
                        ShardState::Suspect
                    } else {
                        entry.state
                    };
                }
            }
        }
        // Fence pass: release a Down shard's sessions only once its
        // lease must have expired — by then the shard has self-fenced
        // (or was never alive), so a survivor's replay cannot race a
        // still-writing owner.
        let mut expired = Vec::new();
        {
            let health = self.health.lock().unwrap_or_else(|e| e.into_inner());
            for (index, entry) in health.iter().enumerate() {
                if entry.state == ShardState::Down
                    && !entry.fenced_declared
                    && self
                        .fence_wait_remaining(entry.last_ack.unwrap_or(self.started))
                        .is_none()
                {
                    expired.push(index);
                }
            }
        }
        self.publish_state_gauges();
        for dead in expired {
            self.declare_fenced(dead);
        }
    }

    /// Declares shard `index` fenced — its last acknowledged lease has
    /// provably expired — then accounts the expiry and migrates the
    /// shard's durable sessions to survivors. Idempotent under the
    /// health lock: whichever of the probe sweep or an on-demand `ROUTE`
    /// observes the expiry first performs the declaration.
    fn declare_fenced(&self, index: usize) -> bool {
        {
            let mut health = self.health.lock().unwrap_or_else(|e| e.into_inner());
            let entry = &mut health[index];
            if entry.fenced_declared {
                return false;
            }
            entry.fenced_declared = true;
            entry.needs_fresh_epoch = true;
        }
        self.metrics.lease_expiries.add(1);
        self.metrics.shards_fenced.add(1);
        self.metrics.failovers.add(1);
        self.migrate_dead_shard(index);
        true
    }
}

/// One health probe against a shard under a hard deadline. When
/// `lease` carries `(epoch, ttl_ms)`, a `LEASE` frame is pipelined in
/// front of the `STATS` so the lease renews on the same round trip.
/// Returns the round-trip latency, the shard's current admission
/// pressure parsed from its `memory_budget` gauge (Nominal when the
/// shard runs without a governor budget), and the lease ack — `None`
/// when the shard predates the lease protocol (it answered the `LEASE`
/// frame with `ERR`).
fn probe_shard(
    addr: &str,
    deadline: Duration,
    lease: Option<(u64, u64)>,
) -> io::Result<(Duration, Pressure, Option<LeaseAck>)> {
    let start = Instant::now();
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable shard addr"))?;
    let mut stream = TcpStream::connect_timeout(&sock, deadline)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(deadline))?;
    stream.set_write_timeout(Some(deadline))?;
    let mut request = String::new();
    if let Some((epoch, ttl_ms)) = lease {
        request.push_str(&ClientFrame::Lease { epoch, ttl_ms }.encode());
        request.push('\n');
    }
    request.push_str("STATS\n");
    stream.write_all(request.as_bytes())?;
    let mut reader = LineReader::new();
    let mut pressure = Pressure::Nominal;
    let mut ack = None;
    let mut expect_ack = lease.is_some();
    loop {
        if start.elapsed() > deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "probe deadline"));
        }
        match reader.next(&mut stream) {
            Tick::Line(line) => {
                if let Some(found) = parse_probe_pressure(&line) {
                    pressure = found;
                }
                if line.starts_with("OK") {
                    if expect_ack {
                        expect_ack = false;
                        if let Some(parsed) = parse_lease_ack(&line) {
                            ack = Some(parsed);
                            continue;
                        }
                        // Bare OK while awaiting the ack: the STATS
                        // terminator arrived first, so no lease reply
                        // is coming.
                    }
                    return Ok((start.elapsed(), pressure, ack));
                }
                if line.starts_with("ERR") {
                    if expect_ack {
                        // The shard rejected the LEASE frame (older
                        // protocol build): fall back to health-only
                        // probing and keep reading the STATS reply.
                        expect_ack = false;
                        continue;
                    }
                    return Err(io::Error::other(format!("probe rejected: {line}")));
                }
            }
            Tick::Idle => return Err(io::Error::new(io::ErrorKind::TimedOut, "probe deadline")),
            Tick::Eof => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "shard closed mid-probe",
                ))
            }
            Tick::Oversize | Tick::Err => return Err(io::Error::other("unreadable probe reply")),
        }
    }
}

/// Parses a `LEASE` acknowledgement (`OK epoch=<e> fenced=<0|1>`);
/// `None` for any other `OK` line.
fn parse_lease_ack(line: &str) -> Option<LeaseAck> {
    let mut epoch = None;
    let mut fenced = false;
    for token in line.split_ascii_whitespace().skip(1) {
        match token.split_once('=') {
            Some(("epoch", v)) => epoch = v.parse().ok(),
            Some(("fenced", v)) => fenced = v == "1",
            _ => {}
        }
    }
    Some(LeaseAck {
        epoch: epoch?,
        fenced,
    })
}

/// Reads the shard's admission pressure off its `memory_budget` STAT
/// line, mirroring `MemoryBudget::pressure`: accounted bytes are spill
/// (`value`) plus retained, compared against the soft/hard watermarks.
/// Returns `None` for every other line, and for one that is not JSON — a
/// shard's reply is outside input.
fn parse_probe_pressure(line: &str) -> Option<Pressure> {
    let stat = json::parse(line.strip_prefix("STAT ")?).ok()?;
    if stat.get("metric")?.as_str()? != BudgetSnapshot::METRIC {
        return None;
    }
    let field = |key| stat.get(key).and_then(Json::as_u64);
    let total = field("value")
        .unwrap_or(0)
        .saturating_add(field("retained").unwrap_or(0));
    Some(match (field("soft"), field("hard")) {
        (_, Some(hard)) if total >= hard => Pressure::Hard,
        (Some(soft), _) if total >= soft => Pressure::Soft,
        _ => Pressure::Nominal,
    })
}

/// Remote stop switch for a running router (signal watchers, tests).
#[derive(Clone)]
pub struct FleetHandle {
    stop: Arc<AtomicBool>,
}

impl FleetHandle {
    /// Requests the router stop accepting and return from
    /// [`FleetRouter::run`].
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// What [`FleetRouter::run`] returns after the drain.
pub struct FleetSummary {
    /// Final fleet-wide metrics.
    pub fleet: FleetSnapshot,
}

/// The fleet router. Construct over a shard list, bind an endpoint,
/// [`FleetRouter::run`].
pub struct FleetRouter {
    shared: Arc<Shared>,
    listeners: Vec<TcpListener>,
    stop: Arc<AtomicBool>,
}

impl FleetRouter {
    /// A router over `shards` (spawned by the CLI or read from a
    /// manifest). Panics if `shards` is empty or
    /// [`FleetConfig::router_data_dir`] points at an unusable
    /// directory.
    pub fn new(shards: Vec<ShardSpec>, config: FleetConfig) -> Self {
        assert!(!shards.is_empty(), "a fleet needs at least one shard");
        let mut health: Vec<ShardHealth> = (0..shards.len()).map(|_| ShardHealth::new()).collect();
        let mut migrated = HashMap::new();
        let mut next_epoch = 1u64;
        let manifest = config.router_data_dir.as_ref().map(|dir| {
            let wal_config = WalConfig {
                fsync: FsyncPolicy::Always,
                ..WalConfig::default()
            };
            let (wal, records) =
                Wal::open(dir, wal_config).expect("router data dir must be usable");
            let replayed = replay_manifest(&records);
            next_epoch = replayed.next_epoch;
            for (shard_id, epoch) in replayed.epochs {
                if let Some(index) = shards.iter().position(|s| s.id == shard_id) {
                    health[index].epoch = epoch;
                }
            }
            for (session, shard_id) in replayed.migrated {
                if let Some(index) = shards.iter().position(|s| s.id == shard_id) {
                    migrated.insert(session, index);
                }
            }
            Manifest {
                wal,
                appends_since_compact: 0,
            }
        });
        let ring = build_ring(&shards);
        let shared = Shared {
            shards,
            ring,
            health: Mutex::new(health),
            migrated: Mutex::new(migrated),
            metrics: FleetMetrics::new(),
            config,
            placements: AtomicU64::new(0),
            next_epoch: AtomicU64::new(next_epoch),
            manifest: Mutex::new(manifest),
            started: Instant::now(),
        };
        if next_epoch > 1 {
            shared.metrics.fencing_epoch.set(next_epoch - 1);
        }
        shared.publish_state_gauges();
        FleetRouter {
            shared: Arc::new(shared),
            listeners: Vec::new(),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Binds a TCP endpoint (port 0 for ephemeral); returns the bound
    /// address.
    pub fn bind_tcp(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        self.listeners.push(listener);
        Ok(local)
    }

    /// A stop switch usable from another thread.
    pub fn handle(&self) -> FleetHandle {
        FleetHandle {
            stop: Arc::clone(&self.stop),
        }
    }

    /// Live fleet metrics.
    pub fn fleet_metrics(&self) -> FleetSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Current `(state, pressure)` of every shard, by index.
    pub fn shard_states(&self) -> Vec<(ShardState, Pressure)> {
        let health = self.shared.health.lock().unwrap_or_else(|e| e.into_inner());
        health.iter().map(|h| (h.state, h.pressure)).collect()
    }

    /// Current `(acknowledged epoch, declared fenced)` of every shard,
    /// by index.
    pub fn shard_leases(&self) -> Vec<(u64, bool)> {
        let health = self.shared.health.lock().unwrap_or_else(|e| e.into_inner());
        health
            .iter()
            .map(|h| (h.epoch, h.fenced_declared))
            .collect()
    }

    /// Serves `ROUTE`/`STATS`/`SHUTDOWN` until [`FleetHandle::shutdown`]
    /// (or an inbound `SHUTDOWN` frame), probing shard health in the
    /// background the whole time. Returns the final fleet metrics.
    pub fn run(self) -> io::Result<FleetSummary> {
        assert!(
            !self.listeners.is_empty(),
            "bind at least one endpoint before run()"
        );
        let prober = {
            let shared = Arc::clone(&self.shared);
            let stop = Arc::clone(&self.stop);
            std::thread::Builder::new()
                .name("paramount-fleet-probe".to_string())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        shared.probe_sweep();
                        sleep_with_stop(&stop, shared.config.probe_interval);
                    }
                })?
        };
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.stop.load(Ordering::Relaxed) {
            let mut accepted_any = false;
            for listener in &self.listeners {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            accepted_any = true;
                            let shared = Arc::clone(&self.shared);
                            let stop = Arc::clone(&self.stop);
                            if let Ok(handle) = std::thread::Builder::new()
                                .name("paramount-fleet-conn".to_string())
                                .spawn(move || serve_router_conn(stream, shared, stop))
                            {
                                workers.push(handle);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
            }
            workers.retain(|w| !w.is_finished());
            if !accepted_any {
                std::thread::sleep(ACCEPT_TICK);
            }
        }
        for worker in workers {
            let _ = worker.join();
        }
        let _ = prober.join();
        Ok(FleetSummary {
            fleet: self.shared.metrics.snapshot(),
        })
    }
}

/// Router state recovered from the durable manifest.
struct ReplayedManifest {
    /// Next epoch to issue (strictly above anything ever journaled).
    next_epoch: u64,
    /// Shard id → highest epoch granted to it.
    epochs: HashMap<usize, u64>,
    /// Session id → shard id it was migrated to.
    migrated: HashMap<u64, usize>,
}

/// Replays the manifest records in order. Snapshots reset the state;
/// incremental `E`/`G` records refine it. Unparseable records are
/// skipped (the manifest is an optimization, never ground truth for
/// session *data* — that lives in the shard subroots).
fn replay_manifest(records: &[Record]) -> ReplayedManifest {
    let mut out = ReplayedManifest {
        next_epoch: 1,
        epochs: HashMap::new(),
        migrated: HashMap::new(),
    };
    let apply_line = |out: &mut ReplayedManifest, kind: u8, text: &str| {
        let mut parts = text.split_ascii_whitespace();
        match kind {
            MANIFEST_EPOCH_KIND => {
                if let (Some(Ok(shard)), Some(Ok(epoch))) = (
                    parts.next().map(str::parse::<usize>),
                    parts.next().map(str::parse::<u64>),
                ) {
                    let slot = out.epochs.entry(shard).or_insert(0);
                    *slot = (*slot).max(epoch);
                    out.next_epoch = out.next_epoch.max(epoch + 1);
                }
            }
            MANIFEST_MIGRATE_KIND => {
                if let (Some(Ok(session)), Some(Ok(shard))) = (
                    parts.next().map(str::parse::<u64>),
                    parts.next().map(str::parse::<usize>),
                ) {
                    out.migrated.insert(session, shard);
                }
            }
            _ => {}
        }
    };
    for record in records {
        let Ok(text) = std::str::from_utf8(&record.payload) else {
            continue;
        };
        match record.kind {
            MANIFEST_SNAPSHOT_KIND => {
                out.epochs.clear();
                out.migrated.clear();
                out.next_epoch = 1;
                for line in text.lines() {
                    let Some((tag, rest)) = line.split_once(' ') else {
                        continue;
                    };
                    match tag {
                        "N" => {
                            if let Ok(n) = rest.trim().parse::<u64>() {
                                out.next_epoch = out.next_epoch.max(n);
                            }
                        }
                        "E" => apply_line(&mut out, MANIFEST_EPOCH_KIND, rest),
                        "G" => apply_line(&mut out, MANIFEST_MIGRATE_KIND, rest),
                        _ => {}
                    }
                }
            }
            kind => apply_line(&mut out, kind, text),
        }
    }
    out
}

/// Sleeps up to `total`, waking early when `stop` is raised.
fn sleep_with_stop(stop: &AtomicBool, total: Duration) {
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(20)));
    }
}

/// One router connection: answer `ROUTE`/`STATS`, honor `SHUTDOWN`,
/// reject everything else with `ERR state` (sessions belong on shards).
fn serve_router_conn(mut stream: TcpStream, shared: Arc<Shared>, stop: Arc<AtomicBool>) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut reader = LineReader::new();
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let line = match reader.next(&mut stream) {
            Tick::Line(line) => line,
            Tick::Idle => continue,
            Tick::Eof | Tick::Err => return,
            Tick::Oversize => {
                let err = DecodeError::new(ErrCode::Proto, "line exceeds maximum length");
                let _ = reply(&mut stream, &ServerFrame::Err(err));
                return;
            }
        };
        let frame = match parse_client_line(&line) {
            Ok(frame) => frame,
            Err(err) => {
                if reply(&mut stream, &ServerFrame::Err(err)).is_err() {
                    return;
                }
                continue;
            }
        };
        match frame {
            ClientFrame::Route { session } => {
                let response = route_response(&shared, session);
                if reply(&mut stream, &response).is_err() {
                    return;
                }
            }
            ClientFrame::Stats => {
                let mut out = String::new();
                for json in shared.metrics.snapshot().to_json_lines("fleet").lines() {
                    out.push_str(&ServerFrame::Stat(json.to_string()).encode());
                    out.push('\n');
                }
                let health = {
                    let health = shared.health.lock().unwrap_or_else(|e| e.into_inner());
                    health.clone()
                };
                for (index, entry) in health.iter().enumerate() {
                    let json = shard_state_json(&shared.shards[index], entry);
                    out.push_str(&ServerFrame::Stat(json).encode());
                    out.push('\n');
                }
                out.push_str(&ServerFrame::Ok(Vec::new()).encode());
                out.push('\n');
                if stream.write_all(out.as_bytes()).is_err() {
                    return;
                }
            }
            ClientFrame::Shutdown => {
                let _ = reply(&mut stream, &ServerFrame::Ok(Vec::new()));
                stop.store(true, Ordering::Relaxed);
                return;
            }
            _ => {
                let err = DecodeError::new(
                    ErrCode::State,
                    "fleet router answers ROUTE, STATS and SHUTDOWN; open sessions on the shard ROUTE names",
                );
                if reply(&mut stream, &ServerFrame::Err(err)).is_err() {
                    return;
                }
            }
        }
    }
}

/// Builds the reply to one `ROUTE` frame.
fn route_response(shared: &Shared, session: Option<u64>) -> ServerFrame {
    let resolved = match session {
        Some(id) => shared.resolve_session(id),
        None => shared.place_new().map_err(|e| {
            shared.metrics.routes_rejected.add(1);
            match e {
                PickError::AllBusy => DecodeError::busy(
                    shared.config.busy_retry_after_ms,
                    "every shard is at hard memory pressure",
                ),
                PickError::NoneUp => {
                    DecodeError::busy(shared.config.busy_retry_after_ms, "no shard is reachable")
                }
            }
        }),
    };
    match resolved {
        Ok(index) => {
            if session.is_none() {
                shared.metrics.sessions_routed.add(1);
            }
            ServerFrame::Ok(vec![
                ("shard".to_string(), shared.shards[index].id.to_string()),
                ("addr".to_string(), shared.shards[index].addr.clone()),
            ])
        }
        Err(err) => ServerFrame::Err(err),
    }
}

/// One per-shard STAT line for `paramount stats` against the router.
fn shard_state_json(shard: &ShardSpec, health: &ShardHealth) -> String {
    let pressure = match health.pressure {
        Pressure::Nominal => "nominal",
        Pressure::Soft => "soft",
        Pressure::Hard => "hard",
    };
    stat_line("fleet", "shard_state", "state")
        .u64("shard", shard.id as u64)
        .str("addr", &shard.addr)
        .str("state", &health.state.to_string())
        .str("pressure", pressure)
        .u64("consecutive_failures", health.consecutive_failures.into())
        .u64("epoch", health.epoch)
        .u64("fenced", health.fenced_declared.into())
        .finish()
}

/// Writes one frame line.
fn reply(stream: &mut TcpStream, frame: &ServerFrame) -> io::Result<()> {
    let mut line = frame.encode();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: usize) -> Vec<ShardSpec> {
        (0..n)
            .map(|id| ShardSpec {
                id,
                addr: format!("127.0.0.1:{}", 9000 + id),
            })
            .collect()
    }

    fn healthy(n: usize) -> Vec<ShardHealth> {
        (0..n).map(|_| ShardHealth::new()).collect()
    }

    #[test]
    fn manifest_parses_comments_blanks_and_rejects_garbage() {
        let text = "# fleet of two\n\nshard 0 127.0.0.1:7001\nshard 1 127.0.0.1:7002\n";
        let shards = parse_manifest(text).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[1].addr, "127.0.0.1:7002");
        assert!(parse_manifest("").is_err());
        assert!(parse_manifest("shard x 127.0.0.1:1").is_err());
        assert!(parse_manifest("shard 0").is_err());
        assert!(parse_manifest("node 0 127.0.0.1:1").is_err());
        assert!(parse_manifest("shard 0 a:1\nshard 0 b:2").is_err());
        assert!(parse_manifest("shard 0 a:1 extra").is_err());
    }

    #[test]
    fn session_ids_encode_their_home_shard() {
        for shard in [0usize, 1, 2, 7, 255] {
            let first = first_session_id(shard);
            assert_eq!(shard_of_session(first), shard);
            assert_eq!(shard_of_session(first + 41), shard);
        }
        assert_eq!(
            first_session_id(0),
            1,
            "shard 0 ids match a standalone daemon"
        );
    }

    #[test]
    fn ring_is_deterministic_and_covers_every_shard() {
        let shards = specs(3);
        let ring = build_ring(&shards);
        assert_eq!(ring, build_ring(&shards));
        assert_eq!(ring.len(), 3 * VNODES_PER_SHARD);
        let health = healthy(3);
        let mut hits = [0u32; 3];
        for n in 0..999u64 {
            let key = splitmix64(PLACEMENT_SALT ^ n);
            hits[pick_shard(&ring, &health, key, None).unwrap()] += 1;
        }
        for (shard, &count) in hits.iter().enumerate() {
            assert!(count > 100, "shard {shard} got {count}/999 placements");
        }
    }

    #[test]
    fn placement_skips_down_avoids_soft_and_rejects_hard_fleet() {
        let shards = specs(3);
        let ring = build_ring(&shards);
        let mut health = healthy(3);
        health[0].state = ShardState::Down;
        for n in 0..100u64 {
            let picked = pick_shard(&ring, &health, splitmix64(n), None).unwrap();
            assert_ne!(picked, 0, "down shard must never place");
        }
        health[1].pressure = Pressure::Soft;
        for n in 0..100u64 {
            let picked = pick_shard(&ring, &health, splitmix64(n), None).unwrap();
            assert_eq!(picked, 2, "the only nominal shard takes every placement");
        }
        health[2].pressure = Pressure::Hard;
        for n in 0..20u64 {
            let picked = pick_shard(&ring, &health, splitmix64(n), None).unwrap();
            assert_eq!(picked, 1, "soft beats hard");
        }
        health[1].pressure = Pressure::Hard;
        assert_eq!(
            pick_shard(&ring, &health, 7, None),
            Err(PickError::AllBusy),
            "whole fleet hard => busy"
        );
        health[1].state = ShardState::Down;
        health[2].state = ShardState::Down;
        assert_eq!(pick_shard(&ring, &health, 7, None), Err(PickError::NoneUp));
    }

    #[test]
    fn exclusion_reroutes_a_dead_shards_sessions_to_survivors() {
        let shards = specs(3);
        let ring = build_ring(&shards);
        let health = healthy(3);
        for id in (0..50u64).map(|n| first_session_id(1) + n) {
            let target = pick_shard(&ring, &health, splitmix64(id), Some(1)).unwrap();
            assert_ne!(target, 1);
        }
    }

    #[test]
    fn probe_pressure_parses_the_memory_budget_gauge() {
        let line = |v: u64, r: u64, caps: &str| {
            format!(
                "STAT {{\"label\":\"d\",\"metric\":\"memory_budget\",\"type\":\"gauge\",\"value\":{v},\"high_water\":9,\"retained\":{r}{caps}}}"
            )
        };
        assert_eq!(
            parse_probe_pressure(&line(10, 5, ",\"soft\":100,\"hard\":200")),
            Some(Pressure::Nominal)
        );
        assert_eq!(
            parse_probe_pressure(&line(90, 20, ",\"soft\":100,\"hard\":200")),
            Some(Pressure::Soft)
        );
        assert_eq!(
            parse_probe_pressure(&line(150, 60, ",\"soft\":100,\"hard\":200")),
            Some(Pressure::Hard)
        );
        assert_eq!(
            parse_probe_pressure(&line(u64::MAX, 5, "")),
            Some(Pressure::Nominal),
            "unbudgeted daemons never report pressure"
        );
        assert_eq!(
            parse_probe_pressure("STAT {\"metric\":\"events_total\",\"value\":3}"),
            None
        );
        assert_eq!(parse_probe_pressure("OK"), None);
    }

    #[test]
    fn shard_state_line_matches_the_fixture() {
        let shard = ShardSpec {
            id: 3,
            addr: "127.0.0.1:9003".to_string(),
        };
        let health = ShardHealth {
            state: ShardState::Suspect,
            pressure: Pressure::Soft,
            consecutive_failures: 2,
            epoch: 7,
            fenced_declared: true,
            ..ShardHealth::new()
        };
        assert_eq!(
            shard_state_json(&shard, &health) + "\n",
            include_str!("../tests/golden/shard_state.jsonl")
        );
    }

    #[test]
    fn shard_state_transitions_respect_thresholds() {
        let config = FleetConfig {
            suspect_after: 2,
            down_after: 4,
            ..FleetConfig::default()
        };
        let mut entry = ShardHealth::new();
        let advance = |entry: &mut ShardHealth| {
            entry.consecutive_failures += 1;
            entry.state = if entry.consecutive_failures >= config.down_after {
                ShardState::Down
            } else if entry.consecutive_failures >= config.suspect_after {
                ShardState::Suspect
            } else {
                entry.state
            };
        };
        advance(&mut entry);
        assert_eq!(entry.state, ShardState::Up);
        advance(&mut entry);
        assert_eq!(entry.state, ShardState::Suspect);
        advance(&mut entry);
        assert_eq!(entry.state, ShardState::Suspect);
        advance(&mut entry);
        assert_eq!(entry.state, ShardState::Down);
    }

    #[test]
    fn subroot_layout_is_stable() {
        let root = Path::new("/var/fleet");
        assert_eq!(shard_subroot(root, 2), Path::new("/var/fleet/shard-2"));
    }

    #[test]
    fn lease_acks_parse_and_plain_oks_do_not() {
        assert_eq!(
            parse_lease_ack("OK epoch=7 fenced=0"),
            Some(LeaseAck {
                epoch: 7,
                fenced: false
            })
        );
        assert_eq!(
            parse_lease_ack("OK epoch=3 fenced=1"),
            Some(LeaseAck {
                epoch: 3,
                fenced: true
            })
        );
        assert_eq!(
            parse_lease_ack("OK"),
            None,
            "STATS terminator is not an ack"
        );
        assert_eq!(parse_lease_ack("OK session=4 proto=1"), None);
    }

    #[test]
    fn manifest_replay_restores_epochs_migrations_and_counter() {
        let rec = |kind: u8, text: &str| Record {
            kind,
            payload: text.as_bytes().to_vec(),
        };
        let records = vec![
            rec(MANIFEST_EPOCH_KIND, "0 1"),
            rec(MANIFEST_EPOCH_KIND, "1 2"),
            rec(MANIFEST_MIGRATE_KIND, "4294967297 0"),
            rec(MANIFEST_EPOCH_KIND, "1 5"),
        ];
        let replayed = replay_manifest(&records);
        assert_eq!(replayed.next_epoch, 6);
        assert_eq!(replayed.epochs.get(&0), Some(&1));
        assert_eq!(replayed.epochs.get(&1), Some(&5));
        assert_eq!(replayed.migrated.get(&4294967297), Some(&0));

        // A snapshot resets state; later increments refine it again.
        let records = vec![
            rec(MANIFEST_EPOCH_KIND, "0 9"),
            rec(MANIFEST_SNAPSHOT_KIND, "N 12\nE 0 10\nE 2 11\nG 77 2\n"),
            rec(MANIFEST_MIGRATE_KIND, "78 0"),
        ];
        let replayed = replay_manifest(&records);
        assert_eq!(replayed.next_epoch, 12);
        assert_eq!(replayed.epochs.get(&0), Some(&10));
        assert_eq!(replayed.epochs.get(&2), Some(&11));
        assert_eq!(replayed.migrated.get(&77), Some(&2));
        assert_eq!(replayed.migrated.get(&78), Some(&0));

        // Garbage records are skipped, not fatal.
        let replayed = replay_manifest(&[rec(MANIFEST_EPOCH_KIND, "not numbers")]);
        assert_eq!(replayed.next_epoch, 1);
        assert!(replayed.epochs.is_empty());
    }
}
