//! Durable session store: a crash-safe WAL + checkpoint subsystem.
//!
//! # What is persisted, and why it is enough
//!
//! Theorem 3 makes the engine's entire deliverable — every cut of the
//! observed prefix, exactly once — a *pure function of the accepted
//! event sequence*. So the store persists exactly that: the `HELLO`
//! that opened the session (one `META` record) followed by one `EVENT`
//! record per accepted operation, in acceptance order. Recovery replays
//! the sequence through a fresh [`Session`](crate::Session) and lands,
//! deterministically, in the same lattice position the crashed daemon
//! held. Pending intervals, recorder frontiers, and engine queues are
//! all derived state and are never written down.
//!
//! # Checkpoints
//!
//! Replay regenerates everything except what the *crashed* engine gave
//! up on: the quarantine tally and the exact `[Gmin, Gbnd]` ledger (the
//! recovered engine retries that work and usually succeeds). Every
//! [`StoreConfig::checkpoint_every`] accepted events the store appends
//! one `CHECKPOINT` record holding exactly that — the `META` line, an
//! `acked=<n> quarantined=<q>` header, one `QUAR` line per ledger entry
//! — in place, behind the events it follows, and syncs it. It copies no
//! events: the delta since the previous checkpoint already is the log's
//! `E`/`F` records, and a copy of the prefix is as long as the records
//! it would supersede, so folding the log costs O(session length) per
//! checkpoint and shrinks nothing. A checkpoint smaller than the log
//! needs the engine to retire a prefix; until it can, the log is the
//! smallest faithful checkpoint, and no segment is deleted before a
//! clean `END` deletes the whole store.
//!
//! `acked` is a cross-check, not a cursor: recovery counts the event
//! records it replays and refuses — an `io::Error` naming both counts —
//! a checkpoint whose `acked` differs. A log with a gap is no longer a
//! prefix of the accepted sequence, and replaying it would enumerate a
//! computation that never ran. A torn or missing checkpoint is an
//! ordinary torn tail: the events before it replay and the previous
//! checkpoint's ledger stands.
//!
//! Earlier builds folded the log instead: their checkpoints also carry
//! the whole prefix as `EVENT` lines, and the segments before them are
//! gone. Recovery still reads those lines (they replace the replayed
//! list, then the same `acked` check applies), so existing data dirs
//! resume; nothing writes them any more.
//!
//! # Record encoding
//!
//! Payloads reuse the wire protocol's line grammar verbatim — a `META`
//! record is `<id> <HELLO line>`, an `EVENT` record is the `EVENT` line
//! itself, and a `CHECKPOINT` is the `META` line, a header line and
//! `QUAR` lines. The WAL's length-prefix + CRC framing supplies
//! integrity; the text form means one codec ([`crate::proto`]) serves
//! the socket and the disk, and `strings wal-0000000001.log` shows a
//! legible session.
//!
//! # Fencing epochs
//!
//! Fleet daemons hold a time-bounded lease carrying a monotonically
//! increasing epoch ([`crate::lease`]). The store participates in the
//! fencing protocol at the WAL layer: the owner's shard space and epoch
//! are stamped into every `META` (and checkpoint) record, appends are
//! refused while the owning daemon is fenced *or* once its lease epoch
//! falls below the stamp, and recovery by the *same* shard space under a
//! strictly lower (non-zero) epoch than the stamp is refused outright —
//! a later incarnation replaying the log re-stamps it and wins, and the
//! stale incarnation's writes can never land afterwards. Epochs granted
//! to *different* shards are incomparable (the router grants them from
//! one counter, but each shard's history is its own), so a store whose
//! stamp names a foreign owner is adopted unconditionally: the router
//! only moves a session's directory after fencing its old owner, and
//! the rename itself is the transfer of authority. Epoch 0 means "never
//! leased" (standalone daemons), which disables all of this.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use paramount::{EventId, FaultLog, Frontier, IngestMetrics, Interval, QuarantinedInterval, Tid};
use paramount_durable::{FsyncPolicy, Record, Wal, WalConfig};

use crate::lease::FenceGuard;
use crate::proto::{parse_client_line, ClientFrame, Hello, WireOp};

/// Record kind byte: session identity + `HELLO` parameters.
pub const META_KIND: u8 = b'M';
/// Record kind byte: one accepted event (text `EVENT` line payload).
pub const EVENT_KIND: u8 = b'E';
/// Record kind byte: one accepted event, `paramount/2` binary body
/// ([`crate::wire2::encode_event_record`] — a self-contained frame, no
/// cross-record interning, so every record decodes on its own).
pub const EVENT2_KIND: u8 = b'F';
/// Record kind byte: checkpoint (identity, acked count, quarantine tally
/// and ledger — see the module docs).
pub const CHECKPOINT_KIND: u8 = b'C';

/// Knobs a [`SessionStore`] is built with (server-level policy).
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Make the quarantine tally and ledger durable (one checkpoint
    /// record) every this many accepted events. `0` disables automatic
    /// checkpoints.
    pub checkpoint_every: u64,
    /// When WAL appends reach stable storage. `FLUSH` and checkpoints
    /// force regardless under [`FsyncPolicy::OnDemand`].
    pub fsync: FsyncPolicy,
    /// Registry for `checkpoint_writes` / `wal_segments`; `None` keeps
    /// the store silent (library embedders, tests).
    pub metrics: Option<Arc<IngestMetrics>>,
    /// Append events as binary [`EVENT2_KIND`] records instead of text
    /// `EVENT` lines. A session whose persisted `HELLO` negotiated
    /// `paramount/2` logs binary records regardless; this is the
    /// explicit override for library embedders. Purely a write-side
    /// policy: recovery replays both kinds, so a log may mix them.
    pub binary_events: bool,
    /// The owning daemon's fencing epoch at store creation/recovery; it
    /// is stamped into `META` so a later incarnation of the same shard
    /// can prove precedence. `0` means the daemon was never leased
    /// (standalone mode) and disables epoch checks.
    pub epoch: u64,
    /// The owning daemon's shard space (`first_session_id >> 32`),
    /// stamped alongside the epoch. Epochs only order incarnations of
    /// the *same* shard; a store stamped by a foreign space was migrated
    /// in by the router and is adopted regardless of the numeric stamp.
    pub own_space: u64,
    /// The owning daemon's live fence state. When set, appends and
    /// checkpoints are refused while the daemon is fenced or once its
    /// lease epoch falls below the stamped [`StoreConfig::epoch`].
    pub guard: Option<Arc<FenceGuard>>,
}

impl StoreConfig {
    /// Opens the WAL in `dir` under this fsync policy.
    fn open_wal(&self, dir: &Path) -> io::Result<(Wal, Vec<Record>)> {
        let wal_config = WalConfig {
            fsync: self.fsync,
            ..WalConfig::default()
        };
        Wal::open(dir, wal_config)
    }
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            checkpoint_every: 4096,
            fsync: FsyncPolicy::OnDemand,
            metrics: None,
            binary_events: false,
            epoch: 0,
            own_space: 0,
            guard: None,
        }
    }
}

/// Everything recovery rebuilt from disk: the session identity, the
/// accepted event prefix to replay, and the store re-opened for further
/// appends.
#[derive(Debug)]
pub struct RecoveredState {
    /// Persisted session id.
    pub id: u64,
    /// The `HELLO` the session was opened with.
    pub hello: Hello,
    /// Accepted events in acceptance order (`(tid, op)`).
    pub events: Vec<(usize, WireOp)>,
    /// Quarantine tally recorded by the last checkpoint (diagnostic;
    /// replay regenerates the live value).
    pub quarantined: u64,
    /// The quarantine ledger as of the last checkpoint: exact
    /// `[Gmin, Gbnd]` bounds of every interval the session's engine gave
    /// up on before the crash. Replay cannot regenerate these (the
    /// recovered engine retries the work and usually succeeds), so the
    /// checkpoint is their only home across a restart.
    pub quarantine: Vec<QuarantinedInterval>,
    /// The store, positioned to append event `events.len() + 1`.
    pub store: SessionStore,
}

/// One session's crash-safe log. See the module docs for the model.
#[derive(Debug)]
pub struct SessionStore {
    dir: PathBuf,
    wal: Wal,
    cfg: StoreConfig,
    /// Session identity, re-embedded in every checkpoint and re-stamp.
    id: u64,
    hello: Hello,
    /// The fencing epoch stamped in the store's `META` record — the
    /// epoch of the incarnation that owns this log. Appends are refused
    /// once the guard's live epoch falls below it.
    epoch: u64,
    /// The shard space stamped alongside the epoch: whose grant history
    /// the stamp belongs to.
    owner: u64,
    /// Events accepted so far (the log's `E`/`F` records).
    acked: u64,
    since_checkpoint: u64,
    /// Segments currently charged to the `wal_segments` gauge.
    charged_segments: u64,
}

/// The per-session store directory under a daemon `--data-dir` root.
pub fn session_dir(root: &Path, id: u64) -> PathBuf {
    root.join(format!("session-{id:010}"))
}

/// Session ids with a store directory under `root`, ascending. Missing
/// roots scan as empty (first boot).
pub fn scan_sessions(root: &Path) -> io::Result<Vec<u64>> {
    let mut ids = Vec::new();
    let entries = match std::fs::read_dir(root) {
        Ok(entries) => entries,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(ids),
        Err(err) => return Err(err),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(id) = name
            .strip_prefix("session-")
            .and_then(|s| s.parse::<u64>().ok())
        {
            if entry.path().is_dir() {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

impl SessionStore {
    /// Creates a fresh store in `dir` (wiping any stale incarnation) and
    /// durably records the session identity.
    pub fn create(
        dir: &Path,
        id: u64,
        hello: &Hello,
        cfg: StoreConfig,
    ) -> io::Result<SessionStore> {
        fence_check(&cfg.guard)?;
        let _ = std::fs::remove_dir_all(dir);
        let (wal, _) = cfg.open_wal(dir)?;
        let mut store = SessionStore::opened(dir, wal, cfg, id, hello.clone());
        store.stamp(store.epoch, store.owner)?;
        store.publish_segments();
        Ok(store)
    }

    /// A store over an opened log with nothing accepted yet, owned by
    /// `cfg`'s epoch and shard space. The record kind is settled here,
    /// where the `HELLO` is known on every path that builds a store.
    fn opened(dir: &Path, wal: Wal, mut cfg: StoreConfig, id: u64, hello: Hello) -> SessionStore {
        cfg.binary_events |= hello.proto >= 2;
        SessionStore {
            dir: dir.to_path_buf(),
            wal,
            epoch: cfg.epoch,
            owner: cfg.own_space,
            cfg,
            id,
            hello,
            acked: 0,
            since_checkpoint: 0,
            charged_segments: 0,
        }
    }

    /// Durably appends a `META` naming `epoch` and `owner`, which own
    /// the log from then on.
    fn stamp(&mut self, epoch: u64, owner: u64) -> io::Result<()> {
        let meta = encode_meta_line(self.id, epoch, owner, &self.hello);
        self.wal.append(META_KIND, meta.as_bytes())?;
        self.wal.sync()?;
        (self.epoch, self.owner) = (epoch, owner);
        Ok(())
    }

    /// Re-opens the store in `dir` and replays it: torn-tail repair is
    /// the WAL's job; the last `META` or checkpoint names the owner, the
    /// last checkpoint supplies tally and ledger, and a checkpoint whose
    /// `acked` disagrees with the events replayed before it is an error.
    /// Returns `Ok(None)` when `dir` holds no committed `META` record
    /// (absent or empty store — nothing to resume).
    ///
    /// Fencing rules: recovery is refused while the recovering daemon is
    /// fenced, and a *leased* daemon (epoch > 0) cannot recover a store
    /// its own shard space stamped with a higher epoch — that log
    /// already belongs to a later incarnation of itself. A store stamped
    /// by a *foreign* space was migrated in by the router (which fenced
    /// the old owner before moving the directory) and is adopted
    /// regardless of the stamp. Recovering under a different admissible
    /// stamp re-stamps the log (a fresh `META` record) so the recoverer
    /// becomes the sole writer.
    pub fn recover(dir: &Path, cfg: StoreConfig) -> io::Result<Option<RecoveredState>> {
        if !dir.is_dir() {
            return Ok(None);
        }
        fence_check(&cfg.guard)?;
        let (wal, records) = cfg.open_wal(dir)?;
        let mut meta: Option<(u64, u64, u64, Hello)> = None;
        let mut events: Vec<(usize, WireOp)> = Vec::new();
        let mut quarantined = 0u64;
        let mut quarantine: Vec<QuarantinedInterval> = Vec::new();
        let mut since_checkpoint = 0u64;
        for record in &records {
            match record.kind {
                META_KIND => meta = decode_meta(record),
                EVENT_KIND => {
                    if let Some(ev) = decode_event_line(std::str::from_utf8(&record.payload).ok()) {
                        events.push(ev);
                        since_checkpoint += 1;
                    }
                }
                EVENT2_KIND => {
                    if let Ok(ev) = crate::wire2::decode_event_record(&record.payload) {
                        events.push(ev);
                        since_checkpoint += 1;
                    }
                }
                CHECKPOINT_KIND => {
                    if let Some(ckpt) = decode_checkpoint(record) {
                        if !ckpt.events.is_empty() {
                            events = ckpt.events; // a folded log: see the module docs
                        }
                        if ckpt.acked != events.len() as u64 {
                            return Err(io::Error::other(format!(
                                "gapped log: checkpoint records acked={} but {} events replay before it",
                                ckpt.acked,
                                events.len()
                            )));
                        }
                        meta = Some(ckpt.meta);
                        quarantined = ckpt.quarantined;
                        quarantine = ckpt.quarantine;
                        since_checkpoint = 0;
                    }
                }
                _ => {} // forward compatibility: unknown kinds are skipped
            }
        }
        let Some((id, stored_epoch, stored_owner, hello)) = meta else {
            return Ok(None);
        };
        if cfg.epoch > 0 && stored_owner == cfg.own_space && cfg.epoch < stored_epoch {
            return Err(io::Error::other(format!(
                "stale epoch: store is stamped epoch {stored_epoch}, recovering daemon holds {}",
                cfg.epoch
            )));
        }
        let mut store = SessionStore::opened(dir, wal, cfg, id, hello.clone());
        store.acked = events.len() as u64;
        store.since_checkpoint = since_checkpoint;
        if store.epoch != stored_epoch || store.owner != stored_owner {
            // Claim the log for this incarnation: a durably re-stamped
            // META (last-META-wins on replay) is the recoverer's proof of
            // ownership — any lower-epoch incarnation of the same space
            // that later tries to recover this log is refused above.
            store.stamp(store.epoch, store.owner)?;
        }
        store.publish_segments();
        Ok(Some(RecoveredState {
            id,
            hello,
            events,
            quarantined,
            quarantine,
            store,
        }))
    }

    /// Appends one accepted event. The caller checks
    /// [`SessionStore::should_checkpoint`] afterwards — splitting the
    /// two keeps the per-event path free of the checkpoint's inputs (the
    /// quarantine tally is a metrics fold).
    pub fn append_event(&mut self, tid: usize, op: &WireOp) -> io::Result<()> {
        self.epoch_check()?;
        if self.cfg.binary_events {
            let body = crate::wire2::encode_event_record(tid, op);
            self.wal.append(EVENT2_KIND, &body)?;
        } else {
            let line = format!("EVENT {tid} {}", op.render());
            self.wal.append(EVENT_KIND, line.as_bytes())?;
        }
        self.acked += 1;
        self.since_checkpoint += 1;
        self.publish_segments();
        Ok(())
    }

    /// Has the checkpoint interval elapsed since the last checkpoint?
    pub fn should_checkpoint(&self) -> bool {
        self.cfg.checkpoint_every > 0 && self.since_checkpoint >= self.cfg.checkpoint_every
    }

    /// Forces every accepted event so far to stable storage (the `FLUSH`
    /// durability point the acked count is measured at).
    pub fn sync(&mut self) -> io::Result<()> {
        self.wal.sync()
    }

    /// Events durably accepted — the `acked=` count `FLUSH` and `RESUME`
    /// report, and exactly how many leading trace ops a resuming client
    /// must skip.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// The fencing epoch stamped in the store's `META` record.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Refuses writes from a fenced daemon or a stale incarnation: the
    /// guard's live lease epoch must still match the stamp taken at
    /// create/recover time. This is the WAL-layer fencing check the
    /// lease protocol relies on — every durable mutation funnels
    /// through it.
    fn epoch_check(&self) -> io::Result<()> {
        let Some(guard) = &self.cfg.guard else {
            return Ok(());
        };
        if guard.is_fenced() {
            return Err(io::Error::other(format!(
                "daemon is fenced at epoch {}; durable appends refused",
                guard.epoch()
            )));
        }
        let live = guard.epoch();
        if live < self.epoch {
            return Err(io::Error::other(format!(
                "stale epoch: store is stamped epoch {}, daemon now holds {live}",
                self.epoch
            )));
        }
        Ok(())
    }

    /// Re-stamps the store under `epoch` (a durably appended fresh
    /// `META`, owned by the daemon's own shard space). Used when a
    /// daemon adopts a session under a lease newer than the one the
    /// store was stamped with — a resumed session on a re-joined shard,
    /// or a migrated-in store claimed by its new home — so the stamp
    /// names the lease that actually owns the log now.
    pub fn restamp(&mut self, epoch: u64) -> io::Result<()> {
        if epoch == self.epoch && self.owner == self.cfg.own_space {
            return Ok(());
        }
        fence_check(&self.cfg.guard)?;
        self.stamp(epoch, self.cfg.own_space)
    }

    /// Live WAL segment files.
    pub fn segment_count(&self) -> usize {
        self.wal.segment_count()
    }

    /// Appends and syncs one `CHECKPOINT` record: what replay cannot
    /// regenerate (the quarantine tally and the ledger's exact
    /// `[Gmin, Gbnd]` bounds), plus the identity and the acked count
    /// recovery cross-checks. No event is copied and no segment deleted.
    pub fn checkpoint(&mut self, quarantined: u64, ledger: &FaultLog) -> io::Result<()> {
        self.epoch_check()?;
        let payload = self.encode_checkpoint(quarantined, ledger);
        self.wal.append(CHECKPOINT_KIND, payload.as_bytes())?;
        self.wal.sync()?;
        self.since_checkpoint = 0;
        if let Some(metrics) = &self.cfg.metrics {
            metrics.checkpoint_writes.add(1);
        }
        self.publish_segments();
        Ok(())
    }

    /// `CHECKPOINT` payload: the `META` line, an `acked=<n>
    /// quarantined=<q>` header line, one `QUAR` line per ledger entry.
    fn encode_checkpoint(&self, quarantined: u64, ledger: &FaultLog) -> String {
        let mut out = encode_meta_line(self.id, self.epoch, self.owner, &self.hello);
        out.push_str(&format!("\nacked={} quarantined={quarantined}", self.acked));
        for entry in &ledger.quarantined {
            out.push('\n');
            out.push_str(&encode_quarantine_line(entry));
        }
        out
    }

    /// Deletes the store from disk (clean `END`: nothing left to
    /// resume). Consumes the store; the session directory — including
    /// any interval spill files beside the WAL — is removed.
    pub fn delete(mut self) -> io::Result<()> {
        self.release_gauge();
        let dir = std::mem::take(&mut self.dir);
        drop(self); // close the active segment before unlinking it
        std::fs::remove_dir_all(&dir)
    }

    /// Reconciles the `wal_segments` gauge with the live segment count.
    fn publish_segments(&mut self) {
        let now = self.wal.segment_count() as u64;
        if let Some(metrics) = &self.cfg.metrics {
            if now > self.charged_segments {
                metrics.wal_segments.add(now - self.charged_segments);
            } else {
                metrics.wal_segments.sub(self.charged_segments - now);
            }
        }
        self.charged_segments = now;
    }

    fn release_gauge(&mut self) {
        if let Some(metrics) = &self.cfg.metrics {
            metrics.wal_segments.sub(self.charged_segments);
        }
        self.charged_segments = 0;
    }
}

impl Drop for SessionStore {
    fn drop(&mut self) {
        self.release_gauge();
    }
}

/// Refuses a durable mutation while the owning daemon is fenced.
fn fence_check(guard: &Option<Arc<FenceGuard>>) -> io::Result<()> {
    if let Some(guard) = guard {
        if guard.is_fenced() {
            return Err(io::Error::other(format!(
                "daemon is fenced at epoch {}; durable writes refused",
                guard.epoch()
            )));
        }
    }
    Ok(())
}

/// The `META` line: `<id> [epoch=<e> [owner=<s>]] <HELLO line>`. The
/// epoch token is omitted at 0 so unleased daemons write (and old logs
/// remain) the original grammar; the owner token is omitted when the
/// stamping daemon's shard space matches the id's birth space, so it
/// only appears on migrated-in stores.
fn encode_meta_line(id: u64, epoch: u64, owner: u64, hello: &Hello) -> String {
    let mut head = id.to_string();
    if epoch > 0 {
        head.push_str(&format!(" epoch={epoch}"));
        if owner != id >> 32 {
            head.push_str(&format!(" owner={owner}"));
        }
    }
    format!("{head} {}", hello.encode())
}

/// `META` payload → `(id, epoch, owner, hello)`. Malformed records are
/// dropped (the CRC already vouched for integrity; this only rejects
/// foreign data). A missing `epoch=` token reads as 0 (pre-fencing
/// logs); a missing `owner=` token reads as the id's birth space.
fn decode_meta(record: &Record) -> Option<(u64, u64, u64, Hello)> {
    let text = std::str::from_utf8(&record.payload).ok()?;
    decode_meta_line(text)
}

fn decode_meta_line(text: &str) -> Option<(u64, u64, u64, Hello)> {
    let (id, mut hello_line) = text.split_once(' ')?;
    let id = id.parse::<u64>().ok()?;
    let mut epoch = 0u64;
    let mut owner = id >> 32;
    if let Some(rest) = hello_line.strip_prefix("epoch=") {
        let (value, after) = rest.split_once(' ')?;
        epoch = value.parse::<u64>().ok()?;
        hello_line = after;
    }
    if let Some(rest) = hello_line.strip_prefix("owner=") {
        let (value, after) = rest.split_once(' ')?;
        owner = value.parse::<u64>().ok()?;
        hello_line = after;
    }
    match parse_client_line(hello_line) {
        Ok(ClientFrame::Hello(hello)) => Some((id, epoch, owner, hello)),
        _ => None,
    }
}

/// One `EVENT <tid> <op>` line → `(tid, op)`.
fn decode_event_line(line: Option<&str>) -> Option<(usize, WireOp)> {
    match parse_client_line(line?) {
        Ok(ClientFrame::Event { tid, op }) => Some((tid, op)),
        _ => None,
    }
}

/// Everything [`decode_checkpoint`] reads back out of one record; only
/// a log that an earlier build folded has `events`.
struct Checkpoint {
    meta: (u64, u64, u64, Hello),
    acked: u64,
    quarantined: u64,
    quarantine: Vec<QuarantinedInterval>,
    events: Vec<(usize, WireOp)>,
}

fn decode_checkpoint(record: &Record) -> Option<Checkpoint> {
    let text = std::str::from_utf8(&record.payload).ok()?;
    let mut lines = text.lines();
    let meta = decode_meta_line(lines.next()?)?;
    let header = lines.next()?;
    let mut acked = None;
    let mut quarantined = 0u64;
    for token in header.split_whitespace() {
        if let Some(v) = token.strip_prefix("acked=") {
            acked = v.parse::<u64>().ok();
        } else if let Some(v) = token.strip_prefix("quarantined=") {
            quarantined = v.parse::<u64>().ok()?;
        }
    }
    let mut quarantine = Vec::new();
    let mut events = Vec::new();
    for line in lines {
        if line.starts_with("QUAR ") {
            quarantine.push(decode_quarantine_line(line)?);
        } else {
            events.push(decode_event_line(Some(line))?);
        }
    }
    Some(Checkpoint {
        meta,
        acked: acked?,
        quarantined,
        quarantine,
        events,
    })
}

/// `QUAR <tid> <index> <empty> <cuts_emitted> <attempts> <gmin> <gbnd>
/// <message...>` — frontiers as comma-joined per-thread counts, message
/// as the (newline-sanitized) rest of the line.
fn encode_quarantine_line(q: &QuarantinedInterval) -> String {
    let message: String = q
        .message
        .chars()
        .map(|c| if c.is_control() { ' ' } else { c })
        .collect();
    format!(
        "QUAR {} {} {} {} {} {} {} {message}",
        q.interval.event.tid.0,
        q.interval.event.index,
        u8::from(q.interval.include_empty),
        q.cuts_emitted,
        q.attempts,
        encode_counts(q.interval.gmin.as_slice()),
        encode_counts(q.interval.gbnd.as_slice()),
    )
}

fn decode_quarantine_line(line: &str) -> Option<QuarantinedInterval> {
    let rest = line.strip_prefix("QUAR ")?;
    let mut parts = rest.splitn(8, ' ');
    let tid = parts.next()?.parse::<u32>().ok()?;
    let index = parts.next()?.parse::<u32>().ok()?;
    let include_empty = match parts.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let cuts_emitted = parts.next()?.parse::<u64>().ok()?;
    let attempts = parts.next()?.parse::<u32>().ok()?;
    let gmin = decode_counts(parts.next()?)?;
    let gbnd = decode_counts(parts.next()?)?;
    let message = parts.next().unwrap_or("").to_string();
    Some(QuarantinedInterval {
        interval: Interval {
            event: EventId {
                tid: Tid(tid),
                index,
            },
            gmin: Frontier::from_counts(gmin),
            gbnd: Frontier::from_counts(gbnd),
            include_empty,
        },
        cuts_emitted,
        attempts,
        message,
    })
}

/// Per-thread counts as `c0,c1,...`; `-` for the (degenerate) empty
/// frontier so the token never vanishes from the line.
fn encode_counts(counts: &[u32]) -> String {
    if counts.is_empty() {
        return "-".to_string();
    }
    counts
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn decode_counts(text: &str) -> Option<Vec<u32>> {
    if text == "-" {
        return Some(Vec::new());
    }
    text.split(',').map(|c| c.parse::<u32>().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("paramount-store-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn ops(n: usize) -> Vec<(usize, WireOp)> {
        (0..n)
            .map(|i| {
                let tid = i % 2;
                let op = match i % 4 {
                    0 => WireOp::Write(format!("x{i}")),
                    1 => WireOp::Read(format!("x{}", i - 1)),
                    2 => WireOp::Acquire("m".to_string()),
                    _ => WireOp::Release("m".to_string()),
                };
                (tid, op)
            })
            .collect()
    }

    #[test]
    fn create_append_recover_round_trips_the_prefix() {
        let dir = scratch_dir("roundtrip");
        let hello = Hello {
            threads: 2,
            capture_sync: true,
            label: Some("trial".to_string()),
            ..Hello::new(2)
        };
        let trace = ops(9);
        let mut store = SessionStore::create(&dir, 7, &hello, StoreConfig::default()).unwrap();
        for (tid, op) in &trace {
            store.append_event(*tid, op).unwrap();
        }
        store.sync().unwrap();
        assert_eq!(store.acked(), 9);
        drop(store);

        let rec = SessionStore::recover(&dir, StoreConfig::default())
            .unwrap()
            .expect("store exists");
        assert_eq!(rec.id, 7);
        assert_eq!(rec.hello, hello);
        assert_eq!(rec.events, trace);
        assert_eq!(rec.store.acked(), 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_takes_events_from_the_records_and_the_ledger_from_the_last_checkpoint() {
        let dir = scratch_dir("ckpt");
        let cfg = StoreConfig {
            checkpoint_every: 4,
            ..StoreConfig::default()
        };
        let trace = ops(10);
        let mut store = SessionStore::create(&dir, 1, &Hello::new(2), cfg.clone()).unwrap();
        let mut tally = 0;
        for (tid, op) in &trace {
            store.append_event(*tid, op).unwrap();
            if store.should_checkpoint() {
                tally += 3;
                store.checkpoint(tally, &FaultLog::default()).unwrap();
            }
        }
        drop(store);

        // 10 events at checkpoint_every=4 → checkpoints at 4 and 8, each
        // in place behind the events it follows; none copies an event.
        let (_, records) = Wal::open(&dir, WalConfig::default()).unwrap();
        let kinds: Vec<u8> = records.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, b"MEEEECEEEECEE");
        for record in records.iter().filter(|r| r.kind == CHECKPOINT_KIND) {
            let text = std::str::from_utf8(&record.payload).unwrap();
            assert!(!text.contains("EVENT"), "{text}");
        }

        let rec = SessionStore::recover(&dir, cfg)
            .unwrap()
            .expect("store exists");
        assert_eq!(rec.events, trace);
        assert_eq!(rec.quarantined, 6, "the last checkpoint's tally");
        assert!(!rec.store.should_checkpoint(), "two events since the last");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A log as builds that folded it left it: the `M` and `E` records a
    /// compaction deleted are gone, its one `C` carries the whole prefix
    /// as `EVENT` lines, and an `F` tail follows.
    #[test]
    fn folded_log_of_an_earlier_build_recovers_the_exact_sequence() {
        let dir = scratch_dir("legacy");
        let trace = ops(7);
        let hello = Hello::new(2);
        let mut folded = format!("4 epoch=3 {}\nacked=5 quarantined=1", hello.encode());
        for (tid, op) in &trace[..5] {
            folded.push_str(&format!("\nEVENT {tid} {}", op.render()));
        }
        let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append(CHECKPOINT_KIND, folded.as_bytes()).unwrap();
        for (tid, op) in &trace[5..] {
            let body = crate::wire2::encode_event_record(*tid, op);
            wal.append(EVENT2_KIND, &body).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let cfg = StoreConfig {
            epoch: 3,
            ..StoreConfig::default()
        };
        let rec = SessionStore::recover(&dir, cfg)
            .unwrap()
            .expect("store exists");
        assert_eq!((rec.id, &rec.hello), (4, &hello));
        assert_eq!(rec.events, trace);
        assert_eq!(rec.quarantined, 1);
        assert_eq!(rec.store.acked(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_that_disagrees_with_the_replayed_events_fails_recovery() {
        let dir = scratch_dir("gap");
        let hello = Hello::new(2);
        let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append(META_KIND, format!("1 {}", hello.encode()).as_bytes())
            .unwrap();
        for (tid, op) in &ops(2) {
            let body = crate::wire2::encode_event_record(*tid, op);
            wal.append(EVENT2_KIND, &body).unwrap();
        }
        let checkpoint = format!("1 {}\nacked=3 quarantined=0", hello.encode());
        wal.append(CHECKPOINT_KIND, checkpoint.as_bytes()).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let err = SessionStore::recover(&dir, StoreConfig::default()).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("acked=3") && text.contains("2 events"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every checkpoint interval costs the same bytes and only appends:
    /// nothing is copied, rewritten or deleted under a live session.
    #[test]
    fn checkpoints_only_append_and_grow_the_log_linearly() {
        let dir = scratch_dir("linear");
        let every = 16usize;
        let cfg = StoreConfig {
            checkpoint_every: every as u64,
            fsync: FsyncPolicy::Never,
            ..StoreConfig::default()
        };
        // The log as one byte string: its segments in sequence order.
        let log_bytes = |dir: &Path| -> Vec<u8> {
            let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .collect();
            segments.sort();
            segments
                .iter()
                .flat_map(|path| std::fs::read(path).unwrap())
                .collect()
        };
        let mut store = SessionStore::create(&dir, 1, &Hello::new(2), cfg).unwrap();
        let mut logs = vec![log_bytes(&dir)];
        let mut segments = store.segment_count();
        for (tid, op) in &ops(3 * every) {
            store.append_event(*tid, op).unwrap();
            if store.should_checkpoint() {
                store.checkpoint(0, &FaultLog::default()).unwrap();
                logs.push(log_bytes(&dir));
            }
            assert!(store.segment_count() >= segments);
            segments = store.segment_count();
        }
        assert_eq!(logs.len(), 4);
        let growth: Vec<usize> = logs
            .windows(2)
            .map(|w| {
                assert!(w[1].starts_with(&w[0]), "a checkpoint rewrote the log");
                w[1].len() - w[0].len()
            })
            .collect();
        // One record of slack: `ops` names gain a digit as `i` grows.
        let record = growth[0] / (every + 1);
        for g in &growth[1..] {
            assert!(g.abs_diff(growth[0]) <= record, "{growth:?}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_round_trips_quarantine_ledger_bounds() {
        let dir = scratch_dir("quar");
        let ledger = FaultLog {
            quarantined: vec![
                QuarantinedInterval {
                    interval: Interval {
                        event: EventId {
                            tid: Tid(1),
                            index: 3,
                        },
                        gmin: Frontier::from_counts(vec![2, 3]),
                        gbnd: Frontier::from_counts(vec![5, 4]),
                        include_empty: false,
                    },
                    cuts_emitted: 11,
                    attempts: 2,
                    message: "worker panic:\nboom at depth 4".to_string(),
                },
                QuarantinedInterval {
                    interval: Interval {
                        event: EventId {
                            tid: Tid(0),
                            index: 1,
                        },
                        gmin: Frontier::from_counts(vec![1, 0]),
                        gbnd: Frontier::from_counts(vec![1, 2]),
                        include_empty: true,
                    },
                    cuts_emitted: 0,
                    attempts: 1,
                    message: String::new(),
                },
            ],
        };
        let trace = ops(5);
        let mut store =
            SessionStore::create(&dir, 9, &Hello::new(2), StoreConfig::default()).unwrap();
        for (tid, op) in &trace {
            store.append_event(*tid, op).unwrap();
        }
        store.checkpoint(2, &ledger).unwrap();
        drop(store);

        let rec = SessionStore::recover(&dir, StoreConfig::default())
            .unwrap()
            .expect("store exists");
        assert_eq!(rec.events, trace);
        assert_eq!(rec.quarantined, 2);
        assert_eq!(rec.quarantine.len(), 2);
        let q = &rec.quarantine[0];
        assert_eq!(q.interval, ledger.quarantined[0].interval);
        assert_eq!(q.cuts_emitted, 11);
        assert_eq!(q.attempts, 2);
        // Newlines are sanitized to spaces to keep the record line-oriented.
        assert_eq!(q.message, "worker panic: boom at depth 4");
        assert_eq!(rec.quarantine[1], ledger.quarantined[1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_event_records_recover_and_mix_with_text_ones() {
        let dir = scratch_dir("binary");
        let trace = ops(9);
        // First incarnation appends binary EVENT2 records.
        let cfg = StoreConfig {
            binary_events: true,
            ..StoreConfig::default()
        };
        let mut store = SessionStore::create(&dir, 5, &Hello::new(2), cfg).unwrap();
        for (tid, op) in &trace[..5] {
            store.append_event(*tid, op).unwrap();
        }
        store.sync().unwrap();
        drop(store);

        // Recovery replays them; the re-opened store appends text EVENT
        // lines, so the log now mixes kinds (a v1 resume of a v2 session).
        let rec = SessionStore::recover(&dir, StoreConfig::default())
            .unwrap()
            .expect("store exists");
        assert_eq!(rec.events, trace[..5]);
        let mut store = rec.store;
        for (tid, op) in &trace[5..] {
            store.append_event(*tid, op).unwrap();
        }
        store.sync().unwrap();
        drop(store);

        let rec = SessionStore::recover(&dir, StoreConfig::default())
            .unwrap()
            .expect("store exists");
        assert_eq!(rec.events, trace, "mixed-kind log replays in order");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_of_missing_or_deleted_store_is_none() {
        let dir = scratch_dir("absent");
        assert!(SessionStore::recover(&dir, StoreConfig::default())
            .unwrap()
            .is_none());

        let store = SessionStore::create(&dir, 3, &Hello::new(1), StoreConfig::default()).unwrap();
        store.delete().unwrap();
        assert!(!dir.exists(), "delete removes the session directory");
        assert!(SessionStore::recover(&dir, StoreConfig::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn scan_lists_persisted_sessions_ascending() {
        let root = scratch_dir("scan");
        assert_eq!(scan_sessions(&root).unwrap(), Vec::<u64>::new());
        for id in [12u64, 3, 7] {
            let dir = session_dir(&root, id);
            drop(SessionStore::create(&dir, id, &Hello::new(1), StoreConfig::default()).unwrap());
        }
        assert_eq!(scan_sessions(&root).unwrap(), vec![3, 7, 12]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fenced_daemon_is_refused_at_every_store_entry_point() {
        let dir = scratch_dir("fence");
        let guard = Arc::new(FenceGuard::new());
        guard.grant_at(0, 5, 1_000);
        let cfg = StoreConfig {
            epoch: 5,
            guard: Some(Arc::clone(&guard)),
            ..StoreConfig::default()
        };
        let mut store = SessionStore::create(&dir, 1, &Hello::new(2), cfg.clone()).unwrap();
        store.append_event(0, &WireOp::Write("x".into())).unwrap();
        store.sync().unwrap();

        guard.fence();
        assert!(store.append_event(1, &WireOp::Read("x".into())).is_err());
        assert!(store.checkpoint(0, &FaultLog::default()).is_err());
        drop(store);
        assert!(SessionStore::recover(&dir, cfg.clone()).is_err());
        let other = scratch_dir("fence-create");
        assert!(SessionStore::create(&other, 2, &Hello::new(2), cfg).is_err());

        // The fenced prefix is intact and resumable by an unfenced owner.
        let rec = SessionStore::recover(&dir, StoreConfig::default())
            .unwrap()
            .expect("store exists");
        assert_eq!(rec.events.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_epoch_writes_and_recovery_are_refused() {
        let dir = scratch_dir("stale");
        let guard = Arc::new(FenceGuard::new());
        guard.grant_at(0, 3, 1_000);
        let cfg = StoreConfig {
            epoch: 3,
            guard: Some(Arc::clone(&guard)),
            ..StoreConfig::default()
        };
        let mut store = SessionStore::create(&dir, 1, &Hello::new(2), cfg).unwrap();
        store.append_event(0, &WireOp::Write("x".into())).unwrap();

        // While fenced every write is refused; a re-join under a fresh
        // epoch restores the handle (ownership is monotone: the same
        // daemon under a *higher* lease still owns its log), and the
        // adopter re-stamps so the log names the lease that owns it now.
        guard.fence();
        let err = store
            .append_event(1, &WireOp::Read("x".into()))
            .unwrap_err();
        assert!(err.to_string().contains("fenced"), "{err}");
        guard.grant_at(1, 4, 1_000);
        store.restamp(4).unwrap();
        store.append_event(1, &WireOp::Read("x".into())).unwrap();
        store.sync().unwrap();
        assert_eq!(store.epoch(), 4);
        drop(store);

        // A survivor under a higher epoch re-stamps the log on recovery…
        let survivor = Arc::new(FenceGuard::new());
        survivor.grant_at(0, 6, 1_000);
        let rec = SessionStore::recover(
            &dir,
            StoreConfig {
                epoch: 6,
                guard: Some(survivor),
                ..StoreConfig::default()
            },
        )
        .unwrap()
        .expect("store exists");
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.store.epoch(), 6);
        drop(rec);

        // …after which the epoch-4 incarnation is refused outright.
        let stale = Arc::new(FenceGuard::new());
        stale.grant_at(0, 4, 1_000);
        let err = SessionStore::recover(
            &dir,
            StoreConfig {
                epoch: 4,
                guard: Some(stale),
                ..StoreConfig::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("stale epoch"), "{err}");

        // Epoch 0 (standalone, never leased) may still reclaim the log.
        let rec = SessionStore::recover(&dir, StoreConfig::default())
            .unwrap()
            .expect("store exists");
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.store.epoch(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_space_stores_are_adopted_regardless_of_stamp() {
        let dir = scratch_dir("adopt");
        // Shard 1's daemon (id space 1) creates the store at epoch 5.
        let home = Arc::new(FenceGuard::new());
        home.grant_at(0, 5, 1_000);
        let id = (1u64 << 32) + 7;
        let cfg = StoreConfig {
            epoch: 5,
            own_space: 1,
            guard: Some(home),
            ..StoreConfig::default()
        };
        let mut store = SessionStore::create(&dir, id, &Hello::new(2), cfg).unwrap();
        store.append_event(0, &WireOp::Write("x".into())).unwrap();
        store.sync().unwrap();
        drop(store);

        // Shard 0's daemon holds a *numerically lower* epoch — epochs
        // from different shards are incomparable, so the migrated-in
        // store is adopted and re-stamped, not refused.
        let survivor = Arc::new(FenceGuard::new());
        survivor.grant_at(0, 2, 1_000);
        let rec = SessionStore::recover(
            &dir,
            StoreConfig {
                epoch: 2,
                own_space: 0,
                guard: Some(survivor),
                ..StoreConfig::default()
            },
        )
        .unwrap()
        .expect("store exists");
        assert_eq!(rec.events.len(), 1);
        assert_eq!(rec.store.epoch(), 2);
        let mut store = rec.store;
        store.append_event(1, &WireOp::Read("x".into())).unwrap();
        store.sync().unwrap();
        drop(store);

        // The adopter's own space now orders recoveries: a stale shard-0
        // incarnation is refused, the current one is not.
        let stale = Arc::new(FenceGuard::new());
        stale.grant_at(0, 1, 1_000);
        let err = SessionStore::recover(
            &dir,
            StoreConfig {
                epoch: 1,
                own_space: 0,
                guard: Some(stale),
                ..StoreConfig::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("stale epoch"), "{err}");
        let rec = SessionStore::recover(
            &dir,
            StoreConfig {
                epoch: 2,
                own_space: 0,
                ..StoreConfig::default()
            },
        )
        .unwrap()
        .expect("store exists");
        assert_eq!(rec.events.len(), 2, "the adopted log replays in full");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_stamp_survives_checkpoint_compaction() {
        let dir = scratch_dir("epoch-ckpt");
        let guard = Arc::new(FenceGuard::new());
        guard.grant_at(0, 9, 1_000);
        let cfg = StoreConfig {
            epoch: 9,
            guard: Some(Arc::clone(&guard)),
            ..StoreConfig::default()
        };
        let trace = ops(6);
        let mut store = SessionStore::create(&dir, 2, &Hello::new(2), cfg).unwrap();
        for (tid, op) in &trace {
            store.append_event(*tid, op).unwrap();
        }
        // A checkpoint replaces identity on replay, so it must carry the
        // stamp forward.
        store.checkpoint(0, &FaultLog::default()).unwrap();
        assert_eq!(store.segment_count(), 1);
        drop(store);

        let err = SessionStore::recover(
            &dir,
            StoreConfig {
                epoch: 8,
                ..StoreConfig::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("stale epoch"), "{err}");
        let rec = SessionStore::recover(
            &dir,
            StoreConfig {
                epoch: 9,
                ..StoreConfig::default()
            },
        )
        .unwrap()
        .expect("store exists");
        assert_eq!(rec.events, trace);
        assert_eq!(rec.store.epoch(), 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_segments_gauge_tracks_live_stores() {
        let dir = scratch_dir("gauge");
        let metrics = Arc::new(IngestMetrics::new());
        let cfg = StoreConfig {
            metrics: Some(Arc::clone(&metrics)),
            ..StoreConfig::default()
        };
        let mut store = SessionStore::create(&dir, 1, &Hello::new(2), cfg).unwrap();
        assert_eq!(metrics.wal_segments.get(), 1);
        store.checkpoint(0, &FaultLog::default()).unwrap();
        assert_eq!(metrics.checkpoint_writes.sum(), 1);
        drop(store);
        assert_eq!(metrics.wal_segments.get(), 0, "drop releases the gauge");
        assert!(metrics.wal_segments.high_water() >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
