//! A segmented append-only write-ahead log of checksummed records.
//!
//! # On-disk format
//!
//! A log lives in one directory as numbered segment files
//! `wal-<seq>.log` (`seq` is a zero-padded decimal, strictly
//! increasing; the highest segment is the active one). Each segment is
//! an 8-byte magic header followed by records:
//!
//! ```text
//! segment := "pmwal001" record*
//! record  := kind:u8 len:varint payload:len*u8 crc:u32le
//! ```
//!
//! `crc` is the CRC-32 of everything before it (kind, length varint,
//! payload), so a record is either bit-exact or detectably torn. Record
//! `kind` bytes are owned by the caller — the WAL stores and replays
//! them opaquely.
//!
//! # The unwritten tail
//!
//! [`Wal::append`] frames a record into an in-memory *tail* and makes no
//! syscall. The tail reaches the active segment in one `write` — at every
//! [`Wal::sync`] (under every [`FsyncPolicy`]; `Never` only skips the
//! fsync), before a segment rotation, in [`Wal::compact`], once it holds
//! [`TAIL_BYTES`], and, best-effort, when the `Wal` is dropped. The bytes
//! on disk are the same as if each record had been written on its own,
//! and the tail holds at most [`TAIL_BYTES`] plus one record. An owner
//! that may have lost the log to another writer by the time it drops
//! calls [`Wal::discard_tail`] first, so nothing lands late.
//!
//! **A failure poisons the log.** After any failed append, sync or
//! compact — a short or failed `write`, a failed fsync — the tail is
//! dropped and every later append and sync returns an error naming the
//! first one. A caller therefore never counts a record that is not in
//! the log, and never appends behind a torn one. Only a successful
//! [`Wal::compact`], which replaces the whole log, clears the poison.
//!
//! # Crash model & torn-tail truncation
//!
//! [`Wal::open`] scans segments in sequence order and replays every
//! record until the first invalid one (bad magic, short read, or CRC
//! mismatch). The offending segment is truncated at the last valid
//! record boundary and **all later segments are deleted**: the log's
//! contents after open are exactly the committed prefix of what was
//! appended, in order. A kill -9 at any instruction loses the unwritten
//! tail — at most the records since the last `sync` or rotation, or the
//! last [`TAIL_BYTES`] of them — and nothing a returned `sync` covered.
//! A power loss can also lose what the [`FsyncPolicy`] had not yet
//! forced down.
//!
//! # Compaction
//!
//! [`Wal::compact`] writes one record (a snapshot of the caller's whole
//! state) into a *fresh* segment, fsyncs it, and then deletes every
//! earlier segment. A crash between the fsync and the deletes leaves
//! stale segments *behind* a newer snapshot; replay order is preserved,
//! so a reader that honors "the last snapshot wins" recovers
//! identically. It has one caller, the fleet router's manifest, and is
//! legitimate there because that state is bounded — one line per shard
//! and per migrated session, however many updates were journaled — so
//! the snapshot is smaller than the log it replaces. A session's state
//! is its whole accepted event sequence, which no snapshot shortens;
//! session stores therefore never compact.

use crate::crc32::crc32;
use crate::varint;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes of segment-file magic: `pmwal001`.
const MAGIC: &[u8; 8] = b"pmwal001";

/// Bytes of framed records the tail holds before [`Wal::append`] writes
/// it without waiting for a [`Wal::sync`].
pub const TAIL_BYTES: usize = 64 << 10;

/// When to force written records to stable storage. Under every policy a
/// [`Wal::sync`] writes the tail first, so a kill -9 after it returns
/// loses nothing it covered; the policies differ in what a power loss
/// can take.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Write and fsync every record as it is appended — maximum
    /// durability, one `write` and one fsync per record, and no tail.
    Always,
    /// fsync only at explicit [`Wal::sync`] points (the daemon calls it
    /// on FLUSH and checkpoint) and on segment rotation. The default:
    /// a crash loses at most the records since the last acknowledged
    /// flush, which is exactly what the resume protocol re-sends.
    #[default]
    OnDemand,
    /// Never fsync (the OS flushes on its own schedule); [`Wal::sync`]
    /// still writes the tail. For throughput benchmarks and tests; a
    /// kill -9 loses what an `OnDemand` log would, but a power loss may
    /// lose acknowledged records.
    Never,
}

impl FsyncPolicy {
    /// Parses the CLI spelling (`always` / `ondemand` / `never`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "ondemand" => Some(FsyncPolicy::OnDemand),
            "never" => Some(FsyncPolicy::Never),
            _ => None,
        }
    }

    /// The CLI spelling of this policy.
    pub fn name(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::OnDemand => "ondemand",
            FsyncPolicy::Never => "never",
        }
    }
}

/// Tuning knobs for one log.
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Rotate the active segment once it exceeds this many bytes.
    pub segment_bytes: usize,
    /// When appends reach stable storage.
    pub fsync: FsyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            segment_bytes: 1 << 20,
            fsync: FsyncPolicy::OnDemand,
        }
    }
}

/// One replayed record: the caller's kind byte plus its payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    pub kind: u8,
    pub payload: Vec<u8>,
}

/// A segmented append-only log (see the module docs for the format,
/// the unwritten tail and the crash model).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    /// Sealed (non-active) segment sequence numbers, oldest first.
    sealed: Vec<u64>,
    active_seq: u64,
    active: File,
    /// Bytes of the active segment, the unwritten tail included.
    active_len: u64,
    /// Framed records appended since the last write, in append order.
    tail: Vec<u8>,
    /// Writes since the last fsync — lets `sync` skip the syscall when
    /// there is nothing to force down.
    dirty: bool,
    /// The first failure of an append, sync or compact; set, it refuses
    /// every later one (see "A failure poisons the log").
    poisoned: Option<(io::ErrorKind, String)>,
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:010}.log"))
}

/// Parses `wal-<seq>.log` back into `seq`.
fn parse_segment_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if rest.len() != 10 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Decodes records from one segment's bytes (past the magic). Returns
/// the records and the byte offset of the first invalid record (==
/// `bytes.len()` when the whole segment is valid).
fn decode_segment(bytes: &[u8]) -> (Vec<Record>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let start = pos;
        if pos >= bytes.len() {
            return (records, start);
        }
        let kind = bytes[pos];
        pos += 1;
        let Some(len) = varint::read_u64_at(bytes, &mut pos) else {
            return (records, start);
        };
        let Ok(len) = usize::try_from(len) else {
            return (records, start);
        };
        if bytes.len() - pos < len + 4 {
            return (records, start); // torn mid-payload or mid-crc
        }
        let payload = &bytes[pos..pos + len];
        pos += len;
        let stored = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        pos += 4;
        if crc32(&bytes[start..start + (pos - 4 - start)]) != stored {
            return (records, start);
        }
        records.push(Record {
            kind,
            payload: payload.to_vec(),
        });
    }
}

/// Encodes one record into `out` (framing + CRC).
fn encode_record(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let start = out.len();
    out.push(kind);
    varint::push_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// fsyncs the directory entry metadata (file creations/deletions).
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Every write of segment bytes goes through here, so a test can fail
/// the k-th one (see `fail_write`).
fn write_bytes(file: &mut File, bytes: &[u8]) -> io::Result<()> {
    #[cfg(test)]
    if let Some(written) = fail_write::hit(bytes.len()) {
        file.write_all(&bytes[..written])?;
        return Err(io::Error::other("injected write failure"));
    }
    file.write_all(bytes)
}

/// A test-only fault: fail the k-th physical write on this thread,
/// optionally after writing half of its bytes.
#[cfg(test)]
mod fail_write {
    use std::cell::Cell;

    thread_local! {
        /// Physical writes made on this thread.
        static WRITES: Cell<u64> = const { Cell::new(0) };
        /// `(k, half)`: fail write number `k`, after writing half of
        /// its bytes when `half` is set.
        static PLAN: Cell<Option<(u64, bool)>> = const { Cell::new(None) };
    }

    /// Physical writes this thread has made so far.
    pub(super) fn writes() -> u64 {
        WRITES.with(Cell::get)
    }

    /// Fails write number `k` (as counted by [`writes`]) after writing
    /// none or half of its bytes.
    pub(super) fn arm(k: u64, half: bool) {
        PLAN.with(|plan| plan.set(Some((k, half))));
    }

    pub(super) fn disarm() {
        PLAN.with(|plan| plan.set(None));
    }

    /// Counts one write of `len` bytes; `Some(n)` fails it after `n`.
    pub(super) fn hit(len: usize) -> Option<usize> {
        let n = WRITES.with(|w| {
            w.set(w.get() + 1);
            w.get()
        });
        match PLAN.with(Cell::get) {
            Some((k, half)) if k == n => Some(if half { len / 2 } else { 0 }),
            _ => None,
        }
    }
}

impl Wal {
    /// Opens (creating if necessary) the log in `dir`, repairs any torn
    /// tail, and returns the log positioned for appends plus every
    /// committed record in append order.
    pub fn open(dir: &Path, config: WalConfig) -> io::Result<(Wal, Vec<Record>)> {
        fs::create_dir_all(dir)?;
        let mut seqs: Vec<u64> = fs::read_dir(dir)?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                parse_segment_name(entry.file_name().to_str()?)
            })
            .collect();
        seqs.sort_unstable();

        let mut records = Vec::new();
        let mut kept: Vec<u64> = Vec::new();
        let mut torn = false;
        // Replay is disk-read then CPU-decode per segment, strictly in
        // order. A one-segment read-ahead overlaps the two: while
        // segment `i` decodes (varint walk + CRC over every record), a
        // helper thread already reads segment `i+1`'s bytes, so long
        // resumed prefixes replay at roughly max(read, decode) per
        // segment instead of read + decode.
        let mut pending: Option<(u64, std::thread::JoinHandle<io::Result<Vec<u8>>>)> = None;
        for (i, &seq) in seqs.iter().enumerate() {
            let path = segment_path(dir, seq);
            if torn {
                // Everything past a torn point is uncommitted by
                // definition — delete it, after parking any in-flight
                // read-ahead of it.
                if let Some((_, handle)) = pending.take() {
                    let _ = handle.join();
                }
                fs::remove_file(&path)?;
                continue;
            }
            let prefetched = match pending.take() {
                Some((ready_seq, handle)) if ready_seq == seq => handle.join().ok(),
                Some((_, handle)) => {
                    let _ = handle.join();
                    None
                }
                None => None,
            };
            if i + 1 < seqs.len() {
                let next_seq = seqs[i + 1];
                let next_path = segment_path(dir, next_seq);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("wal-readahead".to_string())
                    .spawn(move || {
                        let mut bytes = Vec::new();
                        File::open(&next_path)?.read_to_end(&mut bytes)?;
                        Ok(bytes)
                    })
                {
                    pending = Some((next_seq, handle));
                }
            }
            let bytes = match prefetched {
                Some(Ok(bytes)) => bytes,
                // Read-ahead missed (panicked helper, transient read
                // error): fall back to the plain direct read, which
                // also surfaces any real io error the normal way.
                _ => {
                    let mut bytes = Vec::new();
                    File::open(&path)?.read_to_end(&mut bytes)?;
                    bytes
                }
            };
            if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
                // A segment created but not yet (fully) headed: rewrite
                // it empty and treat it as the torn point.
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(0)?;
                drop(file);
                let mut file = OpenOptions::new().write(true).open(&path)?;
                write_bytes(&mut file, MAGIC)?;
                file.sync_all()?;
                torn = true;
                kept.push(seq);
                continue;
            }
            let (segment_records, valid_end) = decode_segment(&bytes[MAGIC.len()..]);
            records.extend(segment_records);
            let valid_len = (MAGIC.len() + valid_end) as u64;
            if valid_len < bytes.len() as u64 {
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(valid_len)?;
                torn = true;
            } else if i + 1 < seqs.len() {
                // Fully valid non-final segment stays sealed.
            }
            kept.push(seq);
        }

        let active_seq = match kept.last() {
            Some(&seq) => seq,
            None => {
                let seq = 1;
                let mut file = File::create(segment_path(dir, seq))?;
                write_bytes(&mut file, MAGIC)?;
                if config.fsync != FsyncPolicy::Never {
                    file.sync_all()?;
                    sync_dir(dir)?;
                }
                kept.push(seq);
                seq
            }
        };
        let sealed = kept[..kept.len() - 1].to_vec();
        let mut active = OpenOptions::new()
            .read(true)
            .write(true)
            .open(segment_path(dir, active_seq))?;
        let active_len = active.seek(SeekFrom::End(0))?;
        Ok((
            Wal {
                dir: dir.to_path_buf(),
                config,
                sealed,
                active_seq,
                active,
                active_len,
                tail: Vec::new(),
                dirty: false,
                poisoned: None,
            },
            records,
        ))
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of live segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Appends one record to the tail, rotating the active segment first
    /// if it is over the configured size. Makes no syscall unless the
    /// rotation does, the tail reaches [`TAIL_BYTES`], or the policy is
    /// [`FsyncPolicy::Always`].
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> io::Result<()> {
        self.unless_poisoned(|wal| {
            if wal.active_len > MAGIC.len() as u64
                && wal.active_len >= wal.config.segment_bytes as u64
            {
                wal.rotate()?;
            }
            wal.push_record(kind, payload);
            if wal.config.fsync == FsyncPolicy::Always {
                wal.write_and_sync()
            } else if wal.tail.len() >= TAIL_BYTES {
                wal.write_tail()
            } else {
                Ok(())
            }
        })
    }

    /// Writes the tail, then forces every written record to stable
    /// storage (the fsync is skipped under [`FsyncPolicy::Never`] or when
    /// nothing was written since the last one).
    pub fn sync(&mut self) -> io::Result<()> {
        self.unless_poisoned(Wal::write_and_sync)
    }

    /// Bytes appended but not yet written (the tail).
    pub fn unwritten_bytes(&self) -> usize {
        self.tail.len()
    }

    /// Drops the unwritten tail without writing it: the records appended
    /// since the last write will not be in the log. For an owner that
    /// may have lost the right to write, such as a session store whose
    /// log a `RESUME` elsewhere or a fence has handed to another writer.
    pub fn discard_tail(&mut self) {
        self.active_len -= self.tail.len() as u64;
        self.tail.clear();
    }

    /// Runs `op` unless the log is poisoned, and poisons it if `op`
    /// fails.
    fn unless_poisoned(&mut self, op: impl FnOnce(&mut Wal) -> io::Result<()>) -> io::Result<()> {
        if let Some((kind, first)) = &self.poisoned {
            return Err(io::Error::new(
                *kind,
                format!("log refuses writes after an earlier failure: {first}"),
            ));
        }
        self.poison_on_failure(op)
    }

    /// Runs `op`, poisoning the log if it fails.
    fn poison_on_failure(&mut self, op: impl FnOnce(&mut Wal) -> io::Result<()>) -> io::Result<()> {
        let result = op(self);
        if let Err(err) = &result {
            self.poisoned = Some((err.kind(), err.to_string()));
            self.discard_tail();
        }
        result
    }

    /// Frames one record onto the tail.
    fn push_record(&mut self, kind: u8, payload: &[u8]) {
        let before = self.tail.len();
        encode_record(&mut self.tail, kind, payload);
        self.active_len += (self.tail.len() - before) as u64;
    }

    /// Writes the tail to the active segment in one `write`.
    fn write_tail(&mut self) -> io::Result<()> {
        if self.tail.is_empty() {
            return Ok(());
        }
        write_bytes(&mut self.active, &self.tail)?;
        self.tail.clear();
        self.dirty = true;
        Ok(())
    }

    fn write_and_sync(&mut self) -> io::Result<()> {
        self.write_tail()?;
        if self.config.fsync != FsyncPolicy::Never && self.dirty {
            self.active.sync_data()?;
        }
        self.dirty = false;
        Ok(())
    }

    /// Writes the tail, seals the active segment and starts a fresh one.
    fn rotate(&mut self) -> io::Result<()> {
        self.write_tail()?;
        if self.config.fsync != FsyncPolicy::Never {
            self.active.sync_data()?;
        }
        let seq = self.active_seq + 1;
        let mut file = File::create(segment_path(&self.dir, seq))?;
        write_bytes(&mut file, MAGIC)?;
        if self.config.fsync != FsyncPolicy::Never {
            file.sync_all()?;
            sync_dir(&self.dir)?;
        }
        self.sealed.push(self.active_seq);
        self.active_seq = seq;
        self.active = file;
        self.active_len = MAGIC.len() as u64;
        self.dirty = false;
        Ok(())
    }

    /// Compaction: writes `payload` (a snapshot record) as the sole
    /// record of a fresh segment, fsyncs it, then deletes every earlier
    /// segment. On return the log holds exactly one segment whose first
    /// record is the snapshot; a crash mid-way leaves extra older
    /// segments that replay *before* the snapshot, which a
    /// last-snapshot-wins reader ignores.
    ///
    /// Compaction also runs on a poisoned log, and its success clears
    /// the poison: the snapshot stands for the caller's whole state, and
    /// the segments that may hold a torn record are the ones it deletes.
    pub fn compact(&mut self, kind: u8, payload: &[u8]) -> io::Result<usize> {
        let mut removed = 0;
        self.poison_on_failure(|wal| {
            wal.rotate()?;
            wal.push_record(kind, payload);
            wal.write_tail()?;
            wal.active.sync_data()?;
            let superseded = std::mem::take(&mut wal.sealed);
            removed = superseded.len();
            for seq in superseded {
                fs::remove_file(segment_path(&wal.dir, seq))?;
            }
            if wal.config.fsync != FsyncPolicy::Never {
                sync_dir(&wal.dir)?;
            }
            wal.dirty = false;
            Ok(())
        })?;
        self.poisoned = None;
        Ok(removed)
    }
}

impl Drop for Wal {
    /// Writes the tail, best-effort and without an fsync, so a clean exit
    /// keeps what a kill -9 would lose. A poisoned log has no tail.
    fn drop(&mut self) {
        let _ = self.write_tail();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("paramount-wal-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn appends_replay_in_order_across_reopen() {
        let dir = scratch_dir("replay");
        let cfg = WalConfig {
            segment_bytes: 64, // force rotations
            ..WalConfig::default()
        };
        let (mut wal, records) = Wal::open(&dir, cfg).unwrap();
        assert!(records.is_empty());
        for i in 0u8..20 {
            wal.append(7, &[i; 9]).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() > 1, "tiny segments must rotate");
        drop(wal);
        let (_wal, records) = Wal::open(&dir, cfg).unwrap();
        assert_eq!(records.len(), 20);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.kind, 7);
            assert_eq!(rec.payload, vec![i as u8; 9]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_committed_prefix() {
        let dir = scratch_dir("torn");
        let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append(1, b"first").unwrap();
        wal.append(1, b"second").unwrap();
        wal.sync().unwrap();
        let path = segment_path(&dir, 1);
        let committed = fs::metadata(&path).unwrap().len();
        drop(wal);
        // Simulate a torn append: half a record at the tail.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[1, 200]).unwrap(); // kind + length, no payload
        drop(file);
        let (_wal, records) = Wal::open(&dir, WalConfig::default()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].payload, b"second");
        assert_eq!(fs::metadata(&path).unwrap().len(), committed);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_drops_it_and_everything_after() {
        let dir = scratch_dir("corrupt");
        let cfg = WalConfig {
            segment_bytes: 32,
            ..WalConfig::default()
        };
        let (mut wal, _) = Wal::open(&dir, cfg).unwrap();
        for i in 0u8..12 {
            wal.append(2, &[i; 16]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        // Flip one payload bit in the second segment.
        let path = segment_path(&dir, 2);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (_wal, records) = Wal::open(&dir, cfg).unwrap();
        assert!(records.len() < 12, "corruption must shorten the replay");
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.payload, vec![i as u8; 16], "prefix stays exact");
        }
        // Re-opening again is stable: same committed prefix.
        let (_wal, again) = Wal::open(&dir, cfg).unwrap();
        assert_eq!(again, records);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_supersedes_and_deletes_older_segments() {
        let dir = scratch_dir("compact");
        let cfg = WalConfig {
            segment_bytes: 48,
            ..WalConfig::default()
        };
        let (mut wal, _) = Wal::open(&dir, cfg).unwrap();
        for i in 0u8..10 {
            wal.append(2, &[i; 12]).unwrap();
        }
        let before = wal.segment_count();
        assert!(before > 1);
        wal.compact(3, b"checkpoint").unwrap();
        assert_eq!(wal.segment_count(), 1);
        wal.append(2, b"after").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_wal, records) = Wal::open(&dir, cfg).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(
            records[0],
            Record {
                kind: 3,
                payload: b"checkpoint".to_vec()
            }
        );
        assert_eq!(
            records[1],
            Record {
                kind: 2,
                payload: b"after".to_vec()
            }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_ahead_replays_many_segments_and_respects_torn_tails() {
        let dir = scratch_dir("readahead");
        let cfg = WalConfig {
            segment_bytes: 128, // dozens of segments => the prefetch path runs hot
            ..WalConfig::default()
        };
        let (mut wal, _) = Wal::open(&dir, cfg).unwrap();
        for i in 0u16..200 {
            wal.append(5, &i.to_le_bytes()).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() > 10);
        drop(wal);
        // Corrupt a mid-log segment: everything after it must be
        // discarded even though its read-ahead is already in flight.
        let mut seqs: Vec<u64> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| parse_segment_name(e.unwrap().file_name().to_str()?))
            .collect();
        seqs.sort_unstable();
        let victim = seqs[seqs.len() / 2];
        let path = segment_path(&dir, victim);
        let valid = fs::read(&path).unwrap();
        fs::write(&path, &valid[..valid.len() - 1]).unwrap(); // tear the last CRC byte
        let (_wal, records) = Wal::open(&dir, cfg).unwrap();
        assert!(!records.is_empty() && records.len() < 200);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.payload, (i as u16).to_le_bytes());
        }
        let (_wal, reopened) = Wal::open(&dir, cfg).unwrap();
        assert_eq!(reopened.len(), records.len(), "repair is idempotent");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Fails every physical write of a scripted session in turn — appends,
    /// syncs, one rotation and the final drop — before any of its bytes
    /// land and again after half of them. The failing call errs, every
    /// later append and sync errs, and the reopened log is an exact
    /// prefix that holds at least everything a returned `sync` covered.
    #[test]
    fn every_failed_write_poisons_the_log_and_leaves_an_exact_prefix() {
        enum Step {
            Append,
            Sync,
        }
        use Step::{Append as A, Sync as S};
        // 22-byte records in 100-byte segments: the sixth append rotates.
        let script = [A, A, S, A, A, A, A, S, A, A, A, A];
        let payload = |i: usize| vec![i as u8; 16];
        for fsync in [FsyncPolicy::OnDemand, FsyncPolicy::Always] {
            let cfg = WalConfig {
                segment_bytes: 100,
                fsync,
            };
            // Run the script with write `fail_at` failing (0: none);
            // returns (writes made, appends attempted, appends a returned
            // sync covered, the reopened log).
            let run = |fail_at: u64, half: bool| {
                let dir = scratch_dir("fail-write");
                let (mut wal, _) = Wal::open(&dir, cfg).unwrap();
                let base = fail_write::writes();
                if fail_at > 0 {
                    fail_write::arm(base + fail_at, half);
                }
                let (mut appended, mut covered, mut failed) = (0, 0, false);
                for step in &script {
                    let result = match step {
                        Step::Append => {
                            appended += 1;
                            wal.append(1, &payload(appended))
                        }
                        Step::Sync => wal.sync(),
                    };
                    match result {
                        _ if failed => {
                            assert!(result.is_err(), "write {fail_at}: call after the failure")
                        }
                        Err(_) => failed = true,
                        Ok(()) if matches!(step, Step::Sync) || fsync == FsyncPolicy::Always => {
                            covered = appended
                        }
                        Ok(()) => {}
                    }
                }
                let before_drop = fail_write::writes() - base;
                drop(wal);
                let writes = fail_write::writes() - base;
                fail_write::disarm();
                assert_eq!(
                    failed,
                    fail_at > 0 && fail_at <= before_drop,
                    "write {fail_at}: the failing call must report it"
                );
                let (_wal, records) = Wal::open(&dir, cfg).unwrap();
                fs::remove_dir_all(&dir).unwrap();
                (writes, appended, covered, records)
            };
            let (writes, appended, covered, records) = run(0, false);
            let all_covered = if fsync == FsyncPolicy::Always { 10 } else { 6 };
            assert_eq!((appended, covered, records.len()), (10, all_covered, 10));
            assert!(writes >= 5, "{fsync:?}: the script must rotate and drop");
            for fail_at in 1..=writes {
                for half in [false, true] {
                    let (_, appended, covered, records) = run(fail_at, half);
                    assert!(
                        (covered..=appended).contains(&records.len()),
                        "{fsync:?} write {fail_at} half={half}: {} records, covered {covered}, appended {appended}",
                        records.len()
                    );
                    for (i, record) in records.iter().enumerate() {
                        assert_eq!(record.payload, payload(i + 1), "not an exact prefix");
                    }
                }
            }
        }
    }

    /// A torn write poisons appends and syncs but not compaction, whose
    /// snapshot replaces the torn segment and clears the poison: the log
    /// takes appends again and replays as snapshot plus what followed.
    #[test]
    fn compaction_heals_a_poisoned_log() {
        let dir = scratch_dir("heal");
        let (mut wal, _) = Wal::open(&dir, WalConfig::default()).unwrap();
        wal.append(1, b"kept").unwrap();
        wal.sync().unwrap();
        wal.append(1, b"torn").unwrap();
        fail_write::arm(fail_write::writes() + 1, true);
        assert!(wal.sync().is_err());
        fail_write::disarm();
        assert!(wal.append(1, b"refused").is_err());
        assert!(wal.sync().is_err());

        assert_eq!(wal.compact(2, b"snapshot").unwrap(), 1);
        wal.append(1, b"after").unwrap();
        wal.sync().unwrap();
        drop(wal);

        let (_wal, records) = Wal::open(&dir, WalConfig::default()).unwrap();
        let got: Vec<(u8, &[u8])> = records
            .iter()
            .map(|r| (r.kind, r.payload.as_slice()))
            .collect();
        assert_eq!(got, [(2, &b"snapshot"[..]), (1, &b"after"[..])]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Replay throughput over a long multi-segment prefix, for
    /// EXPERIMENTS.md. Run with
    /// `cargo test -p paramount-durable --release -- --ignored readahead_replay`.
    #[test]
    #[ignore]
    fn readahead_replay_throughput() {
        let dir = scratch_dir("readahead-bench");
        let cfg = WalConfig {
            segment_bytes: 1 << 18, // 256 KiB segments
            fsync: FsyncPolicy::Never,
        };
        let payload = [0xabu8; 512];
        let (mut wal, _) = Wal::open(&dir, cfg).unwrap();
        for _ in 0..200_000 {
            wal.append(9, &payload).unwrap();
        }
        wal.sync().unwrap();
        let segments = wal.segment_count();
        drop(wal);
        let started = std::time::Instant::now();
        let (_wal, records) = Wal::open(&dir, cfg).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(records.len(), 200_000);
        println!(
            "replayed {} records across {segments} segments in {elapsed:?} ({:.1} MB/s)",
            records.len(),
            (records.len() * (payload.len() + 8)) as f64 / elapsed.as_secs_f64() / 1e6
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
