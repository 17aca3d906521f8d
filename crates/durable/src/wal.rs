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
//! # Crash model & torn-tail truncation
//!
//! [`Wal::open`] scans segments in sequence order and replays every
//! record until the first invalid one (bad magic, short read, or CRC
//! mismatch). The offending segment is truncated at the last valid
//! record boundary and **all later segments are deleted**: the log's
//! contents after open are exactly the committed prefix of what was
//! appended, in order. A kill -9 at any instruction loses at most the
//! records an [`FsyncPolicy`] had not yet forced down.
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

/// When to force appended records to stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append — maximum durability, one syscall per
    /// record.
    Always,
    /// fsync only at explicit [`Wal::sync`] points (the daemon calls it
    /// on FLUSH and checkpoint) and on segment rotation. The default:
    /// a crash loses at most the records since the last acknowledged
    /// flush, which is exactly what the resume protocol re-sends.
    #[default]
    OnDemand,
    /// Never fsync (the OS flushes on its own schedule). For
    /// throughput benchmarks and tests; a power loss may lose
    /// acknowledged records.
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

/// A segmented append-only log (see the module docs for the format and
/// crash model).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    /// Sealed (non-active) segment sequence numbers, oldest first.
    sealed: Vec<u64>,
    active_seq: u64,
    active: File,
    active_len: u64,
    /// Appends since the last fsync — lets `sync` skip the syscall when
    /// there is nothing to force down.
    dirty: bool,
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
                file.write_all(MAGIC)?;
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
                file.write_all(MAGIC)?;
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
                dirty: false,
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

    /// Appends one record, rotating the active segment first if it is
    /// over the configured size.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> io::Result<()> {
        if self.active_len > MAGIC.len() as u64
            && self.active_len >= self.config.segment_bytes as u64
        {
            self.rotate()?;
        }
        let mut buf = Vec::with_capacity(payload.len() + 16);
        encode_record(&mut buf, kind, payload);
        self.active.write_all(&buf)?;
        self.active_len += buf.len() as u64;
        self.dirty = true;
        if self.config.fsync == FsyncPolicy::Always {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces every appended record to stable storage (no-op under
    /// [`FsyncPolicy::Never`] or when nothing is dirty).
    pub fn sync(&mut self) -> io::Result<()> {
        if self.config.fsync == FsyncPolicy::Never || !self.dirty {
            self.dirty = false;
            return Ok(());
        }
        self.active.sync_data()?;
        self.dirty = false;
        Ok(())
    }

    /// Seals the active segment and starts a fresh one.
    fn rotate(&mut self) -> io::Result<()> {
        if self.config.fsync != FsyncPolicy::Never {
            self.active.sync_data()?;
        }
        let seq = self.active_seq + 1;
        let mut file = File::create(segment_path(&self.dir, seq))?;
        file.write_all(MAGIC)?;
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
    pub fn compact(&mut self, kind: u8, payload: &[u8]) -> io::Result<usize> {
        self.rotate()?;
        let mut buf = Vec::with_capacity(payload.len() + 16);
        encode_record(&mut buf, kind, payload);
        self.active.write_all(&buf)?;
        self.active_len += buf.len() as u64;
        self.active.sync_data()?;
        let superseded = std::mem::take(&mut self.sealed);
        let removed = superseded.len();
        for seq in superseded {
            fs::remove_file(segment_path(&self.dir, seq))?;
        }
        if self.config.fsync != FsyncPolicy::Never {
            sync_dir(&self.dir)?;
        }
        self.dirty = false;
        Ok(removed)
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
