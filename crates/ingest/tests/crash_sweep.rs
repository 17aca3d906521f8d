//! Exhaustive crash sweep of the durable session store: one scripted
//! session, then a simulated `kill -9` at *every byte length* of its log.
//!
//! The script is deterministic (no random input), and the expectations
//! are derived from the log's own records rather than from how the store
//! lays them out, so the sweep holds for any checkpoint scheme that keeps
//! the record grammar: an `E`/`F` record is one more accepted event, a
//! `C` record states the accepted count in its `acked=` header and is the
//! only home of the quarantine tally and ledger.

use paramount::{
    EventId, FaultLog, Frontier, GovernorConfig, Interval, MemoryBudget, QuarantinedInterval, Tid,
};
use paramount_durable::{varint, FsyncPolicy, Record, Wal, WalConfig};
use paramount_ingest::{
    parse_client_line, ClientFrame, EndReason, FenceGuard, Hello, Session, SessionConfig,
    SessionStore, StoreConfig, WireOp, CHECKPOINT_KIND, EVENT2_KIND, EVENT_KIND, META_KIND,
};
use paramount_poset::oracle;
use paramount_trace::textfmt::{parse_trace, render_op, TraceFile};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SEGMENT_MAGIC_BYTES: usize = 8;
const CHECKPOINT_EVERY: u64 = 4;

/// Named variables and locks, fork/join, and every join lands after a
/// lock round-trip closed the child's open segment (so the offline
/// recorder and the session agree on each prefix's poset).
const SCRIPT: &str = "\
threads 3
0 write config
0 fork 1
0 fork 2
1 acquire ledger_lock
1 write balance
1 release ledger_lock
2 read config
2 acquire ledger_lock
2 read balance
2 release ledger_lock
1 write audit
1 acquire audit_lock
1 release audit_lock
0 join 1
2 write done
2 acquire audit_lock
2 release audit_lock
0 join 2
0 read balance
";

/// The accepted events after which the store is re-stamped (epoch 5 → 6)
/// and after which it is closed and re-opened writing `F` records.
const RESTAMP_AFTER: usize = 6;
const BINARY_AFTER: usize = 17;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paramount-sweep-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_config(epoch: u64, binary_events: bool, guard: Option<Arc<FenceGuard>>) -> StoreConfig {
    StoreConfig {
        checkpoint_every: CHECKPOINT_EVERY,
        fsync: FsyncPolicy::Never,
        binary_events,
        epoch,
        guard,
        ..StoreConfig::default()
    }
}

/// The `k`-th ledger entry a checkpoint of the script carries.
fn quarantine_entry(k: u32) -> QuarantinedInterval {
    QuarantinedInterval {
        interval: Interval {
            event: EventId {
                tid: Tid(k % 3),
                index: k + 1,
            },
            gmin: Frontier::from_counts(vec![k, 0, 1]),
            gbnd: Frontier::from_counts(vec![k + 2, 1, 1]),
            include_empty: k == 0,
        },
        cuts_emitted: u64::from(k) * 7,
        attempts: k + 1,
        message: format!("worker panic at depth {k}"),
    }
}

/// What the `j`-th checkpoint (0-based) is handed: the first is empty,
/// every later one carries `j` ledger entries and a tally of `2j`.
fn checkpoint_inputs(j: u32) -> (u64, FaultLog) {
    let ledger = FaultLog {
        quarantined: (0..j).map(quarantine_entry).collect(),
    };
    (u64::from(j) * 2, ledger)
}

fn wire_ops(trace: &TraceFile) -> Vec<(usize, WireOp)> {
    trace
        .ops
        .iter()
        .map(|&(tid, op)| {
            let body = render_op(op, &trace.var_names, &trace.lock_names);
            match parse_client_line(&format!("EVENT {} {body}", tid.index())) {
                Ok(ClientFrame::Event { tid, op }) => (tid, op),
                other => panic!("unparseable wire op `{body}`: {other:?}"),
            }
        })
        .collect()
}

/// Runs the script against a store in `dir` and returns, per checkpoint
/// written, `(accepted events at that point, tally, ledger)`.
fn run_script(dir: &Path, hello: &Hello, ops: &[(usize, WireOp)]) -> Vec<(u64, u64, FaultLog)> {
    let guard = Arc::new(FenceGuard::new());
    guard.grant_at(0, 5, 60_000);
    let mut store = SessionStore::create(
        dir,
        1,
        hello,
        store_config(5, false, Some(Arc::clone(&guard))),
    )
    .expect("create store");
    let mut checkpoints = Vec::new();
    for (i, (tid, op)) in ops.iter().enumerate() {
        store.append_event(*tid, op).expect("append");
        if store.should_checkpoint() {
            let (tally, ledger) = checkpoint_inputs(checkpoints.len() as u32);
            store.checkpoint(tally, &ledger).expect("checkpoint");
            checkpoints.push((store.acked(), tally, ledger));
        }
        let accepted = i + 1;
        if accepted == RESTAMP_AFTER {
            guard.grant_at(1, 6, 60_000);
            store.restamp(6).expect("restamp");
        }
        if accepted == BINARY_AFTER {
            store.sync().expect("sync");
            drop(store);
            store = SessionStore::recover(dir, store_config(6, true, Some(Arc::clone(&guard))))
                .expect("reopen io")
                .expect("store exists")
                .store;
        }
    }
    store.sync().expect("sync");
    assert_eq!(store.acked(), ops.len() as u64);
    checkpoints
}

fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "log"))
        .collect();
    files.sort();
    files
}

/// Bytes one record occupies on disk: kind, length varint, payload, CRC.
fn record_bytes(record: &Record) -> usize {
    let mut len = Vec::new();
    varint::push_u64(&mut len, record.payload.len() as u64);
    1 + len.len() + record.payload.len() + 4
}

/// The `acked=<n>` of a `C` record's header line.
fn checkpoint_acked(record: &Record) -> u64 {
    let text = std::str::from_utf8(&record.payload).expect("checkpoint is text");
    let header = text.lines().nth(1).expect("checkpoint header line");
    header
        .split_whitespace()
        .find_map(|token| token.strip_prefix("acked="))
        .and_then(|n| n.parse().ok())
        .expect("acked= token")
}

/// What a recovery must see once the log is whole up to some record
/// boundary.
#[derive(Clone, Default)]
struct Expect {
    /// Log offset of the boundary.
    offset: usize,
    /// A `META` (or a checkpoint, which embeds one) is committed.
    identified: bool,
    /// Accepted events committed.
    events: usize,
    /// Tally and ledger of the last complete checkpoint.
    tally: u64,
    ledger: FaultLog,
}

/// The oracle count for the first `n` ops of the script. The engine
/// hands the empty cut to the first event's interval, so a session that
/// saw no event enumerates nothing.
fn oracle_cuts(trace: &TraceFile, capture_sync: bool, n: usize) -> u64 {
    let prefix = TraceFile {
        ops: trace.ops[..n].to_vec(),
        ..trace.clone()
    };
    let poset = prefix.to_poset(capture_sync);
    if poset.num_events() == 0 {
        return 0;
    }
    oracle::enumerate_reachability(&poset).len() as u64
}

#[test]
fn every_truncation_recovers_the_committed_prefix_and_resumes_to_the_oracle() {
    let trace = parse_trace(SCRIPT).expect("script parses");
    let ops = wire_ops(&trace);
    let hello = Hello {
        capture_sync: true,
        label: Some("sweep".to_string()),
        ..Hello::new(trace.threads)
    };
    let dir = scratch_dir("full");
    let checkpoints = run_script(&dir, &hello, &ops);
    assert!(
        checkpoints.len() >= 4,
        "the script crosses four checkpoints"
    );

    // The surviving log, as bytes per segment and as records.
    let segments: Vec<(PathBuf, Vec<u8>)> = segment_files(&dir)
        .into_iter()
        .map(|path| {
            let bytes = std::fs::read(&path).expect("read segment");
            (path, bytes)
        })
        .collect();
    let wal_config = WalConfig {
        fsync: FsyncPolicy::Never,
        ..WalConfig::default()
    };
    let (wal, records) = Wal::open(&dir, wal_config).expect("open full log");
    drop(wal);
    let kinds: Vec<u8> = records.iter().map(|r| r.kind).collect();
    assert!(kinds.contains(&EVENT_KIND) && kinds.contains(&EVENT2_KIND));
    assert!(kinds.contains(&CHECKPOINT_KIND));

    // Expected state at every record boundary, in log order. Offsets
    // count the whole log: segment magics included, records in between.
    let mut boundaries = vec![Expect {
        offset: SEGMENT_MAGIC_BYTES,
        ..Expect::default()
    }];
    let mut records_iter = records.iter();
    let mut base = 0usize;
    for (_, bytes) in &segments {
        let mut offset = base + SEGMENT_MAGIC_BYTES;
        while offset < base + bytes.len() {
            let record = records_iter.next().expect("a record per boundary");
            let mut next = boundaries.last().expect("seeded").clone();
            offset += record_bytes(record);
            next.offset = offset;
            match record.kind {
                META_KIND => next.identified = true,
                EVENT_KIND | EVENT2_KIND => next.events += 1,
                CHECKPOINT_KIND => {
                    let acked = checkpoint_acked(record);
                    let (_, tally, ledger) = checkpoints
                        .iter()
                        .find(|(at, ..)| *at == acked)
                        .expect("a checkpoint the script wrote");
                    next.identified = true;
                    next.events = acked as usize;
                    next.tally = *tally;
                    next.ledger = ledger.clone();
                }
                other => panic!("unexpected record kind {other}"),
            }
            boundaries.push(next);
        }
        assert_eq!(offset, base + bytes.len(), "records tile the segment");
        base += bytes.len();
    }
    assert!(records_iter.next().is_none());
    let last = boundaries.last().expect("seeded");
    assert_eq!(last.events, ops.len(), "the whole script is committed");
    assert!(!last.ledger.quarantined.is_empty());

    let session_config = SessionConfig::default();
    let crash_dir = scratch_dir("crash");
    let mut previous_events = 0usize;
    let mut base = 0usize;
    for (index, (_, bytes)) in segments.iter().enumerate() {
        for len in SEGMENT_MAGIC_BYTES..=bytes.len() {
            // The crashed directory: earlier segments whole, this one cut
            // at `len`, later ones never created.
            let _ = std::fs::remove_dir_all(&crash_dir);
            std::fs::create_dir_all(&crash_dir).expect("crash dir");
            for (path, whole) in &segments[..index] {
                let name = path.file_name().expect("segment name");
                std::fs::write(crash_dir.join(name), whole).expect("copy segment");
            }
            let name = segments[index].0.file_name().expect("segment name");
            std::fs::write(crash_dir.join(name), &bytes[..len]).expect("cut segment");

            let offset = base + len;
            let at = boundaries
                .iter()
                .rposition(|b| b.offset <= offset)
                .expect("the first boundary is the first offset");
            let want = &boundaries[at];
            let on_boundary = want.offset == offset;

            let rec = SessionStore::recover(&crash_dir, store_config(6, true, None))
                .unwrap_or_else(|err| panic!("offset {offset}: recover failed: {err}"));
            let Some(rec) = rec else {
                assert!(
                    !want.identified,
                    "offset {offset}: a committed session vanished"
                );
                continue;
            };
            assert!(want.identified, "offset {offset}: a session from no META");
            assert_eq!(rec.id, 1, "offset {offset}");
            assert_eq!(rec.hello, hello, "offset {offset}");
            assert_eq!(rec.store.epoch(), 6, "offset {offset}");
            // (i) a prefix of the accepted sequence, never shrinking,
            // exact at record boundaries (and unchanged in between).
            assert_eq!(rec.events, ops[..want.events], "offset {offset}");
            assert_eq!(rec.store.acked(), want.events as u64, "offset {offset}");
            assert!(rec.events.len() >= previous_events, "offset {offset}");
            previous_events = rec.events.len();
            // (ii) tally and ledger of the last complete checkpoint.
            assert_eq!(rec.quarantined, want.tally, "offset {offset}");
            assert_eq!(rec.quarantine, want.ledger.quarantined, "offset {offset}");
            // (iii) the recovered session finishes on the oracle.
            if on_boundary {
                let budget = Arc::new(MemoryBudget::new(GovernorConfig::default()));
                let session = Session::recover(rec, &session_config, budget)
                    .unwrap_or_else(|err| panic!("offset {offset}: replay failed: {err:?}"));
                assert_eq!(session.acked(), Some(want.events as u64));
                let report = session.finalize(EndReason::End);
                assert!(report.complete, "offset {offset}");
                assert_eq!(
                    report.cuts,
                    oracle_cuts(&trace, hello.capture_sync, want.events),
                    "offset {offset}: {} events",
                    want.events
                );
                assert_eq!(
                    report.faults.quarantined, want.ledger.quarantined,
                    "offset {offset}: the ledger rides into the report"
                );
            }
        }
        base += bytes.len();
    }
    assert_eq!(previous_events, ops.len());
    let _ = std::fs::remove_dir_all(&crash_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
