//! End-to-end durability acceptance: sessions on a `--data-dir` daemon
//! survive disconnects and full daemon restarts, resume via `RESUME`,
//! and finish with reports identical to an unbroken control session
//! (Theorem 3 exactness is a function of the accepted event sequence
//! alone, so "identical report" is the whole durability contract).

use paramount_durable::{FsyncPolicy, Wal, WalConfig};
use paramount_ingest::{
    session_dir, Client, ClientError, EndReason, ErrCode, Hello, ProtoPref, Server, ServerConfig,
    SessionReport, WireOp, EVENT2_KIND,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

fn temp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("paramount-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(root: &Path) -> ServerConfig {
    ServerConfig {
        data_dir: Some(root.to_path_buf()),
        // Small enough that an eight-op trace crosses checkpoint boundaries.
        checkpoint_every_events: 3,
        // The tests kill connections, not the OS; skip the fsync latency.
        fsync: FsyncPolicy::Never,
        ..ServerConfig::default()
    }
}

fn spawn_daemon(
    config: ServerConfig,
) -> (
    SocketAddr,
    paramount_ingest::ServerHandle,
    mpsc::Receiver<SessionReport>,
    std::thread::JoinHandle<paramount_ingest::ServeSummary>,
) {
    let mut server = Server::new(config);
    let addr = server.bind_tcp("127.0.0.1:0").expect("bind loopback");
    let handle = server.handle();
    let (tx, rx) = mpsc::channel();
    let tx = Mutex::new(tx);
    let daemon = std::thread::spawn(move || {
        server
            .run(move |report: &SessionReport| {
                let _ = tx.lock().unwrap().send(report.clone());
            })
            .expect("daemon run")
    });
    (addr, handle, rx, daemon)
}

/// A legal eight-op two-thread trace: t0 works under a lock, then t1
/// takes the same lock.
fn ops() -> Vec<(usize, WireOp)> {
    vec![
        (0, WireOp::Write("x".into())),
        (0, WireOp::Acquire("m".into())),
        (0, WireOp::Write("y".into())),
        (0, WireOp::Release("m".into())),
        (1, WireOp::Write("z".into())),
        (1, WireOp::Acquire("m".into())),
        (1, WireOp::Write("w".into())),
        (1, WireOp::Release("m".into())),
    ]
}

fn send_range(client: &mut Client, ops: &[(usize, WireOp)]) {
    for (tid, op) in ops {
        client.event(*tid, op).expect("event");
    }
}

/// The unbroken control run: one session, all ops, clean END.
fn control_report(addr: SocketAddr) -> paramount_ingest::WireReport {
    let mut client = Client::connect_tcp(addr).expect("connect control");
    client.hello(&Hello::new(2)).expect("hello");
    send_range(&mut client, &ops());
    client.finish().expect("finish control")
}

/// A cleanly ENDed durable session leaves nothing behind: the per-session
/// store directory is deleted the moment the final report is cut.
#[test]
fn clean_end_deletes_the_session_store() {
    let root = temp_root("clean-end");
    let (addr, handle, _rx, daemon) = spawn_daemon(durable_config(&root));

    let mut client = Client::connect_tcp(addr).expect("connect");
    let session = client.hello(&Hello::new(2)).expect("hello");
    send_range(&mut client, &ops());
    let report = client.finish().expect("finish");
    assert_eq!(report.reason, EndReason::End);
    assert!(report.complete);
    assert!(
        !session_dir(&root, session).exists(),
        "clean END must delete the session store"
    );

    handle.shutdown();
    let summary = daemon.join().expect("daemon");
    assert!(
        summary.ingest.checkpoint_writes >= 1,
        "eight ops at checkpoint_every=3 must write checkpoints"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A client dies mid-stream; a second connection `RESUME`s the session
/// on the same (still-running) daemon, streams only the tail, and the
/// final report matches the unbroken control run exactly.
#[test]
fn resume_after_disconnect_matches_the_unbroken_control() {
    let root = temp_root("resume-disconnect");
    let (addr, handle, rx, daemon) = spawn_daemon(durable_config(&root));
    let expected = control_report(addr);
    let all = ops();

    // First attempt: four ops, a barrier so the daemon holds them, then
    // a dead socket.
    let session = {
        let mut client = Client::connect_tcp(addr).expect("connect");
        let session = client.hello(&Hello::new(2)).expect("hello");
        send_range(&mut client, &all[..4]);
        client.flush_sync().expect("flush");
        session
    };
    // Wait for the daemon to finalize the drop — the store must outlive
    // the session (that is the durability contract for `disconnect`).
    let dropped = loop {
        let report = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("disconnect report");
        if report.reason == EndReason::Disconnect {
            break report;
        }
    };
    assert!(dropped.complete, "the partial prefix is still exact");
    assert!(
        session_dir(&root, session).exists(),
        "disconnect must keep the store for resumption"
    );

    // Second attempt: RESUME, trust the server's acked count, send only
    // what it has not seen.
    let mut client = Client::connect_tcp(addr).expect("reconnect");
    let acked = client.resume(session).expect("resume");
    assert_eq!(acked, 4, "server acknowledged exactly the flushed prefix");
    send_range(&mut client, &all[acked as usize..]);
    let report = client.finish().expect("finish resumed");

    assert_eq!(report.reason, EndReason::End);
    assert!(report.complete);
    assert_eq!(report.events, expected.events, "resumed events == control");
    assert_eq!(report.cuts, expected.cuts, "resumed cuts == control");
    assert!(!session_dir(&root, session).exists());

    handle.shutdown();
    daemon.join().expect("daemon");
    let _ = std::fs::remove_dir_all(&root);
}

/// Full daemon restart: the first daemon is shut down with a session
/// still open (reason `shutdown`, store kept). A second daemon booted on
/// the same `--data-dir` recovers the session at startup; `RESUME`
/// continues it and the report matches the control.
#[test]
fn daemon_restart_recovers_and_resumes_persisted_sessions() {
    let root = temp_root("restart");
    let all = ops();

    // Daemon #1: take five ops, then drain with the session open.
    let (addr, handle, rx, daemon) = spawn_daemon(durable_config(&root));
    let expected = control_report(addr);
    let mut client = Client::connect_tcp(addr).expect("connect");
    let session = client.hello(&Hello::new(2)).expect("hello");
    send_range(&mut client, &all[..5]);
    client.flush_sync().expect("flush");
    handle.shutdown();
    let drained = loop {
        let report = rx.recv_timeout(Duration::from_secs(10)).expect("report");
        if report.reason == EndReason::Shutdown {
            break report;
        }
    };
    assert!(drained.complete);
    daemon.join().expect("daemon #1");
    drop(client);
    assert!(
        session_dir(&root, session).exists(),
        "shutdown must keep the store for the next boot"
    );

    // Daemon #2, same data-dir: boot recovery parks the session.
    let (addr, handle, _rx, daemon) = spawn_daemon(durable_config(&root));
    let mut client = Client::connect_tcp(addr).expect("reconnect");
    let acked = client.resume(session).expect("resume across restart");
    assert_eq!(acked, 5);
    send_range(&mut client, &all[acked as usize..]);
    let report = client.finish().expect("finish resumed");
    assert_eq!(report.reason, EndReason::End);
    assert!(report.complete);
    assert_eq!(report.events, expected.events);
    assert_eq!(
        report.cuts, expected.cuts,
        "restart-resumed cuts == control"
    );

    handle.shutdown();
    let summary = daemon.join().expect("daemon #2");
    assert!(
        summary.ingest.sessions_recovered >= 1,
        "boot must count the recovered session"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A `paramount/2` session keeps logging binary records across a daemon
/// restart. The boot scan recovers it before any client has spoken, so
/// only the store — from the `HELLO` it persisted — can know the kind.
#[test]
fn boot_recovered_v2_session_keeps_logging_binary_records() {
    let root = temp_root("restart-v2");
    let all = ops();

    let (addr, handle, rx, daemon) = spawn_daemon(durable_config(&root));
    let mut client = Client::connect_tcp(addr).expect("connect");
    client.set_proto_pref(ProtoPref::V2);
    let session = client.hello(&Hello::new(2)).expect("hello");
    send_range(&mut client, &all[..4]);
    client.flush_sync().expect("flush");
    handle.shutdown();
    while rx
        .recv_timeout(Duration::from_secs(10))
        .expect("report")
        .reason
        != EndReason::Shutdown
    {}
    daemon.join().expect("daemon #1");
    drop(client);

    let (addr, handle, _rx, daemon) = spawn_daemon(durable_config(&root));
    let mut client = Client::connect_tcp(addr).expect("reconnect");
    client.set_proto_pref(ProtoPref::V2);
    assert_eq!(client.resume(session).expect("resume at v2"), 4);
    send_range(&mut client, &all[4..5]);
    client.flush_sync().expect("flush");
    handle.shutdown();
    daemon.join().expect("daemon #2");

    let (_, records) =
        Wal::open(&session_dir(&root, session), WalConfig::default()).expect("open the log");
    let last = records.last().expect("a committed record");
    assert_eq!(
        char::from(last.kind),
        char::from(EVENT2_KIND),
        "the event accepted after the restart"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// `RESUME` of a session the daemon does not know is a *state* error —
/// non-fatal by contract, so the same connection can fall back to a
/// fresh `HELLO` (exactly what `send_trace_with_retry` does).
#[test]
fn resume_of_unknown_session_falls_back_to_hello() {
    let root = temp_root("unknown-resume");
    let (addr, handle, _rx, daemon) = spawn_daemon(durable_config(&root));

    let mut client = Client::connect_tcp(addr).expect("connect");
    let err = client.resume(999_999).expect_err("unknown session");
    match err {
        ClientError::Rejected(e) => assert_eq!(e.code, ErrCode::State),
        other => panic!("expected a state rejection, got {other}"),
    }
    // Same connection, fresh session: the rejection was survivable.
    client.hello(&Hello::new(2)).expect("hello after rejection");
    send_range(&mut client, &ops());
    let report = client.finish().expect("finish");
    assert_eq!(report.reason, EndReason::End);
    assert!(report.complete);

    handle.shutdown();
    daemon.join().expect("daemon");
    let _ = std::fs::remove_dir_all(&root);
}

/// Recovery replay routes through the cold disk tier: a restarted
/// daemon whose memory watermarks sit far below the resumed prefix must
/// spill the backlog to disk during boot replay (not hold it all in
/// RAM) and still finish the session with the control's exact counts.
/// Chaos-gated: the seeded `worker_delay_us` fault stalls the pool so
/// the replay backlog deterministically outruns the drain (a fast
/// machine would otherwise keep the one-slot queue empty and never
/// exercise the spill path).
#[cfg(feature = "chaos")]
#[test]
fn recovery_replay_spills_to_the_cold_disk_tier() {
    let root = temp_root("replay-spill");
    // A big backlog of *poset* events: the recorder merges consecutive
    // same-thread accesses into one segment, so plain write runs
    // collapse to a single event per thread. Bracketing every write
    // with a per-thread lock closes the segment each iteration — two
    // threads on distinct locks stay pairwise concurrent, and 50
    // iterations × 3 ops × 2 threads yields hundreds of poset events
    // (and a large cut grid) for replay to re-enumerate.
    let mut big: Vec<(usize, WireOp)> = Vec::new();
    for _ in 0..50 {
        for t in 0..2usize {
            let (lock, var) = if t == 0 { ("l0", "x") } else { ("l1", "y") };
            big.push((t, WireOp::Acquire(lock.into())));
            big.push((t, WireOp::Write(var.into())));
            big.push((t, WireOp::Release(lock.into())));
        }
    }

    // Daemon #1: generous config takes the whole stream, then drains
    // with the session open (store kept).
    let (addr, handle, rx, daemon) = spawn_daemon(durable_config(&root));
    let expected = {
        let mut client = Client::connect_tcp(addr).expect("connect control");
        client.hello(&Hello::new(2)).expect("hello");
        send_range(&mut client, &big);
        client.finish().expect("finish control")
    };
    let mut client = Client::connect_tcp(addr).expect("connect");
    let session = client.hello(&Hello::new(2)).expect("hello");
    send_range(&mut client, &big);
    client.flush_sync().expect("flush");
    handle.shutdown();
    loop {
        let report = rx.recv_timeout(Duration::from_secs(10)).expect("report");
        if report.reason == EndReason::Shutdown {
            break;
        }
    }
    daemon.join().expect("daemon #1");
    drop(client);

    // Daemon #2: watermarks of a few KiB — far below the backlog — but
    // an ample disk tier. Boot replay must spill instead of ballooning.
    // A one-slot dispatch queue plus a per-interval worker stall makes
    // the backlog deterministic: replay inserts events as fast as the
    // WAL decodes while the single worker crawls, so overflow intervals
    // land in the spill deque, cross the soft watermark, and freeze to
    // disk.
    let mut tight = durable_config(&root);
    tight.governor.soft_spill_bytes = Some(2048);
    tight.governor.hard_spill_bytes = Some(4096);
    tight.governor.disk_spill_bytes = Some(64 * 1024 * 1024);
    tight.session.engine.workers = 1;
    tight.session.engine.queue_capacity = 1;
    tight.session.engine.faults.worker_delay_us = Some(500);
    let (addr, handle, rx, daemon) = spawn_daemon(tight);
    let mut client = Client::connect_tcp(addr).expect("reconnect");
    let acked = client.resume(session).expect("resume under tight budget");
    assert_eq!(acked, big.len() as u64);
    let report = client.finish().expect("finish resumed");
    assert!(report.complete, "spilled replay must stay exact");
    assert_eq!(report.events, expected.events);
    assert_eq!(report.cuts, expected.cuts, "spilled replay cuts == control");
    let finalized = loop {
        let report = rx.recv_timeout(Duration::from_secs(10)).expect("report");
        if report.reason == EndReason::End {
            break report;
        }
    };
    assert!(
        finalized.metrics.disk_spill_batches >= 1,
        "a {}-event replay against a 4 KiB hard watermark must hit disk \
         (got {} disk batches)",
        big.len(),
        finalized.metrics.disk_spill_batches
    );

    handle.shutdown();
    daemon.join().expect("daemon #2");
    let _ = std::fs::remove_dir_all(&root);
}

/// The quarantine ledger's exact `[Gmin, Gbnd]` bounds survive a daemon
/// restart: checkpointed QUAR lines are restored into the recovered
/// session and lead its final report's ledger, while replay itself
/// re-enumerates those intervals (so the resumed run is complete).
#[cfg(feature = "chaos")]
#[test]
fn quarantine_bounds_survive_restart_and_resume() {
    let root = temp_root("quarantine-bounds");
    let all = ops();

    // Daemon #1: every 3rd interval dispatch fails by injection, so the
    // stream quarantines intervals with exact bounds; checkpoint every
    // event so the ledger is persisted as it grows.
    let mut faulty = durable_config(&root);
    faulty.checkpoint_every_events = 1;
    faulty.session.engine.faults.send_fail_every = Some(3);
    let (addr, handle, rx, daemon) = spawn_daemon(faulty);
    let mut client = Client::connect_tcp(addr).expect("connect");
    let session = client.hello(&Hello::new(2)).expect("hello");
    send_range(&mut client, &all);
    client.flush_sync().expect("flush");
    drop(client);
    let dropped = loop {
        let report = rx.recv_timeout(Duration::from_secs(10)).expect("report");
        if report.reason == EndReason::Disconnect {
            break report;
        }
    };
    assert!(
        !dropped.faults.is_empty(),
        "the injection must have quarantined intervals"
    );
    handle.shutdown();
    daemon.join().expect("daemon #1");

    // Daemon #2, clean config: recovery restores the checkpointed
    // ledger; RESUME + END must report those historical bounds exactly.
    let (addr, handle, rx, daemon) = spawn_daemon(durable_config(&root));
    let mut client = Client::connect_tcp(addr).expect("reconnect");
    let acked = client.resume(session).expect("resume across restart");
    assert_eq!(acked, all.len() as u64);
    let report = client.finish().expect("finish resumed");
    assert_eq!(report.reason, EndReason::End);
    assert!(
        report.complete,
        "replay re-enumerates quarantined intervals; the ledger is history"
    );
    // The wire report does not carry the ledger; read it off the
    // daemon's final session report.
    let finalized = loop {
        let report = rx.recv_timeout(Duration::from_secs(10)).expect("report");
        if report.reason == EndReason::End {
            break report;
        }
    };
    assert!(
        !finalized.faults.is_empty(),
        "checkpointed quarantine bounds must survive the restart"
    );
    for entry in &finalized.faults.quarantined {
        assert!(
            dropped.faults.quarantined.contains(entry),
            "recovered bounds must match a pre-crash quarantine exactly: {entry:?}"
        );
    }
    handle.shutdown();
    daemon.join().expect("daemon #2");
    let _ = std::fs::remove_dir_all(&root);
}

/// A daemon with no `--data-dir` rejects `RESUME` the same survivable
/// way: in-memory deployments keep working with resume-capable clients.
#[test]
fn in_memory_daemon_rejects_resume_survivably() {
    let (addr, handle, _rx, daemon) = spawn_daemon(ServerConfig::default());

    let mut client = Client::connect_tcp(addr).expect("connect");
    let err = client.resume(1).expect_err("no durable store");
    match err {
        ClientError::Rejected(e) => assert_eq!(e.code, ErrCode::State),
        other => panic!("expected a state rejection, got {other}"),
    }
    client.hello(&Hello::new(1)).expect("hello still works");
    client.event(0, &WireOp::Write("x".into())).expect("event");
    let report = client.finish().expect("finish");
    assert_eq!(report.cuts, 2);

    handle.shutdown();
    daemon.join().expect("daemon");
}
