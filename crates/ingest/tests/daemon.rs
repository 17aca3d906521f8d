//! End-to-end acceptance tests for `paramount serve`: a real daemon on
//! loopback, real sockets, concurrent sessions, and the sequential BFS
//! enumerator as the ground-truth oracle.

use paramount::json::{self, Json};
use paramount_enumerate::bfs::{self, BfsOptions};
use paramount_enumerate::CountSink;
use paramount_ingest::{
    stream_program, Client, EndReason, Hello, ProtoPref, Server, ServerConfig, SessionReport,
    WireOp,
};
use paramount_trace::gen::{random_program, RandomProgramConfig};
use paramount_trace::textfmt::{trace_of_program, TraceFile};
use paramount_workloads::banking;
use std::net::SocketAddr;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

/// The sequential oracle: full BFS enumeration of the trace's poset.
fn bfs_oracle(trace: &TraceFile) -> u64 {
    let poset = trace.to_poset(false);
    let mut sink = CountSink::default();
    bfs::enumerate(&poset, &BfsOptions::default(), &mut sink).expect("oracle BFS");
    sink.count
}

/// The slice of a [`SessionReport`] the notify channel carries.
#[derive(Debug)]
struct ReportInfo {
    label: Option<String>,
    reason: EndReason,
    events: u64,
    cuts: u64,
    complete: bool,
}

fn spawn_daemon(
    config: ServerConfig,
) -> (
    SocketAddr,
    paramount_ingest::ServerHandle,
    mpsc::Receiver<ReportInfo>,
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
                let _ = tx.lock().unwrap().send(ReportInfo {
                    label: report.label.clone(),
                    reason: report.reason,
                    events: report.events,
                    cuts: report.cuts,
                    complete: report.complete,
                });
            })
            .expect("daemon run")
    });
    (addr, handle, rx, daemon)
}

/// Eight clients stream different random traces concurrently into one
/// daemon; every session's cut count must equal the sequential BFS
/// enumeration of that session's poset (Theorem 2, per session).
#[test]
fn eight_concurrent_sessions_match_the_sequential_bfs_oracle() {
    let (addr, handle, _rx, daemon) = spawn_daemon(ServerConfig::default());

    let clients: Vec<_> = (0..8u64)
        .map(|seed| {
            std::thread::spawn(move || {
                let config = RandomProgramConfig {
                    threads: 2 + (seed as usize % 2),
                    steps_per_thread: 4 + (seed as usize % 2),
                    vars: 3,
                    locks: 1 + (seed as usize % 2),
                    lock_probability: 0.5,
                    write_probability: 0.4,
                };
                let program = random_program("wire", config, seed);
                let trace = trace_of_program(&program, seed);
                let expected = bfs_oracle(&trace);

                let mut client = Client::connect_tcp(addr).expect("connect");
                let mut hello = Hello::new(trace.threads);
                hello.label = Some(format!("oracle-{seed}"));
                client.hello(&hello).expect("hello");
                client.stream_trace(&trace).expect("stream");
                // Barrier mid-protocol: progress counters are monotone
                // and the connection survives the sync round-trip.
                let (events_so_far, _) = client.flush_sync().expect("flush");
                let report = client.finish().expect("finish");

                assert_eq!(report.reason, EndReason::End, "seed {seed}");
                assert!(report.complete, "seed {seed}");
                assert!(events_so_far <= report.events, "seed {seed}");
                assert_eq!(
                    report.cuts, expected,
                    "seed {seed}: daemon cut count must equal the BFS oracle"
                );
                report.cuts
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    handle.shutdown();
    let summary = daemon.join().expect("daemon thread");
    assert_eq!(summary.reports.len(), 8);
    assert_eq!(summary.ingest.sessions_opened, 8);
    assert_eq!(summary.ingest.sessions_completed, 8);
    assert_eq!(summary.ingest.sessions_aborted, 0);
    assert_eq!(summary.ingest.decode_errors, 0);
    assert!(summary.ingest.active_sessions_high_water >= 1);
}

/// A client dies mid-stream (socket dropped, no `END`, a segment still
/// open and a lock still held). The daemon must finalize that session
/// with an exact partial report (reason `disconnect`) and keep serving
/// other clients.
#[test]
fn mid_stream_disconnect_yields_partial_report_and_serving_continues() {
    let (addr, handle, rx, daemon) = spawn_daemon(ServerConfig::default());

    // The doomed client: three segments' worth of events, then gone.
    {
        let mut client = Client::connect_tcp(addr).expect("connect");
        let mut hello = Hello::new(2);
        hello.label = Some("doomed".to_string());
        client.hello(&hello).expect("hello");
        client.event(0, &WireOp::Write("a".into())).expect("event");
        client.event(1, &WireOp::Write("b".into())).expect("event");
        client
            .event(0, &WireOp::Acquire("m".into()))
            .expect("event");
        client.event(0, &WireOp::Write("c".into())).expect("event");
        // The barrier guarantees the daemon consumed everything before
        // the socket drops.
        client.flush_sync().expect("flush");
        // Drop without END: a mid-stream kill.
    }

    let report = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("daemon must finalize the dropped session");
    assert_eq!(report.label.as_deref(), Some("doomed"));
    assert_eq!(report.reason, EndReason::Disconnect);
    assert!(
        report.complete,
        "partial report must still be Theorem-2 exact for the prefix"
    );
    // t0 contributed two segments (the acquire closed the first), t1 one:
    // a 2-chain times a 1-chain has 3 x 2 = 6 ideals.
    assert_eq!(report.events, 3);
    assert_eq!(report.cuts, 6);

    // The daemon is still alive and still correct for everyone else.
    let program = random_program("survivor", RandomProgramConfig::default(), 42);
    let trace = trace_of_program(&program, 42);
    let expected = bfs_oracle(&trace);
    let mut client = Client::connect_tcp(addr).expect("connect after kill");
    client.hello(&Hello::new(trace.threads)).expect("hello");
    client.stream_trace(&trace).expect("stream");
    let survivor = client.finish().expect("finish");
    assert_eq!(survivor.cuts, expected);
    assert!(survivor.complete);

    handle.shutdown();
    let summary = daemon.join().expect("daemon");
    assert_eq!(summary.reports.len(), 2);
    assert_eq!(summary.ingest.sessions_aborted, 1);
    assert_eq!(summary.ingest.sessions_completed, 1);
}

/// A real multi-threaded execution (the paper's online mode) streams over
/// the wire as it runs. The wide banking workload's lattice size is
/// interleaving-independent, so the count is checkable even for a
/// nondeterministic execution.
#[test]
fn live_threaded_execution_streams_over_the_wire() {
    let (addr, handle, _rx, daemon) = spawn_daemon(ServerConfig::default());

    let program = banking::wide_program(3, 2);
    let client = Client::connect_tcp(addr).expect("connect");
    let report = stream_program(client, &program, 1, |hello| {
        hello.label = Some("banking-live".to_string());
    })
    .expect("stream program");
    assert_eq!(report.reason, EndReason::End);
    assert!(report.complete);
    // Init write + 3 tellers x 4 segments, no cross edges among tellers:
    // 1 + 5^3 ideals (see banking::wide_program docs).
    assert_eq!(report.cuts, 126);

    handle.shutdown();
    daemon.join().expect("daemon");
}

/// Malformed and illegal frames are single-frame failures: the server
/// answers `ERR` with the right code and the session keeps going.
#[test]
fn malformed_input_is_survivable() {
    let (addr, handle, _rx, daemon) = spawn_daemon(ServerConfig::default());

    let mut client = Client::connect_tcp(addr).expect("connect");
    // Pin the text protocol: this test is about the server rejecting a
    // malformed text line mid-session (binary clients can't emit one —
    // `event_line` re-parses and fails locally under paramount/2).
    client.set_proto_pref(paramount_ingest::ProtoPref::V1);
    client.hello(&Hello::new(2)).expect("hello");
    client.event(0, &WireOp::Write("x".into())).expect("event");
    // A garbage line: ERR proto, session lives.
    client
        .event_line(0, "frobnicate the balance")
        .expect("queue");
    // An illegal (but well-formed) frame: ERR state, session lives.
    client
        .event(1, &WireOp::Release("m".into()))
        .expect("queue");
    let err = client.flush_sync().expect_err("first ERR surfaces");
    match err {
        paramount_ingest::ClientError::Rejected(e) => {
            assert_eq!(e.code, paramount_ingest::ErrCode::Proto)
        }
        other => panic!("expected a proto rejection, got {other}"),
    }
    // The client can keep using the connection: the second ERR (state)
    // and the FLUSH OK are still queued in order.
    // Re-sync: read the state ERR, then a fresh FLUSH round-trip.
    let err = client.flush_sync().expect_err("second ERR surfaces");
    match err {
        paramount_ingest::ClientError::Rejected(e) => {
            assert_eq!(e.code, paramount_ingest::ErrCode::State)
        }
        other => panic!("expected a state rejection, got {other}"),
    }
    // (t0's write is an open segment, so the live insertion count may
    // still be 0 — only the round-trip itself is under test here.)
    let (events, _cuts) = client.flush_sync().expect("stream recovered");
    assert!(events <= 2);
    client.event(1, &WireOp::Read("x".into())).expect("event");
    let report = client.finish().expect("finish");
    assert_eq!(report.reason, EndReason::End);
    assert!(report.complete);
    assert_eq!(report.events, 2);

    handle.shutdown();
    let summary = daemon.join().expect("daemon");
    assert_eq!(summary.ingest.decode_errors, 2);
    assert_eq!(summary.ingest.sessions_completed, 1);
}

/// Unix-domain sockets serve the same protocol, and a pre-session
/// `STATS` scrapes daemon-wide ingest counters.
#[cfg(unix)]
#[test]
fn unix_socket_sessions_and_daemon_stats() {
    let dir = std::env::temp_dir().join(format!("paramount-ingest-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("serve.sock");
    let _ = std::fs::remove_file(&path);

    let mut server = Server::new(ServerConfig::default());
    server.bind_unix(&path).expect("bind unix");
    let handle = server.handle();
    let daemon = std::thread::spawn(move || server.run(|_| {}).expect("run"));

    // Daemon-wide stats before any session exists.
    let mut probe = Client::connect_unix(&path).expect("connect probe");
    let stats = probe.stats().expect("daemon stats");
    assert!(
        stats.iter().any(|l| l.contains("\"sessions_opened\"")),
        "ingest counters must be scrapeable pre-session: {stats:?}"
    );
    drop(probe);

    let mut client = Client::connect_unix(&path).expect("connect unix");
    client.hello(&Hello::new(2)).expect("hello");
    client.event(0, &WireOp::Write("x".into())).expect("event");
    client.event(1, &WireOp::Read("x".into())).expect("event");
    // In-session stats: the engine's metrics JSON.
    let stats = client.stats().expect("session stats");
    assert!(stats.iter().any(|l| l.contains("\"metric\"")));
    let report = client.finish().expect("finish");
    assert_eq!(report.cuts, 4, "two concurrent events: 2x2 lattice");

    handle.shutdown();
    daemon.join().expect("daemon");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `SHUTDOWN` admin frame drains the daemon remotely, and sessions
/// live at drain time are finalized with reason `shutdown`.
#[test]
fn admin_shutdown_drains_live_sessions() {
    let (addr, handle, rx, daemon) = spawn_daemon(ServerConfig::default());

    // A session that never ENDs: it will be drained.
    let mut lingering = Client::connect_tcp(addr).expect("connect");
    let mut hello = Hello::new(1);
    hello.label = Some("drained".to_string());
    lingering.hello(&hello).expect("hello");
    lingering
        .event(0, &WireOp::Write("x".into()))
        .expect("event");
    lingering.flush_sync().expect("flush");

    // Admin connection asks the daemon to stop.
    let admin = Client::connect_tcp(addr).expect("connect admin");
    admin.request_shutdown().expect("shutdown frame");

    let report = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("drained session must finalize");
    assert_eq!(report.label.as_deref(), Some("drained"));
    assert_eq!(report.reason, EndReason::Shutdown);
    assert!(report.complete);
    assert_eq!(report.events, 1);
    assert_eq!(report.cuts, 2);

    let summary = daemon.join().expect("daemon");
    assert_eq!(summary.reports.len(), 1);
    assert!(handle.is_shutdown());
}

/// Session limits on the wire: an oversized `HELLO` is rejected with
/// `ERR limit` before any engine spins up.
#[test]
fn oversized_hello_is_rejected_on_the_wire() {
    let (addr, handle, _rx, daemon) = spawn_daemon(ServerConfig::default());

    let mut client = Client::connect_tcp(addr).expect("connect");
    let limit = ServerConfig::default().session.limits.max_threads;
    let err = client.hello(&Hello::new(limit + 1)).expect_err("rejected");
    match err {
        paramount_ingest::ClientError::Rejected(e) => {
            assert_eq!(e.code, paramount_ingest::ErrCode::Limit)
        }
        other => panic!("expected a limit rejection, got {other}"),
    }

    handle.shutdown();
    let summary = daemon.join().expect("daemon");
    assert_eq!(summary.ingest.sessions_rejected, 1);
    assert_eq!(summary.ingest.sessions_opened, 0);
}

/// Mixed-version interop, both framings against one daemon: the same
/// trace streamed by a paramount/1-pinned client and a paramount/2-pinned
/// client yields identical reports, both equal to the BFS oracle.
#[test]
fn text_and_binary_framing_agree_with_the_bfs_oracle() {
    let (addr, handle, _rx, daemon) = spawn_daemon(ServerConfig::default());

    let config = RandomProgramConfig {
        threads: 3,
        steps_per_thread: 5,
        vars: 3,
        locks: 2,
        lock_probability: 0.5,
        write_probability: 0.4,
    };
    let program = random_program("interop", config, 7);
    let trace = trace_of_program(&program, 7);
    let expected = bfs_oracle(&trace);

    for (pref, want_proto) in [(ProtoPref::V1, 1u8), (ProtoPref::V2, 2u8)] {
        let mut client = Client::connect_tcp(addr).expect("connect");
        client.set_proto_pref(pref);
        client.hello(&Hello::new(trace.threads)).expect("hello");
        assert_eq!(client.proto(), want_proto, "negotiated version");
        client.stream_trace(&trace).expect("stream");
        let report = client.finish().expect("finish");
        assert_eq!(report.reason, EndReason::End);
        assert!(report.complete);
        assert_eq!(report.cuts, expected, "proto {want_proto} vs BFS oracle");
    }

    handle.shutdown();
    let summary = daemon.join().expect("daemon");
    assert_eq!(summary.ingest.sessions_completed, 2);
    assert_eq!(summary.ingest.decode_errors, 0);
}

/// An `auto` client offered paramount/2 to a v1-capped daemon falls back
/// to the text protocol on the same socket and still completes, while a
/// hard-pinned v2 client is turned away with `ERR version`.
#[test]
fn auto_client_falls_back_against_a_version_capped_daemon() {
    let config = ServerConfig {
        proto_max: 1,
        ..ServerConfig::default()
    };
    let (addr, handle, _rx, daemon) = spawn_daemon(config);

    // Hard-pinned v2: rejected, connection-level version error.
    let mut pinned = Client::connect_tcp(addr).expect("connect");
    pinned.set_proto_pref(ProtoPref::V2);
    let err = pinned.hello(&Hello::new(2)).expect_err("v2 refused");
    match err {
        paramount_ingest::ClientError::Rejected(e) => {
            assert_eq!(e.code, paramount_ingest::ErrCode::Version)
        }
        other => panic!("expected a version rejection, got {other}"),
    }

    // Auto (the default): second HELLO on the same socket, text framing.
    let mut client = Client::connect_tcp(addr).expect("connect");
    client.hello(&Hello::new(2)).expect("fallback hello");
    assert_eq!(client.proto(), 1, "fell back to paramount/1");
    client.event(0, &WireOp::Write("x".into())).expect("event");
    client.event(1, &WireOp::Read("x".into())).expect("event");
    let report = client.finish().expect("finish");
    assert_eq!(report.cuts, 4);
    assert!(report.complete);

    handle.shutdown();
    let summary = daemon.join().expect("daemon");
    assert_eq!(summary.ingest.sessions_completed, 1);
}

/// `STATS` surfaces the connection's negotiated `protocol_version` so
/// operators can audit which framing live clients actually speak.
#[test]
fn stats_report_the_negotiated_protocol_version() {
    let (addr, handle, _rx, daemon) = spawn_daemon(ServerConfig::default());

    let mut client = Client::connect_tcp(addr).expect("connect");
    client.hello(&Hello::new(2)).expect("hello");
    assert_eq!(client.proto(), 2);
    client.event(0, &WireOp::Write("x".into())).expect("event");
    let lines = client.stats().expect("stats");
    let gauge = lines
        .iter()
        .find(|l| l.contains("\"protocol_version\""))
        .expect("protocol_version gauge present");
    assert!(gauge.contains("\"value\":2"), "{gauge}");
    let report = client.finish().expect("finish");
    assert_eq!(report.events, 1);

    // A bare scrape connection never negotiated: it reports version 1.
    let mut scrape = Client::connect_tcp(addr).expect("connect");
    let lines = scrape.stats().expect("stats");
    let gauge = lines
        .iter()
        .find(|l| l.contains("\"protocol_version\""))
        .expect("protocol_version gauge present");
    assert!(gauge.contains("\"value\":1"), "{gauge}");

    handle.shutdown();
    daemon.join().expect("daemon");
}

/// The three gauges that ride along on every `STATS` reply
/// (`protocol_version`, `fencing_epoch`, `fenced`), byte for byte: once on
/// a bare scrape connection, once inside a labelled `paramount/2` session.
#[test]
fn ride_along_stat_lines_match_the_fixture() {
    let (addr, handle, _rx, daemon) = spawn_daemon(ServerConfig::default());
    let ride_along = |lines: Vec<String>| lines[lines.len() - 3..].join("\n") + "\n";

    let mut scrape = Client::connect_tcp(addr).expect("connect");
    let mut got = ride_along(scrape.stats().expect("stats"));

    let mut client = Client::connect_tcp(addr).expect("connect");
    let mut hello = Hello::new(2);
    hello.label = Some("smoke".to_string());
    client.hello(&hello).expect("hello");
    got.push_str(&ride_along(client.stats().expect("stats")));
    client.finish().expect("finish");

    assert_eq!(got, include_str!("golden/ride_along.jsonl"));
    handle.shutdown();
    daemon.join().expect("daemon");
}

/// A label is one whitespace-free token, so it may carry a quote, a
/// backslash or a bare control character: every `STAT` line of the
/// in-session reply must still be JSON, with the label read back intact.
#[test]
fn hostile_label_still_yields_valid_stat_json() {
    let (addr, handle, _rx, daemon) = spawn_daemon(ServerConfig::default());
    let label = "a\u{1}b\"c\\";

    let mut client = Client::connect_tcp(addr).expect("connect");
    let mut hello = Hello::new(2);
    hello.label = Some(label.to_string());
    client.hello(&hello).expect("hello");
    let lines = client.stats().expect("stats");
    assert!(lines.len() > 3, "{lines:?}");
    for line in &lines {
        let stat = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line:?}"));
        assert_eq!(stat.get("label").and_then(Json::as_str), Some(label));
    }
    client.finish().expect("finish");
    handle.shutdown();
    daemon.join().expect("daemon");
}
