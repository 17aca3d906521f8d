//! A session resumed on a second connection while its first connection
//! is still open. The first store may still hold events it accepted but
//! never wrote; when that connection finally ends, none of them may land
//! in the log the resumed session is appending to.

use paramount_durable::FsyncPolicy;
use paramount_ingest::{
    session_dir, Client, EndReason, Hello, Server, ServerConfig, SessionReport, SessionStore,
    StoreConfig, WireOp,
};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

#[test]
fn a_superseded_connection_writes_nothing_when_it_ends() {
    let root =
        std::env::temp_dir().join(format!("paramount-resume-overlap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut server = Server::new(ServerConfig {
        data_dir: Some(root.clone()),
        // No checkpoint: only FLUSH writes the log.
        checkpoint_every_events: 0,
        fsync: FsyncPolicy::Never,
        ..ServerConfig::default()
    });
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
    let write = |tid: usize, var: &str| (tid, WireOp::Write(var.to_string()));
    let flushed = [write(0, "x"), write(0, "y")];
    // Same shapes and lengths as what the second connection sends, so a
    // late write of the first one's tail would overlay those records
    // exactly and replay as events that were never accepted there.
    let unflushed = [write(1, "a1"), write(1, "a2")];
    let resumed = [write(1, "b1"), write(1, "b2")];

    // Connection A: a flushed prefix, then events the daemon applies
    // (STATS is a barrier that writes nothing) but never writes.
    let mut a = Client::connect_tcp(addr).expect("connect a");
    let session = a.hello(&Hello::new(2)).expect("hello");
    for (tid, op) in &flushed {
        a.event(*tid, op).expect("event a");
    }
    a.flush_sync().expect("flush a");
    for (tid, op) in &unflushed {
        a.event(*tid, op).expect("event a");
    }
    a.stats().expect("stats a");

    // Connection B resumes while A is still open and appends its own
    // events behind the flushed prefix.
    let mut b = Client::connect_tcp(addr).expect("connect b");
    let acked = b.resume(session).expect("resume");
    assert_eq!(
        acked,
        flushed.len() as u64,
        "only the flushed prefix is in the log"
    );
    for (tid, op) in &resumed {
        b.event(*tid, op).expect("event b");
    }
    b.flush_sync().expect("flush b");

    // A ends only now; its store must drop its tail, not write it.
    drop(a);
    while rx
        .recv_timeout(Duration::from_secs(10))
        .expect("disconnect report")
        .reason
        != EndReason::Disconnect
    {}
    handle.shutdown();
    daemon.join().expect("daemon");
    drop(b);

    let rec = SessionStore::recover(&session_dir(&root, session), StoreConfig::default())
        .expect("the log recovers")
        .expect("the store exists");
    let expected: Vec<(usize, WireOp)> = flushed.iter().chain(&resumed).cloned().collect();
    assert_eq!(rec.events, expected);
    let _ = std::fs::remove_dir_all(&root);
}
