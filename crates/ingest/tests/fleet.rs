//! Fleet acceptance: a router in front of in-process shard daemons
//! routes sessions to shard-encoded ids, health-checks the shards, and
//! on shard death migrates durable sessions so a `RESUME` against the
//! surviving shard finishes with a report identical to an unbroken
//! control run (Theorem 3 exactness is a function of the accepted event
//! prefix alone, so "identical report" is the whole failover contract).

use paramount::json::{self, Json};
use paramount_durable::FsyncPolicy;
use paramount_ingest::{
    first_session_id, shard_of_session, shard_subroot, Client, FenceGuard, FleetConfig,
    FleetHandle, FleetRouter, FleetSummary, Hello, Server, ServerConfig, ServerHandle, ShardSpec,
    WireOp,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("paramount-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Shard {
    id: usize,
    addr: SocketAddr,
    handle: ServerHandle,
    /// The shard daemon's own fencing guard, so tests can observe the
    /// exact moment it self-fences. Only the chaos partition drill reads
    /// it; the plain suite still constructs it through `spawn_shard_at`.
    #[cfg_attr(not(feature = "chaos"), allow(dead_code))]
    fence: Arc<FenceGuard>,
    daemon: std::thread::JoinHandle<paramount_ingest::ServeSummary>,
}

impl Shard {
    /// Simulates a crash well enough for the router: the listener goes
    /// away, probes fail, and the durable stores stay on disk (a real
    /// `kill -9` is exercised by the CLI end-to-end test).
    fn kill(self) {
        self.handle.shutdown();
        let _ = self.daemon.join();
    }
}

fn spawn_shard(root: &Path, id: usize) -> Shard {
    spawn_shard_at(root, id, "127.0.0.1:0".parse().unwrap())
}

/// Spawns a shard bound to `addr` (port 0 for ephemeral). A specific
/// port is retried briefly so a restarted shard can reclaim the address
/// its predecessor just released.
fn spawn_shard_at(root: &Path, id: usize, addr: SocketAddr) -> Shard {
    let config = ServerConfig {
        data_dir: Some(shard_subroot(root, id)),
        first_session_id: first_session_id(id),
        // Small enough that an eight-op trace crosses checkpoint boundaries.
        checkpoint_every_events: 3,
        fsync: FsyncPolicy::Never,
        ..ServerConfig::default()
    };
    let mut server = Server::new(config);
    let deadline = Instant::now() + Duration::from_secs(10);
    let bound = loop {
        match server.bind_tcp(addr) {
            Ok(bound) => break bound,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => panic!("bind shard {id} on {addr}: {e}"),
        }
    };
    let handle = server.handle();
    let fence = server.fence_guard();
    let daemon = std::thread::spawn(move || server.run(|_| {}).expect("shard run"));
    Shard {
        id,
        addr: bound,
        handle,
        fence,
        daemon,
    }
}

/// The parsed router STATS lines whose `metric` is `metric`.
fn stat_lines<'a>(lines: &'a [String], metric: &'a str) -> impl Iterator<Item = Json> + 'a {
    lines
        .iter()
        .filter_map(|l| json::parse(l).ok())
        .filter(move |stat| stat.get("metric").and_then(Json::as_str) == Some(metric))
}

/// One `u64` member of a parsed STATS line.
fn member_u64(stat: &Json, key: &str) -> Option<u64> {
    stat.get(key)?.as_u64()
}

/// The `value` of the router's `metric` line.
fn stat_u64(lines: &[String], metric: &str) -> Option<u64> {
    member_u64(&stat_lines(lines, metric).next()?, "value")
}

/// The router's `shard_state` STATS line for shard `id`.
fn shard_state_line(lines: &[String], id: usize) -> Option<Json> {
    stat_lines(lines, "shard_state").find(|stat| member_u64(stat, "shard") == Some(id as u64))
}

/// A snappy test-sized fleet config: fast probes, fast failover, a
/// lease short enough that fencing resolves in well under a second.
fn test_fleet_config(root: &Path) -> FleetConfig {
    FleetConfig {
        probe_interval: Duration::from_millis(50),
        probe_deadline: Duration::from_millis(250),
        suspect_after: 1,
        down_after: 2,
        data_root: Some(root.to_path_buf()),
        lease_ttl: Duration::from_millis(300),
        ..FleetConfig::default()
    }
}

fn spawn_fleet(
    root: &Path,
    shards: usize,
) -> (
    Vec<Shard>,
    SocketAddr,
    FleetHandle,
    std::thread::JoinHandle<FleetSummary>,
) {
    let procs: Vec<Shard> = (0..shards).map(|k| spawn_shard(root, k)).collect();
    let config = test_fleet_config(root);
    let (addr, handle, join) = spawn_router(&procs, config);
    (procs, addr, handle, join)
}

/// Builds and runs a router over already-spawned shards.
fn spawn_router(
    procs: &[Shard],
    config: FleetConfig,
) -> (
    SocketAddr,
    FleetHandle,
    std::thread::JoinHandle<FleetSummary>,
) {
    let specs = procs
        .iter()
        .map(|s| ShardSpec {
            id: s.id,
            addr: s.addr.to_string(),
        })
        .collect();
    spawn_router_over(specs, config)
}

fn spawn_router_over(
    specs: Vec<ShardSpec>,
    config: FleetConfig,
) -> (
    SocketAddr,
    FleetHandle,
    std::thread::JoinHandle<FleetSummary>,
) {
    let mut router = FleetRouter::new(specs, config);
    let addr = router.bind_tcp("127.0.0.1:0").expect("bind router");
    let handle = router.handle();
    let join = std::thread::spawn(move || router.run().expect("router run"));
    (addr, handle, join)
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

/// ROUTE against the router, then dial the shard it names — the same
/// two-step dance `paramount send --fleet` does.
fn route_and_dial(router: SocketAddr, session: Option<u64>) -> (u64, Client) {
    let mut routed = Client::connect_tcp(router).expect("connect router");
    let (shard, addr) = routed.route(session).expect("route");
    (
        shard,
        Client::connect_tcp(addr.as_str()).expect("dial shard"),
    )
}

/// Routed sessions carry their shard in the id's high bits, and the
/// router's own STATS endpoint reports fleet metrics plus one
/// `shard_state` line per shard.
#[test]
fn router_places_sessions_on_shard_encoded_ids() {
    let root = temp_root("routing");
    let (procs, router, handle, join) = spawn_fleet(&root, 3);

    for _ in 0..3 {
        let (shard, mut client) = route_and_dial(router, None);
        let session = client.hello(&Hello::new(2)).expect("hello");
        assert_eq!(
            shard_of_session(session),
            shard as usize,
            "session id {session} must encode the shard ROUTE named"
        );
        send_range(&mut client, &ops());
        let report = client.finish().expect("finish");
        assert!(report.complete);
    }

    let mut stats = Client::connect_tcp(router).expect("connect router");
    let lines = stats.stats().expect("fleet stats");
    assert!(
        lines.iter().any(|l| l.contains("\"sessions_routed\"")),
        "router STATS must include fleet counters: {lines:?}"
    );
    assert_eq!(
        stat_lines(&lines, "shard_state").count(),
        3,
        "router STATS must report one shard_state line per shard"
    );

    handle.shutdown();
    let summary = join.join().expect("router join");
    assert_eq!(summary.fleet.sessions_routed, 3);
    assert_eq!(summary.fleet.shards_up, 3);
    for shard in procs {
        shard.kill();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The tentpole acceptance: a shard dies with a durable session
/// mid-stream; the router marks it down, migrates the store to a
/// surviving shard, re-ROUTEs the session there, and the resumed run's
/// report equals the unbroken control's exactly.
#[test]
fn shard_death_migrates_sessions_and_resume_is_exact() {
    let root = temp_root("failover");
    let (mut procs, router, handle, join) = spawn_fleet(&root, 3);
    let all = ops();

    // Unbroken control run through the same fleet.
    let expected = {
        let (_, mut client) = route_and_dial(router, None);
        client.hello(&Hello::new(2)).expect("hello control");
        send_range(&mut client, &all);
        client.finish().expect("finish control")
    };

    // Victim run: four ops, synchronously acked, then the client dies.
    let (victim_shard, session) = {
        let (shard, mut client) = route_and_dial(router, None);
        let session = client.hello(&Hello::new(2)).expect("hello victim");
        send_range(&mut client, &all[..4]);
        client.flush_sync().expect("flush");
        (shard as usize, session)
    };
    assert_eq!(shard_of_session(session), victim_shard);

    // Kill the shard that owns the session. Joining the daemon thread
    // guarantees its durable store is final on disk before the router
    // can migrate it.
    let pos = procs
        .iter()
        .position(|s| s.id == victim_shard)
        .expect("victim shard exists");
    procs.remove(pos).kill();

    // The router notices within a few probe sweeps and re-homes the
    // session; until then ROUTE still names the dead shard.
    let deadline = Instant::now() + Duration::from_secs(20);
    let new_addr = loop {
        assert!(
            Instant::now() < deadline,
            "router never migrated session {session} off dead shard {victim_shard}"
        );
        let mut routed = Client::connect_tcp(router).expect("connect router");
        match routed.route(Some(session)) {
            Ok((shard, addr)) if shard as usize != victim_shard => break addr,
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    };

    // RESUME on the surviving shard: it acked exactly the flushed
    // prefix, so the client re-sends only the tail.
    let mut client = Client::connect_tcp(new_addr.as_str()).expect("dial survivor");
    let acked = client.resume(session).expect("resume migrated session");
    assert_eq!(acked, 4, "survivor acked exactly the flushed prefix");
    send_range(&mut client, &all[acked as usize..]);
    let report = client.finish().expect("finish resumed");
    assert!(report.complete);
    assert_eq!(report.events, expected.events, "migrated events == control");
    assert_eq!(report.cuts, expected.cuts, "migrated cuts == control");

    handle.shutdown();
    let summary = join.join().expect("router join");
    assert!(
        summary.fleet.failovers >= 1,
        "the dead shard must count as a failover"
    );
    assert!(
        summary.fleet.sessions_migrated >= 1,
        "the session must count as migrated"
    );
    assert!(summary.fleet.probe_failures >= 1);
    assert_eq!(summary.fleet.shards_down, 1);
    for shard in procs {
        shard.kill();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A session id whose shard prefix is outside the fleet is a state
/// error — survivable, so the caller can fall back to a fresh ROUTE.
#[test]
fn route_of_foreign_session_is_a_state_error() {
    let root = temp_root("foreign");
    let (procs, router, handle, join) = spawn_fleet(&root, 2);

    let mut routed = Client::connect_tcp(router).expect("connect router");
    let err = routed
        .route(Some(first_session_id(7)))
        .expect_err("shard 7 is not in a 2-shard fleet");
    let paramount_ingest::ClientError::Rejected(e) = err else {
        panic!("expected a rejection");
    };
    assert_eq!(e.code, paramount_ingest::ErrCode::State);
    // Same connection, fresh placement: the rejection was survivable.
    let (_, addr) = routed.route(None).expect("route after rejection");
    assert!(!addr.is_empty());

    handle.shutdown();
    join.join().expect("router join");
    for shard in procs {
        shard.kill();
    }
    let _ = std::fs::remove_dir_all(&root);
}

fn router_stats(router: SocketAddr) -> Vec<String> {
    let mut stats = Client::connect_tcp(router).expect("connect router");
    stats.stats().expect("router stats")
}

/// While a dead shard's lease may still be live, `ROUTE` answers `ERR
/// busy` with the remaining fence wait as a `retry-after-ms` hint — and
/// the client retry loop honors that hint even though the fleet path
/// delivers it wrapped inside an io error (the `fleet_connect` shape).
#[test]
fn route_rejections_carry_hints_that_pace_retries() {
    use paramount_ingest::{send_trace_with_retry, ClientError, ErrCode, RetryPolicy};
    use paramount_trace::textfmt::parse_trace;

    let root = temp_root("hints");
    let mut config = test_fleet_config(&root);
    config.lease_ttl = Duration::from_millis(1200);
    config.busy_retry_after_ms = 600;
    let procs: Vec<Shard> = vec![spawn_shard(&root, 0)];
    let (router, handle, join) = spawn_router(&procs, config);

    // A durable session on the only shard, synchronously acked.
    let (_, mut client) = route_and_dial(router, None);
    let session = client.hello(&Hello::new(2)).expect("hello");
    send_range(&mut client, &ops()[..4]);
    client.flush_sync().expect("flush");
    drop(client);

    // Kill the shard. Once the router declares it Down, resolving the
    // session is refused with the remaining fence wait as the hint.
    for shard in procs {
        shard.kill();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    let hint = loop {
        assert!(
            Instant::now() < deadline,
            "router never declared the dead shard Down"
        );
        let mut routed = Client::connect_tcp(router).expect("connect router");
        match routed.route(Some(session)) {
            Ok(_) => std::thread::sleep(Duration::from_millis(20)),
            Err(ClientError::Rejected(e)) => {
                assert_eq!(e.code, ErrCode::Busy, "fence wait must be ERR busy: {e}");
                break e.retry_after_hint().expect("busy rejection must hint");
            }
            Err(other) => panic!("unexpected route error: {other}"),
        }
    };
    assert!(hint > Duration::ZERO, "hint must name a wait");

    // Fresh placements are busy too (no shard is reachable), with the
    // configured 600 ms hint. The retry loop's connect closure is the
    // exact `fleet_connect` shape: the rejection reaches it tunneled
    // through an io error, and the second attempt must wait it out.
    let trace = parse_trace("threads 1\n0 write x\n").expect("trace");
    let policy = RetryPolicy::new(2, Duration::from_millis(1));
    let started = Instant::now();
    let result = send_trace_with_retry(
        |session| {
            let mut routed = Client::connect_tcp(router)?;
            let (_, addr) = routed.route(session).map_err(|e| match e {
                ClientError::Io(io) => io,
                rejection => std::io::Error::other(rejection),
            })?;
            Client::connect_tcp(addr.as_str())
        },
        &Hello::new(1),
        &trace,
        policy,
    );
    let elapsed = started.elapsed();
    assert!(result.is_err(), "no shard is reachable; the send must fail");
    assert!(
        elapsed >= Duration::from_millis(500),
        "the retry loop must pace on the tunneled 600 ms hint; only waited {elapsed:?}"
    );

    handle.shutdown();
    let summary = join.join().expect("router join");
    assert!(summary.fleet.routes_rejected >= 2);
    let _ = std::fs::remove_dir_all(&root);
}

/// A fenced shard re-joins: restarted on the same address it is granted
/// a strictly higher epoch, counted as a re-join, and handed *new*
/// sessions again — while the session that migrated away during the
/// outage stays on the survivor, and the re-issued id space never
/// collides with the migrated session.
#[test]
fn fenced_shard_rejoins_with_a_fresh_epoch() {
    let root = temp_root("rejoin");
    let (mut procs, router, handle, join) = spawn_fleet(&root, 2);
    let all = ops();

    // Durable session, flushed, client gone: parked on its home shard.
    let (victim_shard, session) = {
        let (shard, mut client) = route_and_dial(router, None);
        let session = client.hello(&Hello::new(2)).expect("hello victim");
        send_range(&mut client, &all[..4]);
        client.flush_sync().expect("flush");
        (shard as usize, session)
    };

    // Kill the home shard; wait for fence + migration to the survivor.
    let pos = procs
        .iter()
        .position(|s| s.id == victim_shard)
        .expect("victim exists");
    let dead = procs.remove(pos);
    let victim_addr = dead.addr;
    dead.kill();
    let deadline = Instant::now() + Duration::from_secs(20);
    let old_epoch = loop {
        assert!(Instant::now() < deadline, "victim was never fenced");
        let lines = router_stats(router);
        let state = shard_state_line(&lines, victim_shard).expect("state line");
        if member_u64(&state, "fenced") == Some(1) {
            let mut routed = Client::connect_tcp(router).expect("connect router");
            if let Ok((shard, _)) = routed.route(Some(session)) {
                if shard as usize != victim_shard {
                    break member_u64(&state, "epoch").expect("epoch field");
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    };

    // Restart the shard on the address its predecessor just released.
    procs.push(spawn_shard_at(&root, victim_shard, victim_addr));
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        assert!(Instant::now() < deadline, "shard never re-joined");
        let lines = router_stats(router);
        let state = shard_state_line(&lines, victim_shard).expect("state line");
        if stat_u64(&lines, "shards_rejoined").unwrap_or(0) >= 1
            && state.get("state").and_then(Json::as_str) == Some("up")
            && member_u64(&state, "fenced") == Some(0)
        {
            let new_epoch = member_u64(&state, "epoch").expect("epoch field");
            assert!(
                new_epoch > old_epoch,
                "a re-join must carry a strictly higher epoch ({new_epoch} vs {old_epoch})"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    // New sessions land on the re-joined shard again, and its restarted
    // id counter never re-issues the migrated session's id.
    let mut hit = false;
    for _ in 0..200 {
        let (shard, mut client) = route_and_dial(router, None);
        let fresh = client.hello(&Hello::new(2)).expect("hello post-rejoin");
        assert_ne!(
            fresh, session,
            "a restarted shard must not re-issue a migrated session's id"
        );
        let placed = shard as usize == victim_shard;
        if placed {
            send_range(&mut client, &all);
        }
        let report = client.finish().expect("finish post-rejoin");
        if placed {
            assert!(report.complete);
            hit = true;
            break;
        }
    }
    assert!(hit, "the re-joined shard must receive new sessions");

    // The migrated session stays put on the survivor and resumes there.
    let mut routed = Client::connect_tcp(router).expect("connect router");
    let (shard, addr) = routed.route(Some(session)).expect("resolve migrated");
    assert_ne!(
        shard as usize, victim_shard,
        "a migrated session must not snap back to its re-joined home"
    );
    let mut client = Client::connect_tcp(addr.as_str()).expect("dial survivor");
    let acked = client.resume(session).expect("resume on survivor");
    assert_eq!(acked, 4, "survivor acked exactly the flushed prefix");
    send_range(&mut client, &all[acked as usize..]);
    assert!(client.finish().expect("finish resumed").complete);

    handle.shutdown();
    let summary = join.join().expect("router join");
    assert!(summary.fleet.shards_fenced >= 1);
    assert!(summary.fleet.shards_rejoined >= 1);
    assert!(summary.fleet.leases_granted >= 2);
    for shard in procs {
        shard.kill();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// A restarted router recovers its durable manifest: the very first
/// `ROUTE` on the new process answers from the replayed placement map
/// (no probe sweeps, no re-migration), and the epoch counter never
/// regresses.
#[test]
fn restarted_router_recovers_manifest_without_rehoming() {
    let root = temp_root("router-restart");
    let mut config = test_fleet_config(&root);
    config.router_data_dir = Some(root.join("router-manifest"));
    let mut procs: Vec<Shard> = (0..2).map(|k| spawn_shard(&root, k)).collect();
    let specs: Vec<ShardSpec> = procs
        .iter()
        .map(|s| ShardSpec {
            id: s.id,
            addr: s.addr.to_string(),
        })
        .collect();
    let (router, handle, join) = spawn_router_over(specs.clone(), config.clone());
    let all = ops();

    // Control run; remember which shard completed it so the victim can
    // be placed elsewhere (the dead shard's subroot must hold only the
    // victim session, or "no spurious migration" is unobservable).
    let (control_shard, expected) = {
        let (shard, mut client) = route_and_dial(router, None);
        client.hello(&Hello::new(2)).expect("hello control");
        send_range(&mut client, &all);
        (shard as usize, client.finish().expect("finish control"))
    };

    // Victim run on the other shard: flushed prefix, then the client
    // disappears.
    let (victim_shard, session) = loop {
        let (shard, mut client) = route_and_dial(router, None);
        let session = client.hello(&Hello::new(2)).expect("hello victim");
        if shard as usize == control_shard {
            let _ = client.finish();
            continue;
        }
        send_range(&mut client, &all[..4]);
        client.flush_sync().expect("flush");
        break (shard as usize, session);
    };

    // Kill the victim shard and wait for router #1 to migrate.
    let pos = procs
        .iter()
        .position(|s| s.id == victim_shard)
        .expect("victim exists");
    procs.remove(pos).kill();
    let deadline = Instant::now() + Duration::from_secs(20);
    let (survivor_shard, survivor_addr) = loop {
        assert!(Instant::now() < deadline, "router #1 never migrated");
        let mut routed = Client::connect_tcp(router).expect("connect router");
        match routed.route(Some(session)) {
            Ok((shard, addr)) if shard as usize != victim_shard => break (shard as usize, addr),
            _ => std::thread::sleep(Duration::from_millis(25)),
        }
    };
    let epoch_before = stat_u64(&router_stats(router), "fencing_epoch").unwrap_or(0);
    assert!(epoch_before >= 1, "router #1 must have granted leases");
    handle.shutdown();
    let _ = join.join().expect("router #1 join");

    // Router #2: same manifest dir, same fleet, a different port. Its
    // *first* ROUTE must answer from the recovered manifest — if the
    // placement map were rebuilt by waiting for probes, the session
    // would re-home to its (dead) birth shard first.
    let (router2, handle2, join2) = spawn_router_over(specs, config);
    let mut routed = Client::connect_tcp(router2).expect("connect router #2");
    let (shard, addr) = routed
        .route(Some(session))
        .expect("route on the restarted router");
    assert_eq!(
        shard as usize, survivor_shard,
        "the restarted router must remember the migration"
    );
    assert_eq!(addr, survivor_addr);

    // The resumed run is still exact.
    let mut client = Client::connect_tcp(addr.as_str()).expect("dial survivor");
    let acked = client.resume(session).expect("resume after router restart");
    assert_eq!(acked, 4);
    send_range(&mut client, &all[acked as usize..]);
    let report = client.finish().expect("finish resumed");
    assert!(report.complete);
    assert_eq!(report.events, expected.events);
    assert_eq!(report.cuts, expected.cuts, "restart run == control");

    // No spurious migration, and the epoch counter only moved forward.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "router #2 never re-fenced");
        let lines = router_stats(router2);
        assert_eq!(
            stat_u64(&lines, "sessions_migrated").unwrap_or(0),
            0,
            "a restarted router must not re-migrate already-migrated sessions"
        );
        assert!(stat_u64(&lines, "fencing_epoch").unwrap_or(0) >= epoch_before);
        // Keep asserting until the dead shard is re-fenced by router #2:
        // that is the moment a buggy recovery would have re-migrated.
        if stat_u64(&lines, "shards_fenced").unwrap_or(0) >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    handle2.shutdown();
    let summary = join2.join().expect("router #2 join");
    assert_eq!(summary.fleet.sessions_migrated, 0);
    for shard in procs {
        shard.kill();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Seeded link chaos between client and daemon: injected disconnects
/// and byte-fragmented writes must not change the final report, because
/// every retry resumes from the synchronously acked prefix.
#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use paramount_ingest::{send_trace_with_retry, ChaosProxy, LinkFaults, RetryPolicy};
    use paramount_trace::textfmt::parse_trace;

    /// A two-thread trace big enough (~5.5 KiB on the wire) that every
    /// possible cut budget (at most 4 KiB + 64 B of client bytes) fires
    /// before the trace finishes.
    fn big_trace() -> String {
        let mut text = String::from("threads 2\n");
        for _ in 0..250 {
            text.push_str("0 write x\n");
            text.push_str("1 write y\n");
        }
        text
    }

    #[test]
    fn chaotic_link_yields_the_control_report() {
        let root = temp_root("chaos");
        let shard = spawn_shard(&root, 0);
        let trace = parse_trace(&big_trace()).expect("parse");
        let hello = Hello::new(2);

        // Control: a clean link.
        let policy = RetryPolicy::new(1, Duration::from_millis(1));
        let (expected, _, _) =
            send_trace_with_retry(|_| Client::connect_tcp(shard.addr), &hello, &trace, policy)
                .expect("control send");

        // Chaos: cut every connection after a seed-derived byte budget
        // and fragment every forwarded write, with a fixed seed so a
        // failure replays bit-for-bit. Each retry RESUMEs and re-sends
        // only the unacked tail, so the send ratchets forward through
        // the cuts.
        let faults = LinkFaults {
            seed: 0xfee1_dead,
            disconnect_every: Some(1),
            chunk_bytes: 7,
            delay_per_chunk: Duration::from_micros(10),
        };
        let proxy = ChaosProxy::spawn(shard.addr, faults).expect("proxy");
        let policy = RetryPolicy::new(16, Duration::from_millis(1)).with_checkpoint_every(8);
        let (report, _, attempts) = send_trace_with_retry(
            |_| Client::connect_tcp(proxy.addr()),
            &hello,
            &trace,
            policy,
        )
        .expect("chaotic send");

        assert!(attempts > 1, "the chaos plan must actually bite");
        assert!(proxy.connections() > 1);
        assert_eq!(report.events, expected.events);
        assert_eq!(report.cuts, expected.cuts, "chaos cuts == control cuts");

        proxy.stop();
        shard.kill();
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The partition drill, distinct from a crash: one of three shards
    /// is cut off from the router while its daemon stays alive. The
    /// shard must self-fence *before* the router re-homes its session,
    /// the partitioned daemon must refuse admissions and writes (no
    /// dual-serving), and the resumed run's counts must equal the
    /// unpartitioned control's exactly.
    #[test]
    fn partitioned_shard_fences_before_failover_and_counts_stay_exact() {
        let root = temp_root("partition");
        // Every shard sits behind a transparent proxy; "partition" is
        // stopping the victim's proxy, which cuts the router's probes
        // without touching the daemon itself.
        let shards: Vec<Shard> = (0..3).map(|k| spawn_shard(&root, k)).collect();
        let mut proxies: Vec<Option<ChaosProxy>> = shards
            .iter()
            .map(|s| Some(ChaosProxy::spawn(s.addr, LinkFaults::default()).expect("proxy")))
            .collect();
        let specs: Vec<ShardSpec> = shards
            .iter()
            .zip(&proxies)
            .map(|(s, p)| ShardSpec {
                id: s.id,
                addr: p.as_ref().expect("live proxy").addr().to_string(),
            })
            .collect();
        let mut config = test_fleet_config(&root);
        // A wider probe interval widens the fence margin, so the gap
        // between shard self-fence and router failover survives a busy
        // CI machine.
        config.probe_interval = Duration::from_millis(100);
        config.lease_ttl = Duration::from_millis(400);
        let (router, handle, join) = spawn_router_over(specs, config);
        let all = ops();

        // Unpartitioned control through the same fleet.
        let expected = {
            let (_, mut client) = route_and_dial(router, None);
            client.hello(&Hello::new(2)).expect("hello control");
            send_range(&mut client, &all);
            client.finish().expect("finish control")
        };

        // Victim session: a flushed prefix of four ops, client parked.
        let (victim_shard, session) = {
            let (shard, mut client) = route_and_dial(router, None);
            let session = client.hello(&Hello::new(2)).expect("hello victim");
            send_range(&mut client, &all[..4]);
            client.flush_sync().expect("flush");
            (shard as usize, session)
        };
        let victim = shards
            .iter()
            .find(|s| s.id == victim_shard)
            .expect("victim exists");
        // A client that reaches the victim directly, from the shard's
        // side of the partition: the fence, not the partition, must be
        // what stops it from advancing the session.
        let mut insider = Client::connect_tcp(victim.addr).expect("dial victim directly");
        assert_eq!(insider.resume(session).expect("insider resume"), 4);

        // Partition the victim.
        let pos = shards
            .iter()
            .position(|s| s.id == victim_shard)
            .expect("victim index");
        proxies[pos].take().expect("live proxy").stop();

        // The router must not release the session until the victim has
        // provably self-fenced: check the guard *before* each ROUTE, so
        // observing the migration proves the fence preceded it.
        let deadline = Instant::now() + Duration::from_secs(20);
        let new_addr = loop {
            assert!(Instant::now() < deadline, "router never failed over");
            let fenced_before_probe = victim.fence.is_fenced();
            let mut routed = Client::connect_tcp(router).expect("connect router");
            match routed.route(Some(session)) {
                Ok((shard, addr)) if shard as usize != victim_shard => {
                    assert!(
                        fenced_before_probe,
                        "session re-homed before the partitioned owner fenced"
                    );
                    break addr;
                }
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        };

        // No dual-serving: the partitioned-but-alive daemon refuses new
        // admissions and resumes, and the insider connection can no
        // longer advance the session.
        let mut direct = Client::connect_tcp(victim.addr).expect("victim daemon is alive");
        match direct.hello(&Hello::new(2)) {
            Err(paramount_ingest::ClientError::Rejected(e)) => {
                assert_eq!(e.code, paramount_ingest::ErrCode::Busy, "fenced HELLO: {e}")
            }
            other => panic!("fenced shard must refuse HELLO, got {other:?}"),
        }
        let mut direct = Client::connect_tcp(victim.addr).expect("victim daemon is alive");
        assert!(
            direct.resume(session).is_err(),
            "fenced shard must refuse RESUME"
        );
        let stalled = insider
            .event(0, &WireOp::Write("x".into()))
            .map_err(paramount_ingest::ClientError::from)
            .and_then(|_| insider.flush_sync().map(|_| ()));
        assert!(
            stalled.is_err(),
            "the fence must cut clients on the shard's side of the partition"
        );

        // The survivor resumes exactly the flushed prefix, and the
        // finished run equals the control bit-for-bit.
        let mut client = Client::connect_tcp(new_addr.as_str()).expect("dial survivor");
        let acked = client.resume(session).expect("resume on survivor");
        assert_eq!(acked, 4, "survivor acked exactly the flushed prefix");
        send_range(&mut client, &all[acked as usize..]);
        let report = client.finish().expect("finish resumed");
        assert!(report.complete);
        assert_eq!(report.events, expected.events);
        assert_eq!(
            report.cuts, expected.cuts,
            "partitioned failover == control"
        );

        // The router accounted the fence.
        let lines = router_stats(router);
        assert!(stat_u64(&lines, "shards_fenced").unwrap_or(0) >= 1);
        assert!(stat_u64(&lines, "lease_expiries").unwrap_or(0) >= 1);
        assert!(stat_u64(&lines, "fencing_epoch").unwrap_or(0) >= 1);

        handle.shutdown();
        let summary = join.join().expect("router join");
        assert!(summary.fleet.shards_fenced >= 1);
        for proxy in proxies.into_iter().flatten() {
            proxy.stop();
        }
        for shard in shards {
            shard.kill();
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
