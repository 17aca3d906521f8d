//! Networked subcommands: `paramount serve`, `paramount send`, and
//! `paramount stats --connect` — thin, testable glue between argv and
//! [`paramount_ingest`].

use paramount::Algorithm;
use paramount_ingest::{
    fleet, send_trace_with_retry, Client, EndReason, FleetConfig, FleetRouter, Hello, ProtoPref,
    ServeSummary, Server, ServerConfig, SessionReport, ShardSpec,
};
use paramount_trace::textfmt::TraceFile;
use std::fmt::Write as _;
use std::io::BufRead as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Where a client-side command connects.
#[derive(Clone, Debug)]
pub enum Target {
    /// `--connect HOST:PORT`.
    Tcp(String),
    /// `--unix PATH`.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Target {
    fn connect_io(&self) -> std::io::Result<Client> {
        match self {
            Target::Tcp(addr) => Client::connect_tcp(addr.as_str()),
            #[cfg(unix)]
            Target::Unix(path) => Client::connect_unix(path),
        }
    }

    fn connect(&self) -> Result<Client, String> {
        self.connect_io()
            .map_err(|e| format!("cannot connect to {self}: {e}"))
    }
}

impl std::fmt::Display for Target {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Target::Tcp(addr) => write!(f, "{addr}"),
            #[cfg(unix)]
            Target::Unix(path) => write!(f, "{}", path.display()),
        }
    }
}

/// Everything `paramount serve` accepts from argv.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// TCP endpoints to bind (`--listen`, repeatable).
    pub listen: Vec<String>,
    /// Unix-socket endpoints to bind (`--unix`, repeatable).
    pub unix: Vec<PathBuf>,
    /// Default bounded subroutine for sessions that don't pick one.
    pub algorithm: Algorithm,
    /// Default per-session enumeration workers (0 = engine default).
    pub workers: usize,
    /// Concurrent-session cap.
    pub max_sessions: u64,
    /// Per-session event cap.
    pub max_events: u64,
    /// Per-session idle timeout in seconds.
    pub idle_timeout_secs: u64,
    /// Per-session idle timeout in milliseconds (`--idle-timeout-ms`;
    /// overrides `idle_timeout_secs` when set).
    pub idle_timeout_ms: Option<u64>,
    /// Per-session write timeout in milliseconds (`--write-timeout-ms`).
    pub write_timeout_ms: Option<u64>,
    /// Soft spill-byte watermark (`--soft-spill-bytes`): past it,
    /// sessions block producers instead of spilling.
    pub soft_spill_bytes: Option<usize>,
    /// Hard spill-byte watermark (`--hard-spill-bytes`): past it, new
    /// `HELLO`s are rejected `ERR busy` and overflowing work fails fast.
    pub hard_spill_bytes: Option<usize>,
    /// Per-interval watchdog deadline in ms (`--interval-deadline-ms`).
    pub interval_deadline_ms: Option<u64>,
    /// `retry-after-ms` hint sent with `ERR busy` (`--busy-retry-ms`).
    pub busy_retry_ms: Option<u64>,
    /// Durable session store root (`--data-dir`): per-session WAL +
    /// checkpoints, crash recovery on boot, `RESUME` support, and
    /// disk-backed interval spill.
    pub data_dir: Option<PathBuf>,
    /// Accepted events between checkpoint records — the quarantine
    /// ledger and tally made durable (`--checkpoint-events`).
    pub checkpoint_events: Option<u64>,
    /// WAL fsync policy (`--fsync always|ondemand|never`).
    pub fsync: Option<String>,
    /// Disk-spill byte cap (`--disk-spill-bytes`); only meaningful with
    /// `--data-dir`.
    pub disk_spill_bytes: Option<usize>,
    /// Lowest session id handed out (`--first-session-id`); fleet
    /// shards get ids whose high 32 bits encode the shard index.
    pub first_session_id: Option<u64>,
    /// Highest wire protocol version offered to clients (`--proto-max`);
    /// `1` pins the daemon to the text protocol for mixed-version fleets.
    pub proto_max: Option<u8>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: Vec::new(),
            unix: Vec::new(),
            algorithm: Algorithm::Lexical,
            workers: 0,
            max_sessions: ServerConfig::default().max_sessions,
            max_events: paramount_ingest::SessionLimits::default().max_events,
            idle_timeout_secs: 30,
            idle_timeout_ms: None,
            write_timeout_ms: None,
            soft_spill_bytes: None,
            hard_spill_bytes: None,
            interval_deadline_ms: None,
            busy_retry_ms: None,
            data_dir: None,
            checkpoint_events: None,
            fsync: None,
            disk_spill_bytes: None,
            first_session_id: None,
            proto_max: None,
        }
    }
}

/// Builds and binds the daemon from options; returns it plus the bound
/// TCP addresses (resolved, so `--listen 127.0.0.1:0` is reportable).
pub fn build_server(opts: &ServeOptions) -> Result<(Server, Vec<SocketAddr>), String> {
    let mut config = ServerConfig::default();
    config.session.engine.algorithm = opts.algorithm;
    if opts.workers > 0 {
        config.session.engine.workers = opts.workers;
    }
    config.max_sessions = opts.max_sessions;
    config.session.limits.max_events = opts.max_events;
    config.session.limits.idle_timeout = match opts.idle_timeout_ms {
        Some(ms) => std::time::Duration::from_millis(ms),
        None => std::time::Duration::from_secs(opts.idle_timeout_secs),
    };
    if let Some(ms) = opts.write_timeout_ms {
        config.session.limits.write_timeout = std::time::Duration::from_millis(ms);
    }
    config.governor.soft_spill_bytes = opts.soft_spill_bytes;
    config.governor.hard_spill_bytes = opts.hard_spill_bytes;
    config.governor.interval_deadline = opts
        .interval_deadline_ms
        .map(std::time::Duration::from_millis);
    if let Some(ms) = opts.busy_retry_ms {
        config.busy_retry_after_ms = ms;
    }
    config.data_dir = opts.data_dir.clone();
    if let Some(every) = opts.checkpoint_events {
        config.checkpoint_every_events = every;
    }
    if let Some(name) = &opts.fsync {
        config.fsync = paramount_durable::FsyncPolicy::parse(name)
            .ok_or_else(|| format!("unknown --fsync policy `{name}` (always|ondemand|never)"))?;
    }
    config.governor.disk_spill_bytes = opts.disk_spill_bytes;
    if let Some(first) = opts.first_session_id {
        config.first_session_id = first;
    }
    if let Some(max) = opts.proto_max {
        config.proto_max = max;
    }
    let mut server = Server::new(config);
    for addr in &opts.listen {
        server
            .bind_tcp(addr.as_str())
            .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    }
    for path in &opts.unix {
        #[cfg(unix)]
        server
            .bind_unix(path)
            .map_err(|e| format!("cannot listen on {}: {e}", path.display()))?;
        #[cfg(not(unix))]
        return Err(format!(
            "--unix {} is not supported on this platform",
            path.display()
        ));
    }
    let addrs = server.tcp_addrs();
    Ok((server, addrs))
}

/// One human-readable line per finished session.
pub fn session_line(report: &SessionReport) -> String {
    format!(
        "session {}{}: {} events, {} consistent global states (reason {}{})",
        report.id,
        report
            .label
            .as_deref()
            .map(|l| format!(" [{l}]"))
            .unwrap_or_default(),
        report.events,
        report.cuts,
        report.reason,
        if report.complete { "" } else { ", INCOMPLETE" },
    )
}

/// Runs the daemon until shutdown (SIGINT or a `SHUTDOWN` frame),
/// printing each session's final report as it lands, and returns the
/// drain summary text.
pub fn run_daemon(server: Server, quiet: bool) -> Result<String, String> {
    let summary = server
        .run(move |report| {
            if !quiet {
                println!("{}", session_line(report));
            }
        })
        .map_err(|e| format!("serve failed: {e}"))?;
    Ok(summary_text(&summary))
}

/// The end-of-run summary: totals plus the daemon-wide ingest counters.
pub fn summary_text(summary: &ServeSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "served {} sessions ({} clean, {} aborted)",
        summary.reports.len(),
        summary
            .reports
            .iter()
            .filter(|r| r.reason == EndReason::End)
            .count(),
        summary
            .reports
            .iter()
            .filter(|r| r.reason != EndReason::End)
            .count(),
    );
    out.push_str(&summary.ingest.render_text());
    out
}

/// `paramount send`: stream a parsed trace into a daemon and report the
/// daemon's final count in the same shape as `paramount count`.
///
/// `retries` extra attempts reconnect and replay the whole session with
/// exponential backoff starting at `backoff_ms` (see
/// [`paramount_ingest::RetryPolicy`]); on exhaustion the error names the
/// server-acknowledged partial prefix. `checkpoint_every` overrides the
/// events-per-`FLUSH` checkpoint cadence (must be non-zero; validated by
/// the argv layer).
///
/// With `fleet: true` the target is a fleet *router*: every attempt
/// first sends `ROUTE` (with the session id once one exists) and then
/// dials the shard the router names — so a retry lands on the surviving
/// shard a migrated session was re-homed to, not the dead one.
#[allow(clippy::too_many_arguments)]
pub fn send(
    trace: &TraceFile,
    target: &Target,
    algorithm: Option<Algorithm>,
    workers: Option<usize>,
    label: Option<String>,
    capture_sync: bool,
    retries: u32,
    backoff_ms: u64,
    checkpoint_every: Option<u64>,
    fleet: bool,
    proto: ProtoPref,
) -> Result<String, String> {
    let hello = Hello {
        threads: trace.threads,
        algorithm,
        workers,
        capture_sync,
        label,
        proto: 1, // placeholder; negotiation stamps the offered version
    };
    let mut policy = paramount_ingest::RetryPolicy::new(
        retries.saturating_add(1),
        std::time::Duration::from_millis(backoff_ms),
    );
    if let Some(events) = checkpoint_every {
        policy = policy.with_checkpoint_every(events);
    }
    let result = if fleet {
        send_trace_with_retry(
            |session| {
                let mut client = fleet_connect(target, session)?;
                client.set_proto_pref(proto);
                Ok(client)
            },
            &hello,
            trace,
            policy,
        )
    } else {
        // Re-resolve the target on every attempt (fresh lookup, fresh
        // socket) rather than caching an address across retries.
        send_trace_with_retry(
            |_| {
                let mut client = target.connect_io()?;
                client.set_proto_pref(proto);
                Ok(client)
            },
            &hello,
            trace,
            policy,
        )
    };
    let (report, session, attempts) =
        result.map_err(|e| format!("cannot send to {target}: {e}"))?;
    Ok(format!(
        "{} events, {} consistent global states (session {session}, reason {}{}{})\n",
        report.events,
        report.cuts,
        report.reason,
        if report.complete { "" } else { ", INCOMPLETE" },
        if attempts > 1 {
            format!(", {attempts} attempts")
        } else {
            String::new()
        },
    ))
}

/// `paramount stats --connect`: scrape a live daemon's ingest counters
/// (JSON lines, same shape as `--json`).
pub fn remote_stats(target: &Target) -> Result<String, String> {
    let mut client = target.connect()?;
    let lines = client.stats().map_err(|e| e.to_string())?;
    let mut out = String::new();
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    Ok(out)
}

/// `paramount shutdown`-style admin: ask a daemon to drain and exit.
pub fn remote_shutdown(target: &Target) -> Result<String, String> {
    let client = target.connect()?;
    client.request_shutdown().map_err(|e| e.to_string())?;
    Ok("daemon draining\n".to_string())
}

/// One `ROUTE`-then-dial connection through a fleet router. A routing
/// failure keeps the original [`paramount_ingest::ClientError`] as the io error's
/// source, so the retry loop can read `ERR busy retry-after-ms` hints
/// off a `ROUTE` rejection exactly as it does off a direct `HELLO`.
pub fn fleet_connect(router: &Target, session: Option<u64>) -> std::io::Result<Client> {
    let mut routed = router.connect_io()?;
    let (_, addr) = routed.route(session).map_err(|e| match e {
        paramount_ingest::ClientError::Io(io) => io,
        rejection => std::io::Error::other(rejection),
    })?;
    Client::connect_tcp(addr.as_str())
}

/// Everything `paramount fleet` accepts from argv.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Router TCP endpoint (`--listen`).
    pub listen: String,
    /// Spawn mode: number of `paramount serve` child shards (`--shards`).
    pub shards: usize,
    /// Shared durable root (`--data-dir`); shard `k` serves
    /// `<root>/shard-<k>`. Required in spawn mode; enables migration in
    /// attach mode when the manifest shards share it.
    pub data_root: Option<PathBuf>,
    /// Attach mode: a shard manifest (`--manifest`), one
    /// `shard <id> <addr>` per line, instead of spawning children.
    pub manifest: Option<PathBuf>,
    /// Milliseconds between health-probe sweeps (`--probe-interval-ms`).
    pub probe_interval_ms: Option<u64>,
    /// Per-probe deadline in milliseconds (`--probe-deadline-ms`).
    pub probe_deadline_ms: Option<u64>,
    /// Consecutive probe failures before `Suspect` (`--suspect-after`).
    pub suspect_after: Option<u32>,
    /// Consecutive probe failures before `Down` + migration
    /// (`--down-after`).
    pub down_after: Option<u32>,
    /// Shard lease TTL in milliseconds (`--lease-ttl-ms`); the fencing
    /// window for partition-safe failover.
    pub lease_ttl_ms: Option<u64>,
    /// Directory for the router's durable manifest
    /// (`--router-data-dir`): epoch grants and the placement map
    /// survive a router restart.
    pub router_data_dir: Option<PathBuf>,
    /// Extra argv forwarded verbatim to every spawned shard (engine and
    /// durability flags of `paramount serve`).
    pub serve_args: Vec<String>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            listen: "127.0.0.1:7667".to_string(),
            shards: 0,
            data_root: None,
            manifest: None,
            probe_interval_ms: None,
            probe_deadline_ms: None,
            suspect_after: None,
            down_after: None,
            lease_ttl_ms: None,
            router_data_dir: None,
            serve_args: Vec::new(),
        }
    }
}

/// A spawned shard child process.
pub struct ShardProc {
    /// Shard index (high 32 bits of its session ids).
    pub id: usize,
    /// OS process id (tests `kill -9` this).
    pub pid: u32,
    /// The shard's bound TCP address, parsed from its banner.
    pub addr: String,
    child: std::process::Child,
}

/// Spawns one `paramount serve` shard and waits for its listen banner.
fn spawn_shard(
    exe: &Path,
    shard: usize,
    root: &Path,
    extra: &[String],
) -> Result<ShardProc, String> {
    let subroot = fleet::shard_subroot(root, shard);
    std::fs::create_dir_all(&subroot)
        .map_err(|e| format!("cannot create {}: {e}", subroot.display()))?;
    let mut child = std::process::Command::new(exe)
        .arg("serve")
        .arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--data-dir")
        .arg(&subroot)
        .arg("--first-session-id")
        .arg(fleet::first_session_id(shard).to_string())
        .arg("--quiet")
        .args(extra)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn shard {shard}: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                let _ = child.kill();
                return Err(format!("shard {shard} exited before binding"));
            }
            Ok(_) => {
                if let Some(rest) = line.trim().strip_prefix("listening on tcp ") {
                    break rest.to_string();
                }
            }
            Err(e) => {
                let _ = child.kill();
                return Err(format!("shard {shard} banner read failed: {e}"));
            }
        }
    };
    // Keep draining the child's stdout so it never blocks on a full pipe.
    std::thread::Builder::new()
        .name(format!("paramount-shard-{shard}-drain"))
        .spawn(move || {
            let mut sink = String::new();
            while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        })
        .map_err(|e| format!("cannot spawn drain thread: {e}"))?;
    Ok(ShardProc {
        id: shard,
        pid: child.id(),
        addr,
        child,
    })
}

/// Builds the fleet: spawns (or attaches to) the shards and binds the
/// router. Returns the router, its bound address, and any spawned
/// children (empty in attach mode).
pub fn build_fleet(
    opts: &FleetOptions,
) -> Result<(FleetRouter, SocketAddr, Vec<ShardProc>), String> {
    let (specs, procs): (Vec<ShardSpec>, Vec<ShardProc>) = if let Some(manifest) = &opts.manifest {
        let text = std::fs::read_to_string(manifest)
            .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
        (fleet::parse_manifest(&text)?, Vec::new())
    } else {
        if opts.shards == 0 {
            return Err("fleet: need --shards N (spawn mode) or --manifest FILE".to_string());
        }
        let root = opts
            .data_root
            .as_ref()
            .ok_or_else(|| "fleet: spawn mode requires --data-dir ROOT".to_string())?;
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
        let mut procs = Vec::with_capacity(opts.shards);
        for shard in 0..opts.shards {
            procs.push(spawn_shard(&exe, shard, root, &opts.serve_args)?);
        }
        let specs = procs
            .iter()
            .map(|p| ShardSpec {
                id: p.id,
                addr: p.addr.clone(),
            })
            .collect();
        (specs, procs)
    };
    let mut config = FleetConfig {
        data_root: opts.data_root.clone(),
        ..FleetConfig::default()
    };
    if let Some(ms) = opts.probe_interval_ms {
        config.probe_interval = Duration::from_millis(ms);
    }
    if let Some(ms) = opts.probe_deadline_ms {
        config.probe_deadline = Duration::from_millis(ms);
    }
    if let Some(n) = opts.suspect_after {
        config.suspect_after = n.max(1);
    }
    if let Some(n) = opts.down_after {
        config.down_after = n.max(1);
    }
    if let Some(ms) = opts.lease_ttl_ms {
        config.lease_ttl = Duration::from_millis(ms.max(1));
    }
    if let Some(dir) = &opts.router_data_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create router data dir {}: {e}", dir.display()))?;
    }
    config.router_data_dir = opts.router_data_dir.clone();
    let mut router = FleetRouter::new(specs, config);
    let addr = router
        .bind_tcp(opts.listen.as_str())
        .map_err(|e| format!("cannot listen on {}: {e}", opts.listen))?;
    Ok((router, addr, procs))
}

/// Runs the router until shutdown, then drains spawned shards (polite
/// `SHUTDOWN` frame, `kill` after a grace period) and reports the final
/// fleet metrics.
pub fn run_fleet(router: FleetRouter, procs: Vec<ShardProc>) -> Result<String, String> {
    let summary = router.run().map_err(|e| format!("fleet failed: {e}"))?;
    let mut out = String::new();
    for mut proc in procs {
        if let Ok(client) = Client::connect_tcp(proc.addr.as_str()) {
            let _ = client.request_shutdown();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match proc.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                _ => {
                    let _ = proc.child.kill();
                    let _ = proc.child.wait();
                    let _ = writeln!(out, "shard {} did not drain; killed", proc.id);
                    break;
                }
            }
        }
    }
    out.push_str(&summary.fleet.render_text());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{parse_trace, trace_of_program, write_trace};
    use paramount_workloads::banking;

    /// The full CLI path end to end: build+run a daemon on an ephemeral
    /// port, `send` the banking trace, and check the count line matches
    /// what the offline `count` command computes for the same trace.
    #[test]
    fn send_matches_offline_count() {
        let opts = ServeOptions {
            listen: vec!["127.0.0.1:0".to_string()],
            ..ServeOptions::default()
        };
        let (server, addrs) = build_server(&opts).expect("bind");
        let handle = server.handle();
        let daemon = std::thread::spawn(move || server.run(|_| {}).expect("run"));

        let text = write_trace(&trace_of_program(
            &banking::program(&banking::Params::default()),
            3,
        ));
        let trace = parse_trace(&text).expect("parse");
        let offline = crate::commands::count(&trace, Algorithm::Lexical, 2).expect("count");
        let streamed = send(
            &trace,
            &Target::Tcp(addrs[0].to_string()),
            None,
            None,
            Some("cli-test".to_string()),
            false,
            0,
            200,
            None,
            false,
            ProtoPref::Auto,
        )
        .expect("send");

        let states = |s: &str| -> u64 {
            s.split(" consistent global states").next().unwrap()[..]
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(
            states(&streamed),
            states(&offline),
            "send: {streamed} vs count: {offline}"
        );
        assert!(streamed.contains("reason end"), "{streamed}");

        let stats = remote_stats(&Target::Tcp(addrs[0].to_string())).expect("stats");
        assert!(stats.contains("\"sessions_opened\""), "{stats}");

        handle.shutdown();
        daemon.join().expect("daemon");
    }

    /// `send --retries`: the daemon's front door drops the first
    /// connection cold; the retry replays the whole session and the
    /// reported count still matches the offline oracle.
    #[test]
    fn send_retries_through_a_dropped_first_connection() {
        use std::net::{TcpListener, TcpStream};

        let opts = ServeOptions {
            listen: vec!["127.0.0.1:0".to_string()],
            ..ServeOptions::default()
        };
        let (server, addrs) = build_server(&opts).expect("bind");
        let upstream = addrs[0];
        let handle = server.handle();
        let daemon = std::thread::spawn(move || server.run(|_| {}).expect("run"));

        // A flaky front door: connection 1 is dropped on sight,
        // connection 2 is proxied byte-for-byte to the real daemon.
        let door = TcpListener::bind("127.0.0.1:0").expect("bind door");
        let door_addr = door.local_addr().unwrap();
        let proxy = std::thread::spawn(move || {
            let (first, _) = door.accept().expect("accept doomed");
            drop(first);
            let (client_side, _) = door.accept().expect("accept retry");
            let server_side = TcpStream::connect(upstream).expect("dial upstream");
            let mut c2s_src = client_side.try_clone().expect("clone");
            let mut c2s_dst = server_side.try_clone().expect("clone");
            let uplink = std::thread::spawn(move || {
                let _ = std::io::copy(&mut c2s_src, &mut c2s_dst);
                let _ = c2s_dst.shutdown(std::net::Shutdown::Write);
            });
            let (mut s2c_src, mut s2c_dst) = (server_side, client_side);
            let _ = std::io::copy(&mut s2c_src, &mut s2c_dst);
            uplink.join().expect("uplink");
        });

        let text = write_trace(&trace_of_program(
            &banking::program(&banking::Params::default()),
            3,
        ));
        let trace = parse_trace(&text).expect("parse");
        let offline = crate::commands::count(&trace, Algorithm::Lexical, 2).expect("count");
        let streamed = send(
            &trace,
            &Target::Tcp(door_addr.to_string()),
            None,
            None,
            None,
            false,
            2,
            1,
            None,
            false,
            ProtoPref::Auto,
        )
        .expect("retry must recover");

        assert!(streamed.contains("2 attempts"), "{streamed}");
        let states = |s: &str| -> u64 {
            s.split(" consistent global states").next().unwrap()[..]
                .rsplit(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(states(&streamed), states(&offline));

        proxy.join().expect("proxy");
        handle.shutdown();
        daemon.join().expect("daemon");
    }

    /// Every connection dies: the send exhausts its attempts and the
    /// error surfaces the acknowledged partial prefix (the CLI maps this
    /// to a nonzero exit).
    #[test]
    fn send_exhausting_retries_reports_partial_prefix() {
        use std::net::TcpListener;
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let dropper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    drop(stream);
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                }
            })
        };

        let trace = parse_trace("threads 1\n0 write x\n").expect("parse");
        let err = send(
            &trace,
            &Target::Tcp(addr.to_string()),
            None,
            None,
            None,
            false,
            2,
            1,
            None,
            false,
            ProtoPref::Auto,
        )
        .expect_err("every attempt is dropped");
        assert!(err.contains("after 3 attempts"), "{err}");
        assert!(err.contains("partial prefix"), "{err}");

        stop.store(true, Ordering::SeqCst);
        let _ = std::net::TcpStream::connect(addr); // unblock the accept loop
        dropper.join().expect("dropper");
    }

    #[test]
    fn summary_text_counts_outcomes() {
        let opts = ServeOptions {
            listen: vec!["127.0.0.1:0".to_string()],
            ..ServeOptions::default()
        };
        let (server, addrs) = build_server(&opts).expect("bind");
        let daemon = {
            let handle = server.handle();
            let join = std::thread::spawn(move || run_daemon(server, true).expect("run"));
            let trace = parse_trace("threads 1\n0 write x\n").expect("parse");
            send(
                &trace,
                &Target::Tcp(addrs[0].to_string()),
                None,
                None,
                None,
                false,
                0,
                200,
                None,
                false,
                ProtoPref::Auto,
            )
            .expect("send");
            handle.shutdown();
            join
        };
        let summary = daemon.join().expect("daemon");
        assert!(
            summary.contains("served 1 sessions (1 clean, 0 aborted)"),
            "{summary}"
        );
        assert!(summary.contains("sessions opened"), "{summary}");
    }
}
