//! `paramount` — enumerate global states and detect predicates over
//! recorded traces. Run `paramount help` for usage.

use paramount::Algorithm;
use paramount_cli::net::{self, ServeOptions, Target};
use paramount_cli::{commands, format};
use std::process::ExitCode;

const USAGE: &str = "\
paramount — global-states enumeration & predicate detection (PPoPP'15 ParaMount)

USAGE:
  paramount count <trace>      [--algo lexical|bfs|dfs|leveled|auto] [--threads N]
  paramount stats <trace>      [--algo lexical|bfs|dfs|leveled|auto] [--threads N] [--json]
  paramount stats --connect HOST:PORT | --unix PATH    (scrape a live daemon)
  paramount enumerate <trace>  [--limit K]
  paramount races <trace>      [--strict]
  paramount possibly <trace>   --state a,b,c [--definitely]
  paramount info <trace>
  paramount gen <workload>     [--seed S]        (writes a trace to stdout)
  paramount serve              [--listen ADDR]... [--unix PATH]...
                               [--algo A] [--workers K] [--max-sessions N]
                               [--max-events N] [--idle-timeout SECS] [--quiet]
                               [--idle-timeout-ms MS] [--write-timeout-ms MS]
                               [--soft-spill-bytes N] [--hard-spill-bytes N]
                               [--interval-deadline-ms MS] [--busy-retry-ms MS]
                               [--data-dir DIR]   (durable sessions: WAL, RESUME)
                               [--checkpoint-events N]   (how often the quarantine
                                   ledger and tally are made durable; events replay
                                   from the WAL itself)
                               [--fsync always|ondemand|never] [--disk-spill-bytes N]
                               [--first-session-id N] [--proto-max 1|2]
  paramount fleet              [--listen ADDR]
                               --shards N --data-dir ROOT    (spawn N shard daemons)
                               | --manifest FILE             (attach: `shard <id> <addr>` lines)
                               [--probe-interval-ms MS] [--probe-deadline-ms MS]
                               [--suspect-after N] [--down-after N]
                               [--lease-ttl-ms MS]   (shard fencing lease TTL)
                               [--router-data-dir DIR]   (durable router manifest)
                               [+ serve engine/durability flags, forwarded to shards]
  paramount send <trace>       --connect HOST:PORT | --unix PATH
                               [--algo A] [--workers K] [--label L] [--capture-sync]
                               [--retries N] [--backoff-ms MS]   (reconnect & replay)
                               [--checkpoint-every EVENTS]
                               [--proto 1|2|auto]   (wire framing; auto falls back to text)
                               [--fleet]   (--connect names a fleet router; ROUTE first)
  paramount shutdown           --connect HOST:PORT | --unix PATH
  paramount list-algorithms    (one name per line, for scripting)
  paramount help

EXIT CODES: 0 ok, 1 usage/run error, 2 cannot read input, 3 cannot parse input.

TRACE FORMAT (text, one op per line, observed order):
  threads 3
  0 write balance
  0 fork 1
  1 acquire m
  1 read balance
  1 release m
  0 join 1

WORKLOADS for `gen`: banking, set-faulty, set-correct, arraylist1,
arraylist2, sor, elevator, tsp, raytracer, hedc
";

/// Failure classes, each with its own exit code so scripts can tell a
/// missing file (2) from a malformed trace (3) from everything else (1).
enum CliError {
    Usage(String),
    Io(String),
    Parse(String),
    Run(String),
}

impl CliError {
    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Parse(m) | CliError::Run(m) => m,
        }
    }

    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) | CliError::Run(_) => 1,
            CliError::Io(_) => 2,
            CliError::Parse(_) => 3,
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Run(message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError::Usage(message.to_string())
    }
}

fn parse_algo(args: &[String]) -> Result<Algorithm, String> {
    match flag_value(args, "--algo") {
        None => Ok(Algorithm::Lexical),
        Some(name) => {
            Algorithm::from_name(&name).ok_or_else(|| format!("unknown algorithm `{name}`"))
        }
    }
}

/// Machine-readable algorithm inventory: one name per line, so scripts
/// (e.g. `run_experiments.sh`) enumerate subroutines without hardcoding.
fn list_algorithms() -> String {
    let mut out = String::new();
    for algorithm in Algorithm::ALL {
        out.push_str(algorithm.name());
        out.push('\n');
    }
    out
}

fn parse_threads(args: &[String]) -> Result<usize, String> {
    flag_value(args, "--threads")
        .map(|v| v.parse().map_err(|_| "invalid --threads".to_string()))
        .transpose()
        .map(|t| t.unwrap_or(0))
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// All values of a repeatable flag (`--listen a --listen b`).
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

fn parse_number<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, CliError> {
    flag_value(args, flag)
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::Usage(format!("invalid {flag} value `{v}`")))
        })
        .transpose()
}

/// Reads and parses a trace file, mapping the two failure modes to
/// their exit codes and naming the offending path in both.
fn load_trace(path: &str) -> Result<format::TraceFile, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?;
    format::parse_trace(&text).map_err(|e| CliError::Parse(format!("cannot parse {path}: {e}")))
}

/// `--connect HOST:PORT` or `--unix PATH`, if either is present.
fn parse_target(args: &[String]) -> Result<Option<Target>, CliError> {
    if let Some(addr) = flag_value(args, "--connect") {
        return Ok(Some(Target::Tcp(addr)));
    }
    if let Some(path) = flag_value(args, "--unix") {
        #[cfg(unix)]
        return Ok(Some(Target::Unix(path.into())));
        #[cfg(not(unix))]
        return Err(CliError::Usage(format!(
            "--unix {path} is not supported on this platform"
        )));
    }
    Ok(None)
}

fn require_target(args: &[String], command: &str) -> Result<Target, CliError> {
    parse_target(args)?.ok_or_else(|| {
        CliError::Usage(format!(
            "{command}: missing --connect HOST:PORT (or --unix PATH)"
        ))
    })
}

/// Arranges for SIGINT/SIGTERM to drain the daemon instead of killing
/// the process: the handler only flips a flag; a watcher thread invokes
/// `shutdown` (which finalizes every live session first). Works for both
/// a single server's handle and a fleet router's handle.
#[cfg(unix)]
fn install_signal_drain(shutdown: impl Fn() + Send + 'static) {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        SIGNALED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
    std::thread::Builder::new()
        .name("paramount-signal-drain".to_string())
        .spawn(move || loop {
            if SIGNALED.load(Ordering::SeqCst) {
                eprintln!("draining (signal received) ...");
                shutdown();
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        })
        .expect("spawn signal watcher");
}

#[cfg(not(unix))]
fn install_signal_drain(_shutdown: impl Fn() + Send + 'static) {}

fn serve(args: &[String]) -> Result<String, CliError> {
    let mut opts = ServeOptions {
        listen: flag_values(args, "--listen"),
        unix: flag_values(args, "--unix")
            .into_iter()
            .map(Into::into)
            .collect(),
        algorithm: parse_algo(args)?,
        ..ServeOptions::default()
    };
    if let Some(workers) = parse_number(args, "--workers")? {
        opts.workers = workers;
    }
    if let Some(max_sessions) = parse_number(args, "--max-sessions")? {
        opts.max_sessions = max_sessions;
    }
    if let Some(max_events) = parse_number(args, "--max-events")? {
        opts.max_events = max_events;
    }
    if let Some(secs) = parse_number(args, "--idle-timeout")? {
        opts.idle_timeout_secs = secs;
    }
    opts.idle_timeout_ms = parse_number(args, "--idle-timeout-ms")?;
    opts.write_timeout_ms = parse_number(args, "--write-timeout-ms")?;
    opts.soft_spill_bytes = parse_number(args, "--soft-spill-bytes")?;
    opts.hard_spill_bytes = parse_number(args, "--hard-spill-bytes")?;
    opts.interval_deadline_ms = parse_number(args, "--interval-deadline-ms")?;
    opts.busy_retry_ms = parse_number(args, "--busy-retry-ms")?;
    opts.data_dir = flag_value(args, "--data-dir").map(Into::into);
    opts.checkpoint_events = parse_number(args, "--checkpoint-events")?;
    opts.fsync = flag_value(args, "--fsync");
    opts.disk_spill_bytes = parse_number(args, "--disk-spill-bytes")?;
    opts.first_session_id = parse_number(args, "--first-session-id")?;
    opts.proto_max = parse_number(args, "--proto-max")?;
    if let Some(max) = opts.proto_max {
        if !(1..=2).contains(&max) {
            return Err(CliError::Usage(format!(
                "serve: --proto-max must be 1 or 2, got {max}"
            )));
        }
    }
    if opts.listen.is_empty() && opts.unix.is_empty() {
        opts.listen.push("127.0.0.1:7667".to_string());
    }
    let (server, addrs) = net::build_server(&opts).map_err(CliError::Run)?;
    for addr in &addrs {
        println!("listening on tcp {addr}");
    }
    for path in &opts.unix {
        println!("listening on unix {}", path.display());
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let handle = server.handle();
    install_signal_drain(move || handle.shutdown());
    let quiet = args.iter().any(|a| a == "--quiet");
    net::run_daemon(server, quiet).map_err(CliError::Run)
}

/// Shard-engine flags the `fleet` command forwards verbatim to every
/// spawned `serve` child, so a fleet can be tuned like a single daemon.
const FLEET_FORWARDED_FLAGS: &[&str] = &[
    "--algo",
    "--workers",
    "--max-events",
    "--checkpoint-events",
    "--fsync",
    "--soft-spill-bytes",
    "--hard-spill-bytes",
    "--disk-spill-bytes",
    "--interval-deadline-ms",
    "--busy-retry-ms",
    "--proto-max",
];

fn fleet(args: &[String]) -> Result<String, CliError> {
    let mut opts = net::FleetOptions::default();
    if let Some(listen) = flag_value(args, "--listen") {
        opts.listen = listen;
    }
    if let Some(shards) = parse_number(args, "--shards")? {
        opts.shards = shards;
    }
    opts.data_root = flag_value(args, "--data-dir").map(Into::into);
    opts.manifest = flag_value(args, "--manifest").map(Into::into);
    opts.probe_interval_ms = parse_number(args, "--probe-interval-ms")?;
    opts.probe_deadline_ms = parse_number(args, "--probe-deadline-ms")?;
    opts.suspect_after = parse_number(args, "--suspect-after")?;
    opts.down_after = parse_number(args, "--down-after")?;
    opts.lease_ttl_ms = parse_number(args, "--lease-ttl-ms")?;
    opts.router_data_dir = flag_value(args, "--router-data-dir").map(Into::into);
    for flag in FLEET_FORWARDED_FLAGS {
        if let Some(value) = flag_value(args, flag) {
            opts.serve_args.push((*flag).to_string());
            opts.serve_args.push(value);
        }
    }
    let (router, addr, procs) = net::build_fleet(&opts).map_err(CliError::Run)?;
    for shard in &procs {
        println!(
            "shard {} pid {} listening on tcp {}",
            shard.id, shard.pid, shard.addr
        );
    }
    println!("fleet listening on tcp {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let handle = router.handle();
    install_signal_drain(move || handle.shutdown());
    net::run_fleet(router, procs).map_err(CliError::Run)
}

fn send(args: &[String]) -> Result<String, CliError> {
    let path = args.get(1).ok_or("send: missing trace file")?;
    let trace = load_trace(path)?;
    let target = require_target(args, "send")?;
    let algorithm = if flag_value(args, "--algo").is_some() {
        Some(parse_algo(args)?)
    } else {
        None
    };
    let workers = parse_number(args, "--workers")?;
    let label = flag_value(args, "--label");
    let capture_sync = args.iter().any(|a| a == "--capture-sync");
    let retries = parse_number(args, "--retries")?.unwrap_or(0);
    let backoff_ms = parse_number(args, "--backoff-ms")?.unwrap_or(200);
    let checkpoint_every: Option<u64> = parse_number(args, "--checkpoint-every")?;
    if checkpoint_every == Some(0) {
        return Err(CliError::Usage(
            "send: --checkpoint-every must be at least 1 event".to_string(),
        ));
    }
    let fleet = args.iter().any(|a| a == "--fleet");
    let proto = match flag_value(args, "--proto").as_deref() {
        None | Some("auto") => paramount_ingest::ProtoPref::Auto,
        Some("1") => paramount_ingest::ProtoPref::V1,
        Some("2") => paramount_ingest::ProtoPref::V2,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "send: unknown --proto `{other}` (expected 1, 2, or auto)"
            )))
        }
    };
    net::send(
        &trace,
        &target,
        algorithm,
        workers,
        label,
        capture_sync,
        retries,
        backoff_ms,
        checkpoint_every,
        fleet,
        proto,
    )
    .map_err(CliError::Run)
}

fn run() -> Result<String, CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "count" => {
            let path = args.get(1).ok_or("count: missing trace file")?;
            Ok(commands::count(
                &load_trace(path)?,
                parse_algo(&args)?,
                parse_threads(&args)?,
            )?)
        }
        "stats" => {
            // With a target, scrape a live daemon's ingest counters
            // instead of enumerating a trace.
            if let Some(target) = parse_target(&args)? {
                return net::remote_stats(&target).map_err(CliError::Run);
            }
            let path = args.get(1).ok_or("stats: missing trace file")?;
            let json = args.iter().any(|a| a == "--json");
            Ok(commands::stats(
                &load_trace(path)?,
                parse_algo(&args)?,
                parse_threads(&args)?,
                json,
            )?)
        }
        "enumerate" => {
            let path = args.get(1).ok_or("enumerate: missing trace file")?;
            let limit = flag_value(&args, "--limit")
                .map(|v| v.parse().map_err(|_| "invalid --limit".to_string()))
                .transpose()?
                .unwrap_or(1000);
            Ok(commands::enumerate(&load_trace(path)?, limit)?)
        }
        "races" => {
            let path = args.get(1).ok_or("races: missing trace file")?;
            let strict = args.iter().any(|a| a == "--strict");
            Ok(commands::races(&load_trace(path)?, strict)?)
        }
        "possibly" => {
            let path = args.get(1).ok_or("possibly: missing trace file")?;
            let state = flag_value(&args, "--state").ok_or("possibly: missing --state a,b,c")?;
            let definitely = args.iter().any(|a| a == "--definitely");
            Ok(commands::reachability(
                &load_trace(path)?,
                &state,
                definitely,
            )?)
        }
        "info" => {
            let path = args.get(1).ok_or("info: missing trace file")?;
            Ok(commands::info(&load_trace(path)?)?)
        }
        "gen" => {
            let workload = args.get(1).ok_or("gen: missing workload name")?;
            let seed = flag_value(&args, "--seed")
                .map(|v| v.parse().map_err(|_| "invalid --seed".to_string()))
                .transpose()?
                .unwrap_or(1);
            Ok(commands::gen(workload, seed)?)
        }
        "serve" => serve(&args),
        "fleet" => fleet(&args),
        "send" => send(&args),
        "shutdown" => {
            let target = require_target(&args, "shutdown")?;
            net::remote_shutdown(&target).map_err(CliError::Run)
        }
        "list-algorithms" | "--list-algorithms" => Ok(list_algorithms()),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {}", error.message());
            ExitCode::from(error.exit_code())
        }
    }
}
