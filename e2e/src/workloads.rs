//! The four gated operations. Each runs the shipped path once on a
//! generated input, times it from outside, and holds every output to the
//! closed-form oracle of the input's shape.
//!
//! Design rule: at most one thread is CPU-bound at a time — one offline
//! thread, one engine worker — because the 2-vCPU guests this runs on
//! slow two busy threads by a quarter for minutes at a time.

use crate::clock::thread_cpu;
use crate::gen::{phased, racy_vars_all_pairs, Input, Shape};
use crate::spans::Tracer;
use crate::spec::{Kind, Workload};
use paramount::{Algorithm, AtomicCountSink, CutRef, EventId, MetricsSnapshot, ParaMount};
use paramount_detect::RacePredicate;
use paramount_durable::FsyncPolicy;
use paramount_ingest::{
    Client, EndReason, Hello, ProtoPref, ServeSummary, Server, ServerConfig, ServerHandle,
    WireReport,
};
use paramount_trace::parse_trace;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// Events between two `FLUSH` barriers of a paced session: 5 KB of
/// `paramount/2` frames, below the client's 8 KiB write buffer, so nothing
/// reaches the daemon until the client stops to wait for it.
pub const FLUSH_EVERY: usize = 1024;
/// Events between two checkpoints of the durable daemon.
pub const CHECKPOINT_EVERY: u64 = 4096;

/// A directory under the build directory, named by workload and pid,
/// removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(build_dir: &Path, workload: &str) -> io::Result<Self> {
        let dir = build_dir
            .join("e2e-scratch")
            .join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A connection that will speak `paramount/2` or fail.
fn dial(addr: SocketAddr) -> io::Result<Client> {
    let mut client = Client::connect_tcp(addr)?;
    client.set_proto_pref(ProtoPref::V2);
    Ok(client)
}

/// An in-process daemon on a loopback port; stopped and joined when
/// dropped, whichever way its operation ends.
pub struct Daemon {
    handle: ServerHandle,
    thread: Option<JoinHandle<io::Result<ServeSummary>>>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Binds, dials the first client, and only then starts the accept
    /// loop, so that the loop's first poll finds the connection waiting.
    /// Dialled the other way round, the client would land somewhere in
    /// the loop's 10 ms sleep and every time-to-first-ack would be a
    /// coin toss between 0.2 ms and 10 ms.
    pub fn start(config: ServerConfig, tracer: &Tracer) -> io::Result<(Daemon, Client)> {
        let span = tracer.enter("server.start");
        let mut server = Server::new(config);
        let addr = server.bind_tcp("127.0.0.1:0")?;
        let handle = server.handle();
        drop(span);
        let span = tracer.enter("client.connect");
        let client = dial(addr)?;
        drop(span);
        let _span = tracer.enter("server.start");
        let thread = std::thread::Builder::new()
            .name("e2e-daemon".to_string())
            .spawn(move || server.run(|_| {}))?;
        Ok((
            Daemon {
                handle,
                thread: Some(thread),
                addr,
            },
            client,
        ))
    }

    pub fn dial(&self) -> io::Result<Client> {
        dial(self.addr)
    }

    /// Drains the daemon and returns every session's final report.
    pub fn stop(mut self) -> Result<ServeSummary, String> {
        self.handle.shutdown();
        let thread = self.thread.take().expect("stop runs once");
        match thread.join() {
            Ok(Ok(summary)) => Ok(summary),
            Ok(Err(e)) => Err(format!("daemon failed: {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The daemon configuration of the gated runs: one engine worker.
pub fn server_config(workers: usize, data_dir: Option<PathBuf>) -> ServerConfig {
    let mut config = ServerConfig::default();
    config.session.engine.workers = workers;
    if data_dir.is_some() {
        config.data_dir = data_dir;
        config.fsync = FsyncPolicy::Never;
        config.checkpoint_every_events = CHECKPOINT_EVERY;
    }
    config
}

pub fn hello(threads: usize, workers: usize) -> Hello {
    let mut hello = Hello::new(threads);
    hello.workers = Some(workers);
    hello
}

/// Everything an operation needs, made from the seed.
pub struct Prepared {
    pub kind: Kind,
    /// One block of input.
    pub block: Input,
    /// Times a session sends the block.
    pub repeat: usize,
    /// The block as trace text (offline workload only).
    pub text: String,
    /// Reference racy variable names, sorted (offline workload only).
    pub racy: Vec<String>,
    /// Offline threads / engine workers: 1 on every gated run.
    pub workers: usize,
}

impl Prepared {
    /// Shape of everything one operation feeds the program.
    pub fn total(&self) -> Shape {
        let shape = self.block.shape;
        shape.with_phases(shape.phases * self.repeat)
    }
}

/// Generates the input of `workload`, cut to `phases` phases per block.
pub fn prepare(
    workload: &Workload,
    phases: usize,
    seed: u64,
    workers: usize,
) -> Result<Prepared, String> {
    let block = phased(workload.shape.with_phases(phases), seed);
    let (mut text, mut racy) = (String::new(), Vec::new());
    if workload.kind == Kind::OfflineDetect {
        text = block.trace_text();
        let trace = parse_trace(&text).map_err(|e| format!("generated trace: {e}"))?;
        racy = racy_vars_all_pairs(&trace.to_poset(false))
            .into_iter()
            .map(|v| trace.var_name(v).to_string())
            .collect();
        racy.sort_unstable();
    }
    Ok(Prepared {
        kind: workload.kind,
        block,
        repeat: workload.repeat,
        text,
        racy,
        workers,
    })
}

/// What one operation measured.
#[derive(Debug)]
pub struct Outcome {
    /// Samples of the operation's latency metric: one per operation, or
    /// one per full `FLUSH` round trip for the durable workload.
    pub latencies_ms: Vec<f64>,
    pub cuts_per_s: f64,
    pub finish_ms: f64,
    pub first_ack_ms: f64,
    pub producer_cpu_ns_per_event: f64,
    /// Engine metrics of the operation's first enumeration (the count
    /// pass, or the first session), for the traced run's engine rows.
    pub engine: MetricsSnapshot,
    /// Checkpoints the daemons wrote.
    pub checkpoints: u64,
    /// Time spent waiting for daemons to notice their stop flag: up to
    /// one 10 ms accept-loop sleep and one 50 ms read tick each, by the
    /// phase the request happens to land in.
    pub stop_ms: f64,
}

fn ms(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e3
}

/// Holds one count to the oracle.
pub fn check(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, the oracle says {want}"))
    }
}

/// Holds a `REPORT` to the oracle: clean end, complete, exact counts.
pub fn check_report(report: &WireReport, shape: Shape) -> Result<(), String> {
    if report.reason != EndReason::End || !report.complete {
        return Err(format!(
            "REPORT is not a complete clean end: reason={} complete={}",
            report.reason, report.complete
        ));
    }
    check("REPORT events", report.events, shape.poset_events())?;
    check("REPORT cuts", report.cuts, shape.cuts())
}

/// Engine metrics of the lowest-numbered session a daemon served.
fn first_engine(summary: &ServeSummary) -> Result<MetricsSnapshot, String> {
    summary
        .reports
        .iter()
        .min_by_key(|r| r.id)
        .map(|r| r.metrics.clone())
        .ok_or_else(|| "daemon served no session".to_string())
}

/// Runs one operation of the prepared workload.
pub fn run(prepared: &Prepared, scratch: &Scratch, tracer: &Tracer) -> Result<Outcome, String> {
    let _op = tracer.operation(match prepared.kind {
        Kind::OfflineDetect => "op.offline-detect",
        Kind::StreamCuts => "op.stream-cuts",
        Kind::StreamEvents => "op.stream-events",
        Kind::DurableResume => "op.durable-resume",
    });
    match prepared.kind {
        Kind::OfflineDetect => offline_detect(prepared, tracer),
        Kind::StreamCuts | Kind::StreamEvents => stream(prepared, tracer),
        Kind::DurableResume => durable_resume(prepared, scratch, tracer),
    }
}

/// `paramount count` then `paramount races` on trace text, one offline
/// thread: parse, recorder, partition, rayon batch mode, lexical
/// subroutine, counting sink, then the race predicate on every cut.
fn offline_detect(prepared: &Prepared, tracer: &Tracer) -> Result<Outcome, String> {
    let shape = prepared.total();
    let engine = ParaMount::new(Algorithm::Lexical).with_threads(prepared.workers);

    let span = tracer.enter("offline.load");
    let (t0, c0) = (Instant::now(), thread_cpu());
    let trace = parse_trace(&prepared.text).map_err(|e| format!("parse_trace: {e}"))?;
    let poset = trace.to_poset(false);
    let (t1, c1) = (Instant::now(), thread_cpu());
    drop(span);

    let span = tracer.enter("offline.count");
    let sink = AtomicCountSink::new();
    let counted = engine
        .enumerate(&poset, &sink)
        .map_err(|e| format!("count: {e}"))?;
    let t2 = Instant::now();
    drop(span);

    let span = tracer.enter("offline.detect");
    let predicate = RacePredicate::new(trace.var_names.len(), true);
    let visit = |cut: CutRef<'_>, owner: EventId| predicate.evaluate(&poset, cut, owner);
    let detected = engine
        .enumerate(&poset, &visit)
        .map_err(|e| format!("detect: {e}"))?;
    let mut racy: Vec<&str> = predicate
        .racy_vars()
        .into_iter()
        .map(|v| trace.var_name(v))
        .collect();
    let t3 = Instant::now();
    drop(span);

    check("trace lines", trace.ops.len() as u64, shape.wire_events())?;
    check(
        "poset events",
        poset.num_events() as u64,
        shape.poset_events(),
    )?;
    check("count cuts", counted.cuts, shape.cuts())?;
    check("atomic counter", sink.count(), shape.cuts())?;
    check("detect cuts", detected.cuts, shape.cuts())?;
    if !counted.faults.quarantined.is_empty() || !detected.faults.quarantined.is_empty() {
        return Err("an interval was quarantined".to_string());
    }
    racy.sort_unstable();
    if racy != prepared.racy {
        return Err(format!(
            "racy variables {racy:?} differ from the all-pairs reference {:?}",
            prepared.racy
        ));
    }
    Ok(Outcome {
        latencies_ms: vec![ms(t0, t3)],
        cuts_per_s: shape.cuts() as f64 / (t2 - t1).as_secs_f64(),
        finish_ms: ms(t1, t3),
        first_ack_ms: ms(t0, t1),
        producer_cpu_ns_per_event: (c1 - c0).as_nanos() as f64 / shape.wire_events() as f64,
        engine: counted.metrics,
        checkpoints: 0,
        stop_ms: 0.0,
    })
}

/// Queues the block `repeat` times; with `flush_every`, waits at a
/// `FLUSH` barrier after each that many events and records the round
/// trip. Returns the thread CPU the loop burnt.
fn send_block(
    client: &mut Client,
    prepared: &Prepared,
    flush_every: Option<usize>,
    flush_ms: &mut Vec<f64>,
    tracer: &Tracer,
) -> Result<std::time::Duration, String> {
    let _span = tracer.enter("client.stream");
    let c0 = thread_cpu();
    let mut sent = 0usize;
    for _ in 0..prepared.repeat {
        for (tid, op) in &prepared.block.ops {
            client
                .event(*tid, op)
                .map_err(|e| format!("EVENT {sent}: {e}"))?;
            sent += 1;
            if flush_every.is_some_and(|every| sent % every == 0) {
                let _span = tracer.enter("client.flush");
                let t = Instant::now();
                client
                    .flush_sync()
                    .map_err(|e| format!("FLUSH at {sent}: {e}"))?;
                flush_ms.push(ms(t, Instant::now()));
            }
        }
    }
    Ok(thread_cpu() - c0)
}

/// One `paramount/2` session on a fresh daemon. The 7 040 events of
/// `stream-cuts` are pipelined without a `FLUSH`; the 320 000 of
/// `stream-events` wait at a `FLUSH` every 1024, which is less than one
/// client write buffer, so client and daemon take turns instead of
/// running side by side (see the design rule above).
fn stream(prepared: &Prepared, tracer: &Tracer) -> Result<Outcome, String> {
    let shape = prepared.total();
    let flush_every = (prepared.kind == Kind::StreamEvents).then_some(FLUSH_EVERY);
    let t0 = Instant::now();
    let (daemon, mut client) = Daemon::start(server_config(prepared.workers, None), tracer)
        .map_err(|e| format!("start: {e}"))?;
    let span = tracer.enter("client.hello");
    client
        .hello(&hello(shape.threads, prepared.workers))
        .map_err(|e| format!("HELLO: {e}"))?;
    let t1 = Instant::now();
    drop(span);
    if client.proto() != 2 {
        return Err(format!("negotiated paramount/{}, not 2", client.proto()));
    }

    let cpu = send_block(&mut client, prepared, flush_every, &mut Vec::new(), tracer)?;
    let span = tracer.enter("client.finish");
    let t2 = Instant::now();
    let report = client.finish().map_err(|e| format!("END: {e}"))?;
    let t3 = Instant::now();
    drop(span);

    let span = tracer.enter("server.stop");
    let summary = daemon.stop()?;
    let t4 = Instant::now();
    drop(span);
    check_report(&report, shape)?;
    check("daemon reports", summary.reports.len() as u64, 1)?;
    Ok(Outcome {
        latencies_ms: vec![ms(t0, t3)],
        cuts_per_s: report.cuts as f64 / (t3 - t0).as_secs_f64(),
        finish_ms: ms(t2, t3),
        first_ack_ms: ms(t0, t1),
        producer_cpu_ns_per_event: cpu.as_nanos() as f64 / shape.wire_events() as f64,
        engine: first_engine(&summary)?,
        checkpoints: summary.ingest.checkpoint_writes,
        stop_ms: ms(t3, t4),
    })
}

/// The durable path: session A runs to `END` with a `FLUSH` every 1024
/// events; session B does the same and is left open; the daemon is shut
/// down; a new daemon recovers the directory; `RESUME`, `END`.
fn durable_resume(
    prepared: &Prepared,
    scratch: &Scratch,
    tracer: &Tracer,
) -> Result<Outcome, String> {
    let shape = prepared.total();
    let data = scratch.path().join("data");
    let _ = std::fs::remove_dir_all(&data);
    let config = server_config(prepared.workers, Some(data));
    let mut flush_ms = Vec::new();

    let t0 = Instant::now();
    let (daemon, mut a) =
        Daemon::start(config.clone(), tracer).map_err(|e| format!("start: {e}"))?;
    let span = tracer.enter("client.hello");
    a.hello(&hello(shape.threads, prepared.workers))
        .map_err(|e| format!("HELLO a: {e}"))?;
    drop(span);
    let cpu = send_block(&mut a, prepared, Some(FLUSH_EVERY), &mut flush_ms, tracer)?;
    let span = tracer.enter("client.finish");
    let t1 = Instant::now();
    let report_a = a.finish().map_err(|e| format!("END a: {e}"))?;
    let t2 = Instant::now();
    drop(span);
    check_report(&report_a, shape)?;

    let span = tracer.enter("client.connect");
    let mut b = daemon.dial().map_err(|e| format!("dial b: {e}"))?;
    drop(span);
    let span = tracer.enter("client.hello");
    let session_b = b
        .hello(&hello(shape.threads, prepared.workers))
        .map_err(|e| format!("HELLO b: {e}"))?;
    drop(span);
    send_block(&mut b, prepared, Some(FLUSH_EVERY), &mut flush_ms, tracer)?;
    let span = tracer.enter("client.flush");
    let (events_b, _) = b.flush_sync().map_err(|e| format!("final FLUSH b: {e}"))?;
    drop(span);
    // The closing barrier has ended every access segment.
    check("final FLUSH b events", events_b, shape.poset_events())?;

    let span = tracer.enter("server.stop");
    let stop_1 = Instant::now();
    let summary_1 = daemon.stop()?;
    drop(b);
    drop(span);
    check("first daemon reports", summary_1.reports.len() as u64, 2)?;

    let t3 = Instant::now();
    let (daemon, mut c) = Daemon::start(config, tracer).map_err(|e| format!("restart: {e}"))?;
    let span = tracer.enter("client.resume");
    let acked = c
        .resume(session_b)
        .map_err(|e| format!("RESUME {session_b}: {e}"))?;
    let t4 = Instant::now();
    drop(span);
    check("RESUME acked", acked, shape.wire_events())?;
    let span = tracer.enter("client.finish");
    let report_b = c.finish().map_err(|e| format!("END b: {e}"))?;
    drop(span);
    check_report(&report_b, shape)?;
    let span = tracer.enter("server.stop");
    let stop_2 = Instant::now();
    let summary_2 = daemon.stop()?;
    let t5 = Instant::now();
    drop(span);
    check("second daemon reports", summary_2.reports.len() as u64, 1)?;

    Ok(Outcome {
        latencies_ms: flush_ms,
        cuts_per_s: report_a.cuts as f64 / (t2 - t0).as_secs_f64(),
        finish_ms: ms(t1, t2),
        first_ack_ms: ms(t3, t4),
        producer_cpu_ns_per_event: cpu.as_nanos() as f64 / shape.wire_events() as f64,
        engine: first_engine(&summary_1)?,
        checkpoints: summary_1.ingest.checkpoint_writes + summary_2.ingest.checkpoint_writes,
        stop_ms: ms(stop_1, t3) + ms(stop_2, t5),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_rejects_a_wrong_count() {
        let shape = Shape {
            threads: 3,
            rounds: 2,
            accesses: 1,
            phases: 2,
            vars: 2,
        };
        let good = WireReport {
            events: shape.poset_events(),
            cuts: shape.cuts(),
            complete: true,
            reason: EndReason::End,
        };
        assert!(check_report(&good, shape).is_ok());
        for bad in [
            WireReport {
                cuts: good.cuts + 1,
                ..good
            },
            WireReport {
                events: good.events - 1,
                ..good
            },
            WireReport {
                complete: false,
                ..good
            },
            WireReport {
                reason: EndReason::Disconnect,
                ..good
            },
        ] {
            assert!(check_report(&bad, shape).is_err(), "{bad:?}");
        }
        assert!(check("x", 5, 6).unwrap_err().contains("oracle"));
    }
}
