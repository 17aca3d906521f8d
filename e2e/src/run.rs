//! One run: set-up, warm-up, the measured window, the report.

use crate::clock::{filesystem_of, host_steal, peak_rss_mb, pin_to_one_cpu, process_cpu, CpuSet};
use crate::layers;
use crate::result::{Metric, RunResult};
use crate::spans::{self, Tracer};
use crate::spec::{Workload, END_TO_END, PER_LAYER, SPANS};
use crate::stats::{beyond, median, quantile};
use crate::workloads::{prepare, run as run_op, Outcome, Prepared, Scratch};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// `peak_rss_mb` is `VmHWM` after this many full-size operations, so it
/// does not depend on how many operations fitted into the window.
const RSS_AFTER_OPS: u64 = 8;
/// Fewest timed operations, however short `--seconds` is.
const MIN_TIMED_OPS: usize = 3;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Offline threads / engine workers of the operations. `BENCHMARK.json`
    /// never passes it: gated runs use 1. `--workers 2` exists to
    /// re-measure the spreads the one-busy-thread rule rests on.
    pub workers: usize,
}

/// The build directory: the executable lives in `<build>/release/`.
pub fn build_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The commit of the checkout the benchmark was started in, if it is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.to_string()),
        None if head.is_empty() => "none (not a git checkout)".to_string(),
        None => head.to_string(),
    }
}

/// Operations run and failed so far, with the first few reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    full_size: u64,
    rss_mb: Option<f64>,
}

impl Tally {
    /// Runs one operation; a wrong or failed one is counted and reported,
    /// and yields no samples.
    fn op(
        &mut self,
        prepared: &Prepared,
        scratch: &Scratch,
        tracer: &Tracer,
        full_size: bool,
    ) -> Option<Outcome> {
        self.attempted += 1;
        let outcome = run_op(prepared, scratch, tracer);
        if full_size {
            self.full_size += 1;
            if self.full_size == RSS_AFTER_OPS {
                self.rss_mb = peak_rss_mb();
            }
        }
        match outcome {
            Ok(outcome) => Some(outcome),
            Err(reason) => {
                self.failed += 1;
                if self.failed <= 5 {
                    println!("FAILED operation {}: {reason}", self.attempted);
                }
                None
            }
        }
    }
}

/// Samples of the measured window.
#[derive(Default)]
struct Window {
    latencies_ms: Vec<f64>,
    cuts_per_s: Vec<f64>,
    finish_ms: Vec<f64>,
    first_ack_ms: Vec<f64>,
    producer_ns: Vec<f64>,
    ops: usize,
}

impl Window {
    fn push(&mut self, outcome: &Outcome) {
        self.latencies_ms.extend_from_slice(&outcome.latencies_ms);
        self.cuts_per_s.push(outcome.cuts_per_s);
        self.finish_ms.push(outcome.finish_ms);
        self.first_ack_ms.push(outcome.first_ack_ms);
        self.producer_ns.push(outcome.producer_cpu_ns_per_event);
        self.ops += 1;
    }
}

/// Runs the workload and prints the report; returns whether every
/// operation was correct, or an error when there is nothing to report.
pub fn run(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let workload = args.workload;
    let build = build_dir();
    let scratch = Scratch::new(&build, workload.name).map_err(|e| format!("scratch: {e}"))?;
    // One CPU for the whole process: with one busy thread at a time a
    // second CPU buys nothing, and it takes away the scheduler's choice
    // between waking the peer thread on this vCPU or the other one — two
    // modes, minutes long, 13 % apart on op_ms_p50 and 50 % on
    // producer_cpu_ns_per_event of durable-resume (see the README).
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // (The `--workers 2` experiment needs its second CPU and stays unpinned.)
    let pinned = if args.workers == 1 {
        pin_to_one_cpu()
    } else {
        None
    };
    let steal_before = host_steal();
    println!(
        "workload {} seed {} seconds {} trace {} workers {}",
        workload.name, args.seed, args.seconds, args.trace as u8, args.workers
    );
    println!(
        "nproc {} pinned to {} commit {} data-dir {} ({})",
        nproc,
        pinned.map_or("no cpu".to_string(), |(cpu, _)| format!("cpu {cpu}")),
        commit(),
        scratch.path().display(),
        filesystem_of(scratch.path()),
    );

    let mut tally = Tally::default();
    let off = Tracer::new(false);

    // Set-up: the input from the seed, and one warm operation on a
    // short prefix of it (less the sleep its daemons end on, which is the
    // accept loop's phase, not work).
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let full = prepare(workload, workload.shape.phases, args.seed, args.workers)?;
        let prefix = prepare(workload, workload.setup_phases, args.seed, args.workers)?;
        let waited_ms = tally
            .op(&prefix, &scratch, &off, false)
            .map_or(0.0, |outcome| outcome.stop_ms);
        setup_s.push(t.elapsed().as_secs_f64() - waited_ms / 1e3);
        prepared = Some(full);
    }
    let prepared = prepared.expect("SETUP_REPS >= 1");

    // Warm-up, untimed: 2 s of a 30 s run.
    let warm_until = Instant::now() + Duration::from_secs_f64((args.seconds / 10.0).min(2.0));
    while Instant::now() < warm_until {
        tally.op(&prepared, &scratch, &off, true);
    }

    let metrics = if args.trace {
        let all_cpus = pinned.map(|(_, before)| before);
        traced(
            args, &prepared, &scratch, &build, deadline, &mut tally, all_cpus,
        )?
    } else {
        gated(
            workload, &prepared, &scratch, deadline, &mut tally, &setup_s,
        )?
    };
    for m in &metrics {
        println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }

    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, host_steal()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        println!("host steal {:.2} % of {} jiffies", share * 100.0, t1 - t0);
    }
    println!(
        "operations {} failed {} wall {:.1} s",
        tally.attempted,
        tally.failed,
        started.elapsed().as_secs_f64()
    );
    let result = RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    };
    drop(scratch);
    println!("{}", result.to_line());
    Ok(result.correct)
}

/// The measured window of a gated run: operations back to back, tracing
/// off, until the deadline.
fn gated(
    workload: &Workload,
    prepared: &Prepared,
    scratch: &Scratch,
    deadline: Instant,
    tally: &mut Tally,
    setup_s: &[f64],
) -> Result<Vec<Metric>, String> {
    let off = Tracer::new(false);
    let mut window = Window::default();
    let (cpu0, mut attempts) = (process_cpu(), 0usize);
    while Instant::now() < deadline || attempts < MIN_TIMED_OPS {
        attempts += 1;
        if let Some(outcome) = tally.op(prepared, scratch, &off, true) {
            window.push(&outcome);
        }
    }
    let cpu_ms = (process_cpu() - cpu0).as_secs_f64() * 1e3;
    if window.ops == 0 {
        return Err("no operation of the measured window succeeded".to_string());
    }
    let rss_mb = tally.rss_mb.or_else(peak_rss_mb).ok_or("no VmHWM")?;
    println!(
        "timed operations {} latency samples {} beyond p{}: {}",
        attempts,
        window.latencies_ms.len(),
        workload.tail * 100.0,
        beyond(&window.latencies_ms, workload.tail),
    );
    let value = |name: &str| match name {
        "setup_s" => median(setup_s),
        "cuts_per_s" => median(&window.cuts_per_s),
        "op_ms_p50" => median(&window.latencies_ms),
        "op_ms_tail" => quantile(&window.latencies_ms, workload.tail),
        "finish_ms" => median(&window.finish_ms),
        "first_ack_ms" => median(&window.first_ack_ms),
        "cpu_ms_per_op" => cpu_ms / attempts as f64,
        "producer_cpu_ns_per_event" => median(&window.producer_ns),
        "peak_rss_mb" => rss_mb,
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    Ok(END_TO_END
        .iter()
        .map(|m| Metric::new(m.name, value(m.name), m.unit))
        .collect())
}

/// The traced run: the workload's operations alternately with spans off
/// and on, then its input replayed through each layer in isolation.
fn traced(
    args: &Args,
    prepared: &Prepared,
    scratch: &Scratch,
    build: &Path,
    deadline: Instant,
    tally: &mut Tally,
    all_cpus: Option<CpuSet>,
) -> Result<Vec<Metric>, String> {
    let (off, on) = (Tracer::new(false), Tracer::new(true));
    // A quarter of what is left goes to whole operations.
    let now = Instant::now();
    let ops_until = now + deadline.saturating_duration_since(now) / 4;
    let (mut plain_ms, mut traced_ms, mut cpu_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let allocs0 = crate::alloc::allocations();
    let mut alloc_ops = 0u64;
    while Instant::now() < ops_until || traced_ms.len() < MIN_TIMED_OPS {
        let (t, c) = (Instant::now(), process_cpu());
        if tally.op(prepared, scratch, &off, true).is_some() {
            plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            cpu_ms.push((process_cpu() - c).as_secs_f64() * 1e3);
        }
        let t = Instant::now();
        if let Some(outcome) = tally.op(prepared, scratch, &on, true) {
            traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
            last = Some(outcome);
        }
        alloc_ops += 2;
        if tally.failed > 10 {
            break;
        }
    }
    let last = last.ok_or("no traced operation succeeded")?;
    if plain_ms.is_empty() {
        return Err("no untraced operation of the traced run succeeded".to_string());
    }
    let allocs_per_op = (crate::alloc::allocations() - allocs0) as f64 / alloc_ops as f64;
    let peak_heap_mb = crate::alloc::peak_bytes() as f64 / (1024.0 * 1024.0);

    let recorded = on.spans();
    let path = build.join(format!("spans-{}.json", args.workload.name));
    std::fs::write(&path, spans::to_json(&recorded)).map_err(|e| format!("spans file: {e}"))?;
    println!("spans {} written to {}", recorded.len(), path.display());

    let mut found: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| found.push((name.to_string(), value));
    let self_times = spans::self_times(&recorded);
    let total: u64 = self_times.iter().map(|(_, ns)| ns).sum();
    let mut attributed = 0u64;
    for span in SPANS {
        let ns = self_times
            .iter()
            .find(|(name, _)| name == span)
            .map_or(0, |(_, ns)| *ns);
        attributed += ns;
        put(
            &format!("wall.share_{span}"),
            ns as f64 / total.max(1) as f64,
        );
    }
    put(
        "wall.share_unattributed",
        (total - attributed) as f64 / total.max(1) as f64,
    );
    put("span.count", recorded.len() as f64 / traced_ms.len() as f64);
    put(
        "span.overhead_share",
        median(&traced_ms) / median(&plain_ms) - 1.0,
    );
    let shape = prepared.total();
    put("mem.allocs_per_cut", allocs_per_op / shape.cuts() as f64);
    put(
        "mem.allocs_per_event",
        allocs_per_op / shape.wire_events() as f64,
    );
    put("mem.peak_heap_mb", peak_heap_mb);

    let layer_input = prepare(args.workload, args.workload.layer_phases, args.seed, 1)?;
    tally.attempted += 1;
    match layers::measure(
        &layer_input,
        prepared,
        &last,
        median(&cpu_ms),
        scratch,
        deadline,
        all_cpus,
    ) {
        Ok(rows) => found.extend(rows),
        Err(reason) => {
            tally.failed += 1;
            println!("FAILED layer replay: {reason}");
        }
    }

    // Every per-layer metric, in the order of the table; a stage that
    // failed (counted above) leaves its rows at zero.
    Ok(PER_LAYER
        .iter()
        .map(|m| {
            let value = found.iter().find(|(name, _)| name == m.name);
            Metric::new(m.name, value.map_or(0.0, |(_, v)| *v), m.unit)
        })
        .collect())
}
