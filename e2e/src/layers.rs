//! Per-layer measurements of a traced run: the workload's own input
//! replayed through each layer's public functions in isolation (median
//! of three passes), every replay held to the same closed-form counts,
//! and one operation priced as Σ stage cost × work handed to the layer.
//!
//! The `_t2` / `_w2` rows and the speed-ups run two busy threads on what
//! may be a 2-vCPU guest: readings of this host, never gates.

use crate::clock::{pin_to_one_cpu, process_cpu, set_affinity, thread_cpu, CpuSet};
use crate::spec::{Kind, CPU_LAYERS};
use crate::stats::median;
use crate::workloads::CHECKPOINT_EVERY;
use crate::workloads::{
    check, check_report, hello, server_config, Daemon, Outcome, Prepared, Scratch,
};
use paramount::{
    measure_interval_work, partition, partition_packed, Algorithm, AtomicCountSink, CutRef,
    EventId, FaultLog, MemoryBudget, OnlineEngine, OnlineEngineConfig, OnlinePoset, ParaMount,
};
use paramount_detect::RacePredicate;
use paramount_durable::{FsyncPolicy, Wal, WalConfig};
use paramount_enumerate::CountSink;
use paramount_ingest::{
    encode_event_record, first_session_id, parse_client_line, Client, ClientFrame, Dec, Enc,
    EndReason, FleetConfig, FleetRouter, Server, Session, SessionStore, ShardSpec, Step,
    StoreConfig,
};
use paramount_poset::topo::weight_order;
use paramount_trace::{parse_trace, TraceEvent};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records of the WAL stages.
const WAL_RECORDS: usize = 16_384;

fn secs<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// `write` system calls this process has made (`syscw` of `/proc/self/io`).
fn write_syscalls() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    let line = io.lines().find(|l| l.starts_with("syscw:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn noop_sink() -> impl Fn(CutRef<'_>, EventId) -> ControlFlow<()> + Send + Sync + 'static {
    |_, _| ControlFlow::Continue(())
}

struct Stages {
    /// Three passes, or one once the run's deadline has passed.
    passes: usize,
    rows: Vec<(String, f64)>,
    /// The affinity mask the run had before it pinned itself.
    all_cpus: Option<CpuSet>,
}

impl Stages {
    fn put(&mut self, name: &str, value: f64) {
        self.rows.push((name.to_string(), value));
    }

    /// [`Stages::median`] for a stage of `threads` busy threads: a
    /// two-thread stage gets the process's original CPUs back. The threads
    /// a pass spawns inherit the wide mask and are joined before the
    /// calling thread is pinned again.
    fn median_on(
        &self,
        threads: usize,
        pass: impl FnMut() -> Result<f64, String>,
    ) -> Result<f64, String> {
        let (true, Some(all)) = (threads > 1, self.all_cpus) else {
            return self.median(pass);
        };
        set_affinity(&all);
        let result = self.median(pass);
        pin_to_one_cpu();
        result
    }

    /// Median seconds of `passes` runs of `pass`, which times itself.
    fn median(&self, mut pass: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
        let samples: Result<Vec<f64>, String> = (0..self.passes).map(|_| pass()).collect();
        Ok(median(&samples?))
    }
}

pub fn measure(
    input: &Prepared,
    full: &Prepared,
    last: &Outcome,
    cpu_ms_per_op: f64,
    scratch: &Scratch,
    deadline: Instant,
    all_cpus: Option<CpuSet>,
) -> Result<Vec<(String, f64)>, String> {
    let mut st = Stages {
        passes: if Instant::now() < deadline { 3 } else { 1 },
        rows: Vec::new(),
        all_cpus,
    };
    let shape = input.block.shape;
    let ops = &input.block.ops;
    let (wire, events, cuts) = (
        shape.wire_events() as f64,
        shape.poset_events() as f64,
        shape.cuts() as f64,
    );
    let n = shape.threads;

    // trace: text -> operations -> poset.
    let text = input.block.trace_text();
    let parse_s = st.median(|| {
        let (s, trace) = secs(|| parse_trace(&text));
        let trace = trace.map_err(|e| format!("parse_trace: {e}"))?;
        check(
            "parsed operations",
            trace.ops.len() as u64,
            shape.wire_events(),
        )?;
        Ok(s)
    })?;
    let trace = parse_trace(&text).map_err(|e| format!("parse_trace: {e}"))?;
    let recorder_s = st.median(|| {
        let (s, poset) = secs(|| trace.to_poset(false));
        check(
            "recorded events",
            poset.num_events() as u64,
            shape.poset_events(),
        )?;
        Ok(s)
    })?;
    let poset = trace.to_poset(false);
    st.put("trace.parse_ns_per_line", parse_s * 1e9 / wire);
    st.put("trace.recorder_ns_per_op", recorder_s * 1e9 / wire);
    st.put("trace.ops_per_poset_event", wire / events);

    let order = weight_order(&poset);
    let intervals = partition(&poset, &order);

    // vclock: join every event's clock into its →p predecessor's.
    let clocks: Vec<_> = order.iter().map(|&id| poset.vc(id).clone()).collect();
    let rounds = (200_000 / clocks.len()).max(1);
    let join_s = st.median(|| {
        let mut total = 0.0;
        for _ in 0..rounds {
            let mut accs = clocks.clone();
            total += secs(|| {
                for (acc, next) in accs.iter_mut().zip(&clocks[1..]) {
                    acc.join(next);
                }
            })
            .0;
            std::hint::black_box(&accs);
        }
        Ok(total)
    })?;
    st.put(
        "vclock.join_ns",
        join_s * 1e9 / (rounds * (clocks.len() - 1)) as f64,
    );

    // enumerate: the sequential algorithms on the whole lattice, and the
    // bounded subroutine summed over the partition.
    let mut expansions = 0u64;
    for (algorithm, name) in [
        (Algorithm::Lexical, "enumerate.lexical_ns_per_cut"),
        (Algorithm::Bfs, "enumerate.bfs_ns_per_cut"),
        (Algorithm::Leveled, "enumerate.leveled_ns_per_cut"),
    ] {
        let s = st.median(|| {
            let mut sink = CountSink::default();
            let (s, stats) = secs(|| algorithm.run(&poset, &mut sink));
            let stats = stats.map_err(|e| format!("{}: {e}", algorithm.name()))?;
            check(algorithm.name(), sink.count, shape.cuts())?;
            check(algorithm.name(), stats.cuts, shape.cuts())?;
            if algorithm == Algorithm::Lexical {
                expansions = stats.expansions;
            }
            Ok(s)
        })?;
        st.put(name, s * 1e9 / cuts);
    }
    st.put("enumerate.expansions_per_cut", expansions as f64 / cuts);
    let bounded_s = st.median(|| {
        let mut sink = CountSink::default();
        let (s, result) = secs(|| {
            intervals.iter().try_for_each(|iv| {
                iv.enumerate(&poset, Algorithm::Lexical, &mut sink)
                    .map(drop)
            })
        });
        result.map_err(|e| format!("bounded: {e}"))?;
        check("bounded", sink.count, shape.cuts())?;
        Ok(s)
    })?;
    let bounded_ns = bounded_s * 1e9 / cuts;
    st.put("enumerate.bounded_ns_per_cut", bounded_ns);
    st.put("enumerate.ns_per_cut_per_n2", bounded_ns / (n * n) as f64);

    // core, offline: partition, the batch executor at one and two threads
    // into a no-op sink and into the shared counter, work and critical path.
    let partition_s = st.median(|| {
        let (s, queue) = secs(|| partition_packed(&poset, &order));
        check("partition", queue.len() as u64, shape.poset_events())?;
        Ok(s)
    })?;
    st.put("core.partition_ns_per_event", partition_s * 1e9 / events);
    let offline = |st: &Stages, threads: usize, counting: bool| {
        st.median_on(threads, || {
            let engine = ParaMount::new(Algorithm::Lexical).with_threads(threads);
            let (s, got) = if counting {
                let sink = AtomicCountSink::new();
                let (s, stats) = secs(|| engine.enumerate(&poset, &sink));
                check("atomic counter", sink.count(), shape.cuts())?;
                (s, stats)
            } else {
                secs(|| engine.enumerate(&poset, &noop_sink()))
            };
            let stats = got.map_err(|e| format!("offline x{threads}: {e}"))?;
            check("offline", stats.cuts, shape.cuts())?;
            Ok(s)
        })
    };
    let (noop_t1, noop_t2) = (offline(&st, 1, false)?, offline(&st, 2, false)?);
    let (count_t1, count_t2) = (offline(&st, 1, true)?, offline(&st, 2, true)?);
    st.put("core.offline_ns_per_cut_t1", noop_t1 * 1e9 / cuts);
    st.put("core.offline_ns_per_cut_t2", noop_t2 * 1e9 / cuts);
    st.put("core.offline_speedup_t2", noop_t1 / noop_t2);
    st.put("core.count_sink_ns_per_cut_t1", count_t1 * 1e9 / cuts);
    st.put("core.count_sink_ns_per_cut_t2", count_t2 * 1e9 / cuts);
    st.put("core.count_sink_speedup_t2", count_t1 / count_t2);
    let work = measure_interval_work(&poset, &intervals);
    check("interval work", work.iter().sum(), shape.cuts())?;
    st.put("core.work_cuts", work.iter().sum::<u64>() as f64);
    st.put(
        "core.critical_path_cuts",
        work.iter().copied().max().unwrap_or(0) as f64,
    );

    // detect: the race predicate on every cut, over the no-op pass.
    let race = |st: &Stages, threads: usize| {
        st.median_on(threads, || {
            let predicate = RacePredicate::new(trace.var_names.len(), true);
            let visit = |cut: CutRef<'_>, owner: EventId| predicate.evaluate(&poset, cut, owner);
            let engine = ParaMount::new(Algorithm::Lexical).with_threads(threads);
            let (s, stats) = secs(|| engine.enumerate(&poset, &visit));
            let stats = stats.map_err(|e| format!("detect x{threads}: {e}"))?;
            check("detect", stats.cuts, shape.cuts())?;
            Ok(s)
        })
    };
    let (race_t1, race_t2) = (race(&st, 1)?, race(&st, 2)?);
    let race_ns = (race_t1 - noop_t1) * 1e9 / cuts;
    st.put("detect.race_ns_per_cut", race_ns);
    st.put("detect.race_speedup_t2", race_t1 / race_t2);

    // core, online: insertion alone, the engine fed in →p order at one
    // and two workers, the packed queue.
    let feed: Vec<_> = order
        .iter()
        .map(|&id| (id.tid, poset.vc(id).clone(), poset.payload(id).clone()))
        .collect();
    let insert_s = st.median(|| {
        let online = OnlinePoset::<TraceEvent>::new(n);
        let feed = feed.clone();
        let (s, ()) = secs(|| {
            for (tid, vc, payload) in feed {
                std::hint::black_box(online.insert_with_clock(tid, vc, payload));
            }
        });
        check("inserted", online.num_events() as u64, shape.poset_events())?;
        Ok(s)
    })?;
    st.put("core.insert_ns_per_event", insert_s * 1e9 / events);
    let online = |st: &Stages, workers: usize| {
        st.median_on(workers, || {
            let config = OnlineEngineConfig {
                workers,
                ..OnlineEngineConfig::default()
            };
            let feed = feed.clone();
            let (s, report) = secs(|| {
                let engine = OnlineEngine::new(n, config, noop_sink());
                for (tid, vc, payload) in feed {
                    engine.observe_with_clock(tid, vc, payload);
                }
                engine.finish()
            });
            if !report.is_complete() {
                return Err(format!("online x{workers}: incomplete"));
            }
            check("online cuts", report.cuts, shape.cuts())?;
            check("online events", report.events, shape.poset_events())?;
            Ok(s)
        })
    };
    let (online_w1, online_w2) = (online(&st, 1)?, online(&st, 2)?);
    st.put("core.online_ns_per_cut_w1", online_w1 * 1e9 / cuts);
    st.put("core.online_ns_per_cut_w2", online_w2 * 1e9 / cuts);
    st.put("core.online_speedup_w2", online_w1 / online_w2);
    st.put(
        "core.online_overhead_ns_per_event",
        (online_w1 - bounded_s) * 1e9 / events,
    );
    let queue_s = st.median(|| {
        let (s, popped) = secs(|| {
            let mut queue = paramount::store::PackedIntervalQueue::new(n);
            for iv in &intervals {
                queue.push_back(iv);
            }
            let mut popped = 0u64;
            while let Some(iv) = queue.pop_front() {
                std::hint::black_box(iv);
                popped += 1;
            }
            popped
        });
        check("queue", popped, shape.poset_events())?;
        Ok(s)
    })?;
    st.put("core.queue_ns_per_interval", queue_s * 1e9 / events);

    // Engine rows of a traced operation, as its report gave them.
    let engine = &last.engine;
    st.put(
        "core.intervals_dispatched",
        engine.intervals_dispatched as f64,
    );
    st.put(
        "core.queue_depth_high_water",
        engine.queue_depth_high_water as f64,
    );
    let (busy, idle) = engine
        .workers
        .iter()
        .fold((0u64, 0u64), |(b, i), w| (b + w.busy_ns, i + w.idle_ns));
    st.put(
        "core.worker_busy_share",
        busy as f64 / (busy + idle).max(1) as f64,
    );
    st.put(
        "core.insert_critical_ns_mean",
        engine.insert_critical_ns.mean(),
    );
    st.put("persist.checkpoints", last.checkpoints as f64);

    // wire2 and proto: encode and decode the operations.
    let mut encoded = Vec::new();
    let encode_s = st.median(|| {
        let mut enc = Enc::new();
        let mut out = Vec::with_capacity(ops.len() * 8);
        let (s, ()) = secs(|| {
            for (tid, op) in ops {
                enc.push_event(&mut out, *tid, op);
            }
        });
        encoded = out;
        Ok(s)
    })?;
    let decode_s = st.median(|| {
        let mut dec = Dec::new();
        let (s, decoded) = secs(|| -> Result<u64, String> {
            let mut decoded = 0u64;
            for chunk in encoded.chunks(4096) {
                dec.extend(chunk);
                while let Step::Frame(frame) =
                    dec.next_frame().map_err(|e| format!("wire2 decode: {e}"))?
                {
                    std::hint::black_box(frame);
                    decoded += 1;
                }
            }
            Ok(decoded)
        });
        check("wire2 frames", decoded?, shape.wire_events())?;
        Ok(s)
    })?;
    st.put("wire2.encode_ns_per_event", encode_s * 1e9 / wire);
    st.put("wire2.decode_ns_per_event", decode_s * 1e9 / wire);
    st.put("wire2.bytes_per_event", encoded.len() as f64 / wire);
    let frames: Vec<ClientFrame> = ops
        .iter()
        .map(|(tid, op)| ClientFrame::Event {
            tid: *tid,
            op: op.clone(),
        })
        .collect();
    let mut lines = Vec::new();
    let proto_encode_s = st.median(|| {
        let (s, out) = secs(|| frames.iter().map(ClientFrame::encode).collect::<Vec<_>>());
        lines = out;
        Ok(s)
    })?;
    let proto_parse_s = st.median(|| {
        let (s, parsed) = secs(|| -> Result<u64, String> {
            let mut parsed = 0u64;
            for line in &lines {
                std::hint::black_box(parse_client_line(line).map_err(|e| format!("proto: {e}"))?);
                parsed += 1;
            }
            Ok(parsed)
        });
        check("proto frames", parsed?, shape.wire_events())?;
        Ok(s)
    })?;
    st.put("proto.encode_ns_per_event", proto_encode_s * 1e9 / wire);
    st.put("proto.parse_ns_per_event", proto_parse_s * 1e9 / wire);
    st.put(
        "proto.bytes_per_event",
        lines.iter().map(|l| l.len() + 1).sum::<usize>() as f64 / wire,
    );

    // session: open, apply, finalize in process; no socket, no store.
    let session_config = server_config(1, None).session;
    let (mut open_s, mut apply_cpu_s, mut finalize_s) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..st.passes {
        let (s, session) = secs(|| Session::open(1, &hello(n, 1), &session_config));
        let mut session = session.map_err(|e| format!("Session::open: {e}"))?;
        open_s.push(s);
        let c0 = thread_cpu();
        for (tid, op) in ops {
            session
                .apply(*tid, op)
                .map_err(|e| format!("Session::apply: {e}"))?;
        }
        apply_cpu_s.push((thread_cpu() - c0).as_secs_f64());
        let (s, report) = secs(|| session.finalize(EndReason::End));
        finalize_s.push(s);
        check_report(&report.wire(), shape)?;
    }
    let apply_ns = median(&apply_cpu_s) * 1e9 / wire;
    st.put("session.open_us", median(&open_s) * 1e6);
    st.put("session.apply_ns_per_event", apply_ns);
    st.put("session.finalize_ms", median(&finalize_s) * 1e3);

    // server and client: the same session through a real daemon, and what
    // a session costs before its first event.
    let off = crate::spans::Tracer::new(false);
    // `real` is what is left of a streamed session's process CPU once the
    // worker's own busy time (enumeration, from the session's report) is
    // taken out: client encode, both socket ends, decode, apply, fixed cost.
    let (mut real_cpu_s, mut fixed_cpu_s) = (Vec::new(), Vec::new());
    for _ in 0..st.passes {
        for (streamed, cpu) in [(false, &mut fixed_cpu_s), (true, &mut real_cpu_s)] {
            let p0 = process_cpu();
            let (daemon, mut client) =
                Daemon::start(server_config(1, None), &off).map_err(|e| format!("daemon: {e}"))?;
            client
                .hello(&hello(n, 1))
                .map_err(|e| format!("HELLO: {e}"))?;
            if streamed {
                for (tid, op) in ops {
                    client.event(*tid, op).map_err(|e| format!("EVENT: {e}"))?;
                }
            }
            let report = client.finish().map_err(|e| format!("END: {e}"))?;
            let summary = daemon.stop()?;
            let worker_busy_ns: u64 = summary
                .reports
                .iter()
                .flat_map(|r| &r.metrics.workers)
                .map(|w| w.busy_ns)
                .sum();
            cpu.push((process_cpu() - p0).as_secs_f64() - worker_busy_ns as f64 / 1e9);
            if streamed {
                check_report(&report, shape)?;
            } else {
                check("empty session events", report.events, 0)?;
            }
        }
    }
    let fixed_cpu = median(&fixed_cpu_s);
    let codec_s = encode_s + decode_s;
    let socket_ns = (median(&real_cpu_s) - fixed_cpu - median(&apply_cpu_s) - codec_s) * 1e9 / wire;
    st.put("server.socket_ns_per_event", socket_ns);
    {
        let (daemon, mut admin) =
            Daemon::start(server_config(1, None), &off).map_err(|e| format!("daemon: {e}"))?;
        let mut stats_us = Vec::new();
        for _ in 0..20 {
            let (s, reply) = secs(|| admin.stats());
            reply.map_err(|e| format!("STATS: {e}"))?;
            stats_us.push(s * 1e6);
        }
        drop(admin);
        let mut connect_us = Vec::new();
        for _ in 0..10 {
            let (s, client) = secs(|| -> Result<Client, String> {
                let mut client = daemon.dial().map_err(|e| format!("dial: {e}"))?;
                client
                    .hello(&hello(n, 1))
                    .map_err(|e| format!("HELLO: {e}"))?;
                Ok(client)
            });
            connect_us.push(s * 1e6);
            client?.finish().map_err(|e| format!("END: {e}"))?;
        }
        let mut idle = daemon.dial().map_err(|e| format!("dial: {e}"))?;
        idle.hello(&hello(n, 1))
            .map_err(|e| format!("HELLO: {e}"))?;
        let mut flush_us = Vec::new();
        for _ in 0..50 {
            let (s, reply) = secs(|| idle.flush_sync());
            reply.map_err(|e| format!("FLUSH: {e}"))?;
            flush_us.push(s * 1e6);
        }
        idle.finish().map_err(|e| format!("END: {e}"))?;
        daemon.stop()?;
        st.put("server.stats_rtt_us", median(&stats_us));
        st.put("server.flush_rtt_us", median(&flush_us));
        st.put("client.connect_hello_us_p50", median(&connect_us));
    }

    // persist: the session store alone, then recovery through the engine.
    let store_dir = scratch.path().join("layer-store");
    let store_config = || StoreConfig {
        checkpoint_every: 0,
        fsync: FsyncPolicy::Never,
        binary_events: true,
        ..StoreConfig::default()
    };
    let (mut append_s, mut checkpoint_s, mut recover_s, mut recover_cpu_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut checkpoint_bytes = 0u64;
    for _ in 0..st.passes {
        let mut store = SessionStore::create(&store_dir, 1, &hello(n, 1), store_config())
            .map_err(|e| format!("store create: {e}"))?;
        let (s, result) = secs(|| {
            ops.iter()
                .try_for_each(|(tid, op)| store.append_event(*tid, op))
        });
        result.map_err(|e| format!("append_event: {e}"))?;
        append_s.push(s);
        let (s, result) = secs(|| store.checkpoint(0, &FaultLog::default()));
        result.map_err(|e| format!("checkpoint: {e}"))?;
        checkpoint_s.push(s);
        check("store acked", store.acked(), shape.wire_events())?;
        drop(store);
        checkpoint_bytes = dir_bytes(&store_dir);
        let p0 = process_cpu();
        let (s, session) = secs(|| -> Result<Session, String> {
            let recovered = SessionStore::recover(&store_dir, store_config())
                .map_err(|e| format!("store recover: {e}"))?
                .ok_or("store recover: nothing to resume")?;
            let budget = Arc::new(MemoryBudget::new(session_config.engine.governor));
            Session::recover(recovered, &session_config, budget)
                .map_err(|e| format!("Session::recover: {e}"))
        });
        let mut session = session?;
        recover_s.push(s);
        check(
            "recovered acked",
            session.acked().unwrap_or(0),
            shape.wire_events(),
        )?;
        let spent = session.take_store();
        check_report(&session.finalize(EndReason::End).wire(), shape)?;
        recover_cpu_s.push((process_cpu() - p0).as_secs_f64());
        if let Some(store) = spent {
            store.delete().map_err(|e| format!("store delete: {e}"))?;
        }
    }
    let append_ns = median(&append_s) * 1e9 / wire;
    let checkpoint_ms = median(&checkpoint_s) * 1e3;
    st.put("persist.append_ns_per_event", append_ns);
    st.put("persist.checkpoint_ms", checkpoint_ms);
    st.put("persist.checkpoint_bytes", checkpoint_bytes as f64);
    st.put(
        "persist.recover_ns_per_event",
        median(&recover_s) * 1e9 / wire,
    );

    // wal: the log alone, one record per event of the input (cycled).
    let wal_dir = scratch.path().join("layer-wal");
    let records: Vec<Vec<u8>> = ops
        .iter()
        .cycle()
        .take(WAL_RECORDS)
        .map(|(tid, op)| encode_event_record(*tid, op))
        .collect();
    let wal_config = |fsync| WalConfig {
        fsync,
        ..WalConfig::default()
    };
    let mut writes_per_record = 0.0;
    let wal_append_s = st.median(|| {
        let _ = std::fs::remove_dir_all(&wal_dir);
        let (mut wal, _) = Wal::open(&wal_dir, wal_config(FsyncPolicy::Never))
            .map_err(|e| format!("wal open: {e}"))?;
        let before = write_syscalls();
        let (s, result) = secs(|| records.iter().try_for_each(|r| wal.append(b'F', r)));
        result.map_err(|e| format!("wal append: {e}"))?;
        if let (Some(before), Some(after)) = (before, write_syscalls()) {
            writes_per_record = (after - before) as f64 / WAL_RECORDS as f64;
        }
        Ok(s)
    })?;
    let wal_replay_s = st.median(|| {
        let (s, opened) = secs(|| Wal::open(&wal_dir, wal_config(FsyncPolicy::Never)));
        let (_, replayed) = opened.map_err(|e| format!("wal replay: {e}"))?;
        check("wal records", replayed.len() as u64, WAL_RECORDS as u64)?;
        Ok(s)
    })?;
    st.put(
        "wal.append_ns_never",
        wal_append_s * 1e9 / WAL_RECORDS as f64,
    );
    st.put(
        "wal.replay_ns_per_record",
        wal_replay_s * 1e9 / WAL_RECORDS as f64,
    );
    st.put(
        "wal.bytes_per_event",
        dir_bytes(&wal_dir) as f64 / WAL_RECORDS as f64,
    );
    st.put("wal.writes_per_event", writes_per_record);
    let _ = std::fs::remove_dir_all(&wal_dir);
    {
        let (mut wal, _) = Wal::open(&wal_dir, wal_config(FsyncPolicy::Always))
            .map_err(|e| format!("wal open: {e}"))?;
        let mut always_us = Vec::new();
        for record in records.iter().take(24) {
            let (s, result) = secs(|| wal.append(b'F', record));
            result.map_err(|e| format!("wal append (always): {e}"))?;
            always_us.push(s * 1e6);
        }
        st.put("wal.append_us_always", median(&always_us));
        drop(wal);
        let (mut wal, _) = Wal::open(&wal_dir, wal_config(FsyncPolicy::OnDemand))
            .map_err(|e| format!("wal open: {e}"))?;
        let mut sync_us = Vec::new();
        for record in records.iter().take(24) {
            wal.append(b'F', record)
                .map_err(|e| format!("wal append: {e}"))?;
            let (s, result) = secs(|| wal.sync());
            result.map_err(|e| format!("wal sync: {e}"))?;
            sync_us.push(s * 1e6);
        }
        st.put("wal.sync_us", median(&sync_us));
    }
    let _ = std::fs::remove_dir_all(&wal_dir);

    fleet(&mut st, input)?;

    // One operation priced from the stage costs: nanoseconds of CPU each
    // layer is handed, as a share of the operation's measured process CPU.
    let total = full.total();
    let (w, c) = (total.wire_events() as f64, total.cuts() as f64);
    let offline = full.kind == Kind::OfflineDetect;
    // Sessions that stream every event: none, one, or A and B.
    let streamed = match full.kind {
        Kind::OfflineDetect => 0.0,
        Kind::StreamCuts | Kind::StreamEvents => 1.0,
        Kind::DurableResume => 2.0,
    };
    let persist_ns = if full.kind == Kind::DurableResume {
        // A checkpoint re-renders the whole accepted prefix: the j-th of
        // a session costs j times the first. Recovery replays B once.
        let first = checkpoint_ms * 1e6 / wire * CHECKPOINT_EVERY as f64;
        let k = (w / CHECKPOINT_EVERY as f64).floor();
        (append_ns * w + first * k * (k + 1.0) / 2.0) * streamed
            + median(&recover_cpu_s) * 1e9 / wire * w
    } else {
        0.0
    };
    let mut coverage = 0.0;
    for layer in CPU_LAYERS {
        let cpu_ns = match *layer {
            "load" if offline => (parse_s + recorder_s) * 1e9 / wire * w,
            // The count pass, then the no-op pass plus the predicate.
            "enumerate" if offline => ((count_t1 + noop_t1) * 1e9 / cuts + race_ns) * c,
            "enumerate" => bounded_ns * c * streamed,
            "codec" => codec_s * 1e9 / wire * w * streamed,
            "socket" => socket_ns * w * streamed,
            "session_apply" => apply_ns * w * streamed,
            "session_fixed" => fixed_cpu * 1e9 * streamed,
            "persist" => persist_ns,
            _ => 0.0,
        };
        let share = cpu_ns / 1e6 / cpu_ms_per_op;
        st.put(&format!("cpu.share_{layer}"), share);
        coverage += share;
    }
    st.put("cpu.coverage_share", coverage);
    Ok(st.rows)
}

/// fleet: a router over two in-process shards — dial + `ROUTE`, and one
/// routed short session.
fn fleet(st: &mut Stages, input: &Prepared) -> Result<(), String> {
    let shape = input.block.shape;
    // About 300 events whatever the workload.
    let per_phase = shape.with_phases(1).wire_events() as usize;
    let short = shape.with_phases((288 / per_phase).max(1));
    let ops = &input.block.ops[..short.wire_events() as usize];

    let mut shards = Vec::new();
    let mut specs = Vec::new();
    for id in 0..2 {
        let mut config = server_config(1, None);
        config.first_session_id = first_session_id(id);
        let mut server = Server::new(config);
        let addr = server
            .bind_tcp("127.0.0.1:0")
            .map_err(|e| format!("shard bind: {e}"))?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run(|_| {}));
        shards.push((handle, thread));
        specs.push(ShardSpec {
            id,
            addr: addr.to_string(),
        });
    }
    let mut router = FleetRouter::new(
        specs,
        FleetConfig {
            lease_ttl: Duration::from_secs(30),
            ..FleetConfig::default()
        },
    );
    let router_addr = router
        .bind_tcp("127.0.0.1:0")
        .map_err(|e| format!("router bind: {e}"))?;
    let router_handle = router.handle();
    let router_thread = std::thread::spawn(move || router.run());

    let measured = (|| -> Result<(f64, f64), String> {
        let (mut route_us, mut session_ms) = (Vec::new(), Vec::new());
        for _ in 0..10 {
            let t = Instant::now();
            let mut client =
                Client::connect_tcp(router_addr).map_err(|e| format!("dial router: {e}"))?;
            let (_, addr) = client.route(None).map_err(|e| format!("ROUTE: {e}"))?;
            route_us.push(t.elapsed().as_secs_f64() * 1e6);
            drop(client);
            let mut client =
                Client::connect_tcp(addr.as_str()).map_err(|e| format!("dial shard: {e}"))?;
            client
                .hello(&hello(shape.threads, 1))
                .map_err(|e| format!("HELLO: {e}"))?;
            for (tid, op) in ops {
                client.event(*tid, op).map_err(|e| format!("EVENT: {e}"))?;
            }
            let report = client.finish().map_err(|e| format!("END: {e}"))?;
            session_ms.push(t.elapsed().as_secs_f64() * 1e3);
            check_report(&report, short)?;
        }
        Ok((median(&route_us), median(&session_ms)))
    })();

    // Stopped and joined whether or not the sessions went through.
    router_handle.shutdown();
    let _ = router_thread.join();
    for (handle, thread) in shards {
        handle.shutdown();
        let _ = thread.join();
    }
    let (route_us, session_ms) = measured?;
    st.put("fleet.route_us_p50", route_us);
    st.put("fleet.session_ms_p50", session_ms);
    Ok(())
}
