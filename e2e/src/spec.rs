//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repository
//! root is `describe()` of these tables (a unit test holds the committed
//! file to it), and every run reports exactly the names listed here.

use crate::gen::Shape;

/// Seconds one run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 30;

/// What the driver runs from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--config",
    "e2e/cargo-config.toml",
    "--manifest-path",
    "e2e/Cargo.toml",
    "--",
];

pub const PATHS: &[&str] = &["e2e"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    OfflineDetect,
    StreamCuts,
    StreamEvents,
    DurableResume,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// One block of input.
    pub shape: Shape,
    /// How many times a session sends the block.
    pub repeat: usize,
    /// Phases of the short prefix a set-up repetition runs.
    pub setup_phases: usize,
    /// Phases of the prefix a traced run replays through each layer in
    /// isolation (a pass over it stays in the tens of milliseconds).
    pub layer_phases: usize,
    /// Highest round percentile with at least ten samples beyond it in a
    /// run of `RUN_SECONDS`.
    pub tail: f64,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "offline-detect",
        kind: Kind::OfflineDetect,
        shape: Shape {
            threads: 8,
            rounds: 3,
            accesses: 2,
            phases: 16,
            vars: 8,
        },
        repeat: 1,
        setup_phases: 2,
        layer_phases: 4,
        tail: 0.90,
        why: "trace text -> parse, recorder, 1-thread ParaMount count then race detection: the count/detect path and rayon batch mode; no socket, codec or WAL",
    },
    Workload {
        name: "stream-cuts",
        kind: Kind::StreamCuts,
        shape: Shape {
            threads: 8,
            rounds: 3,
            accesses: 4,
            phases: 40,
            vars: 8,
        },
        repeat: 1,
        setup_phases: 2,
        layer_phases: 4,
        tail: 0.90,
        why: "one paramount/2 session on a fresh daemon, ~370 cuts per wire event: queue, streaming executor, bounded enumeration; ingest under 1 %",
    },
    Workload {
        name: "stream-events",
        kind: Kind::StreamEvents,
        shape: Shape {
            threads: 4,
            rounds: 1,
            accesses: 4,
            phases: 1000,
            vars: 64,
        },
        repeat: 10,
        setup_phases: 100,
        layer_phases: 1000,
        tail: 0.90,
        why: "320 000 events, 0.47 cuts per event, 320 names, FLUSH every 1024: client interning and encode, socket, decode, session apply, recorder, insert; enumeration ~2 %",
    },
    Workload {
        name: "durable-resume",
        kind: Kind::DurableResume,
        shape: Shape {
            threads: 4,
            rounds: 1,
            accesses: 4,
            phases: 1000,
            vars: 4,
        },
        repeat: 1,
        setup_phases: 160,
        layer_phases: 1000,
        tail: 0.99,
        why: "the same events with the store (fsync never): FLUSH every 1024, WAL append, checkpoints, daemon restart, recovery replay and RESUME",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", false, 0.25),
    e2e("cuts_per_s", "1/s", true, 0.20),
    e2e("op_ms_p50", "ms", false, 0.25),
    e2e("op_ms_tail", "ms", false, 0.25),
    e2e("finish_ms", "ms", false, 0.25),
    e2e("first_ack_ms", "ms", false, 0.25),
    e2e("cpu_ms_per_op", "ms", false, 0.20),
    e2e("producer_cpu_ns_per_event", "ns", false, 0.20),
    e2e("peak_rss_mb", "MB", false, 0.15),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Spans a traced operation records (`wall.share_<span>`), in the order
/// they can occur.
pub const SPANS: &[&str] = &[
    "offline.load",
    "offline.count",
    "offline.detect",
    "server.start",
    "client.connect",
    "client.hello",
    "client.stream",
    "client.flush",
    "client.finish",
    "server.stop",
    "client.resume",
];

/// Layers one operation's CPU is priced over (`cpu.share_<layer>`).
pub const CPU_LAYERS: &[&str] = &[
    "load",
    "enumerate",
    "codec",
    "socket",
    "session_apply",
    "persist",
    "session_fixed",
];

pub const PER_LAYER: &[PerLayer] = &[
    lower("vclock.join_ns", "ns"),
    lower("trace.parse_ns_per_line", "ns"),
    lower("trace.recorder_ns_per_op", "ns"),
    lower("trace.ops_per_poset_event", "count"),
    lower("enumerate.lexical_ns_per_cut", "ns"),
    lower("enumerate.bfs_ns_per_cut", "ns"),
    lower("enumerate.leveled_ns_per_cut", "ns"),
    lower("enumerate.bounded_ns_per_cut", "ns"),
    lower("enumerate.ns_per_cut_per_n2", "ns"),
    lower("enumerate.expansions_per_cut", "count"),
    lower("core.partition_ns_per_event", "ns"),
    lower("core.offline_ns_per_cut_t1", "ns"),
    lower("core.offline_ns_per_cut_t2", "ns"),
    higher("core.offline_speedup_t2", "x"),
    lower("core.count_sink_ns_per_cut_t1", "ns"),
    lower("core.count_sink_ns_per_cut_t2", "ns"),
    higher("core.count_sink_speedup_t2", "x"),
    lower("core.work_cuts", "count"),
    lower("core.critical_path_cuts", "count"),
    lower("core.insert_ns_per_event", "ns"),
    lower("core.online_ns_per_cut_w1", "ns"),
    lower("core.online_ns_per_cut_w2", "ns"),
    higher("core.online_speedup_w2", "x"),
    lower("core.online_overhead_ns_per_event", "ns"),
    lower("core.queue_ns_per_interval", "ns"),
    lower("core.intervals_dispatched", "count"),
    lower("core.queue_depth_high_water", "count"),
    higher("core.worker_busy_share", "share"),
    lower("core.insert_critical_ns_mean", "ns"),
    lower("detect.race_ns_per_cut", "ns"),
    higher("detect.race_speedup_t2", "x"),
    lower("wire2.encode_ns_per_event", "ns"),
    lower("wire2.decode_ns_per_event", "ns"),
    lower("wire2.bytes_per_event", "B"),
    lower("proto.encode_ns_per_event", "ns"),
    lower("proto.parse_ns_per_event", "ns"),
    lower("proto.bytes_per_event", "B"),
    lower("session.open_us", "us"),
    lower("session.apply_ns_per_event", "ns"),
    lower("session.finalize_ms", "ms"),
    lower("server.socket_ns_per_event", "ns"),
    lower("server.stats_rtt_us", "us"),
    lower("server.flush_rtt_us", "us"),
    lower("client.connect_hello_us_p50", "us"),
    lower("persist.append_ns_per_event", "ns"),
    lower("persist.checkpoint_ms", "ms"),
    lower("persist.checkpoint_bytes", "B"),
    lower("persist.checkpoints", "count"),
    lower("persist.recover_ns_per_event", "ns"),
    lower("wal.append_ns_never", "ns"),
    lower("wal.append_us_always", "us"),
    lower("wal.sync_us", "us"),
    lower("wal.replay_ns_per_record", "ns"),
    lower("wal.bytes_per_event", "B"),
    lower("wal.writes_per_event", "count"),
    lower("fleet.route_us_p50", "us"),
    lower("fleet.session_ms_p50", "ms"),
    lower("mem.allocs_per_cut", "count"),
    lower("mem.allocs_per_event", "count"),
    lower("mem.peak_heap_mb", "MB"),
    lower("span.count", "count"),
    lower("span.overhead_share", "share"),
    lower("wall.share_offline.load", "share"),
    lower("wall.share_offline.count", "share"),
    lower("wall.share_offline.detect", "share"),
    lower("wall.share_server.start", "share"),
    lower("wall.share_client.connect", "share"),
    lower("wall.share_client.hello", "share"),
    lower("wall.share_client.stream", "share"),
    lower("wall.share_client.flush", "share"),
    lower("wall.share_client.finish", "share"),
    lower("wall.share_server.stop", "share"),
    lower("wall.share_client.resume", "share"),
    lower("wall.share_unattributed", "share"),
    lower("cpu.share_load", "share"),
    lower("cpu.share_enumerate", "share"),
    lower("cpu.share_codec", "share"),
    lower("cpu.share_socket", "share"),
    lower("cpu.share_session_apply", "share"),
    lower("cpu.share_persist", "share"),
    lower("cpu.share_session_fixed", "share"),
    higher("cpu.coverage_share", "share"),
];

fn json_str(s: &str) -> String {
    // Names, units and reasons are plain ASCII without quotes or
    // backslashes (a unit test holds them to it), so quoting suffices.
    format!("\"{s}\"")
}

fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// `BENCHMARK.json`, byte for byte.
pub fn describe() -> String {
    let list = |items: Vec<String>, indent: &str| {
        let sep = format!(",\n{indent}  ");
        format!("[\n{indent}  {}\n{indent}]", items.join(&sep))
    };
    let command = COMMAND.iter().map(|s| json_str(s)).collect::<Vec<_>>();
    let paths = PATHS.iter().map(|s| json_str(s)).collect::<Vec<_>>();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(better(m.higher_is_better)),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(better(m.higher_is_better))
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        paths.join(", "),
        RUN_SECONDS,
        list(workloads, "  "),
        list(end_to_end, "  "),
        list(per_layer, "  "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_limits_meet_the_contract() {
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains(['"', '\\', '\n']));
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|s| s.len() <= 200));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(describe().len() <= 64 * 1024);
        // 4 + 22 runs per workload and two builds inside 3420 s.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 3) + 2 * 120 <= 3420);
    }

    #[test]
    fn every_span_and_cpu_layer_has_its_share_metric() {
        for span in SPANS {
            let name = format!("wall.share_{span}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        for layer in CPU_LAYERS {
            let name = format!("cpu.share_{layer}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        assert!(SPANS.len() <= 12);
    }

    #[test]
    fn committed_benchmark_json_is_describe() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            describe(),
            "regenerate with: cargo run ... -- --describe > BENCHMARK.json"
        );
    }
}
