//! Byte-exact fixtures for every STATS exposition the `paramount` crate
//! owns: the text and JSON-lines reports of the three metric registries
//! (default and fully populated) and the `memory_budget` line. The files
//! under `tests/golden/` are the contract `scripts/fleet_smoke.sh`, the CI
//! greps and the router's probe parser read; a change to a renderer that
//! moves one byte fails here first.

use paramount::json::{self, Json, Object};
use paramount::{
    FleetMetrics, FleetSnapshot, GovernorConfig, IngestMetrics, IngestSnapshot, MemoryBudget,
    MetricsSnapshot, ParaMetrics,
};

/// A label that needs every escape the writer knows: quote, backslash,
/// tab and a bare control character.
const HOSTILE_LABEL: &str = "run \"7\"\t\\x\u{1}";

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn assert_golden(name: &str, actual: &str) {
    let expected = golden(name);
    assert!(
        expected == actual,
        "{name} differs\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

/// Every counter non-zero (each with its own value), every gauge below its
/// high-water mark, both histograms over several buckets, two workers.
fn populated_engine() -> MetricsSnapshot {
    let m = ParaMetrics::new(2);
    m.events_inserted.add(101);
    m.intervals_dispatched.add(102);
    m.intervals_completed.add(103);
    m.intervals_spilled.add(104);
    m.intervals_rejected.add(105);
    m.cuts_emitted.add_on(0, 100);
    m.cuts_emitted.add_on(1, 6);
    m.worker_panics.add(107);
    m.intervals_quarantined.add(108);
    m.intervals_retried.add(109);
    m.worker_restarts.add(110);
    m.worker_spawn_failures.add(111);
    m.backpressure_promotions.add(112);
    m.intervals_preempted.add(113);
    m.intervals_split.add(114);
    m.watchdog_wakeups.add(115);
    m.queue_batches.add(116);
    m.intervals_auto_leveled.add(117);
    m.intervals_auto_lexical.add(118);
    m.disk_spill_batches.add(119);
    for v in [0, 1, 1, 5, 9, 1000, 70_000] {
        m.interval_cuts.record(v);
    }
    for v in [40, 300, 310, 5_000, 1 << 63] {
        m.insert_critical_ns.record(v);
    }
    for _ in 0..5 {
        m.queue_depth.inc();
    }
    m.queue_depth.dec();
    m.queue_depth.dec();
    m.spill_bytes.add(640);
    m.spill_bytes.sub(600);
    m.disk_spill_bytes.add(4096);
    m.disk_spill_bytes.sub(1024);
    m.worker(0).add_busy(1_500_000);
    m.worker(0).add_idle(500_000);
    m.worker(0).add_interval();
    m.worker(0).add_interval();
    m.worker(1).add_busy(250_000);
    m.worker(1).add_idle(2_250_000);
    m.worker(1).add_interval();
    m.snapshot()
}

fn populated_ingest() -> IngestSnapshot {
    let m = IngestMetrics::new();
    m.sessions_opened.add(201);
    m.sessions_rejected.add(202);
    m.sessions_completed.add(203);
    m.sessions_aborted.add(204);
    m.sessions_faulted.add(205);
    m.frames_decoded.add(206);
    m.decode_errors.add(207);
    m.bytes_in.add(208);
    m.checkpoint_writes.add(209);
    m.sessions_recovered.add(210);
    m.active_sessions.add(7);
    m.active_sessions.sub(4);
    m.wal_segments.add(9);
    m.wal_segments.sub(8);
    m.snapshot()
}

fn populated_fleet() -> FleetSnapshot {
    let m = FleetMetrics::new();
    m.probes.add(301);
    m.probe_failures.add(302);
    m.sessions_routed.add(303);
    m.sessions_migrated.add(304);
    m.failovers.add(305);
    m.routes_rejected.add(306);
    m.leases_granted.add(307);
    m.lease_expiries.add(308);
    m.shards_fenced.add(309);
    m.shards_rejoined.add(310);
    m.shards_up.set(3);
    m.shards_suspect.set(2);
    m.shards_down.set(4);
    m.shards_down.set(1);
    m.fencing_epoch.set(12);
    for v in [0, 90, 120, 130, 8_000] {
        m.probe_latency_us.record(v);
    }
    m.snapshot()
}

#[test]
fn engine_reports_match_the_fixtures() {
    let empty = ParaMetrics::new(0).snapshot();
    assert_golden("engine_default.txt", &empty.render_text());
    assert_golden("engine_default.jsonl", &empty.to_json_lines("engine"));
    let full = populated_engine();
    assert_golden("engine_populated.txt", &full.render_text());
    assert_golden("engine_populated.jsonl", &full.to_json_lines(HOSTILE_LABEL));
}

/// `Default` for a snapshot has empty bucket vectors, a folded registry
/// 65 zeroed buckets: both must render the same report.
#[test]
fn default_snapshots_render_like_folded_empty_registries() {
    let folded = ParaMetrics::new(0).snapshot();
    let plain = MetricsSnapshot::default();
    assert_eq!(folded.render_text(), plain.render_text());
    assert_eq!(folded.to_json_lines("x"), plain.to_json_lines("x"));
    let folded = FleetMetrics::new().snapshot();
    let plain = FleetSnapshot::default();
    assert_eq!(folded.render_text(), plain.render_text());
    assert_eq!(folded.to_json_lines("x"), plain.to_json_lines("x"));
    assert_eq!(IngestMetrics::new().snapshot(), IngestSnapshot::default());
}

#[test]
fn ingest_reports_match_the_fixtures() {
    let empty = IngestMetrics::new().snapshot();
    assert_golden("ingest_default.txt", &empty.render_text());
    assert_golden("ingest_default.jsonl", &empty.to_json_lines("ingest"));
    let full = populated_ingest();
    assert_golden("ingest_populated.txt", &full.render_text());
    assert_golden("ingest_populated.jsonl", &full.to_json_lines(HOSTILE_LABEL));
}

#[test]
fn fleet_reports_match_the_fixtures() {
    let empty = FleetMetrics::new().snapshot();
    assert_golden("fleet_default.txt", &empty.render_text());
    assert_golden("fleet_default.jsonl", &empty.to_json_lines("fleet"));
    let full = populated_fleet();
    assert_golden("fleet_populated.txt", &full.render_text());
    assert_golden("fleet_populated.jsonl", &full.to_json_lines(HOSTILE_LABEL));
}

/// The three shapes of the `memory_budget` line: no watermarks, soft and
/// hard set, and the disk tier in use under a cap.
fn budget_lines() -> String {
    let unlimited = MemoryBudget::unlimited();
    unlimited.charge_spill(10);
    unlimited.charge_retained(7);

    let capped = MemoryBudget::new(GovernorConfig {
        soft_spill_bytes: Some(64),
        hard_spill_bytes: Some(256),
        ..GovernorConfig::default()
    });
    capped.charge_spill(80);
    capped.credit_spill(30);
    capped.charge_retained(5);

    let disk = MemoryBudget::new(GovernorConfig {
        soft_spill_bytes: Some(10),
        hard_spill_bytes: Some(20),
        disk_spill_bytes: Some(100),
        ..GovernorConfig::default()
    });
    disk.charge_spill(20);
    disk.credit_spill(20);
    disk.charge_disk(20);
    disk.credit_disk(5);

    let mut out = String::new();
    for (budget, label) in [
        (&unlimited, "ingest"),
        (&capped, "a \"quoted\\\" label"),
        (&disk, "disk"),
    ] {
        out.push_str(&budget.snapshot().to_json_line(label));
        out.push('\n');
    }
    out
}

#[test]
fn memory_budget_lines_match_the_fixture() {
    assert_golden("memory_budget.jsonl", &budget_lines());
}

/// Rebuilds a parsed object with the writer (fixture lines hold strings,
/// integers and arrays of objects — nothing else).
fn rewrite(value: &Json) -> Object {
    let Json::Obj(members) = value else {
        panic!("not an object: {value:?}")
    };
    members
        .iter()
        .fold(Object::new(), |object, (key, value)| match value {
            Json::Str(s) => object.str(key, s),
            Json::U64(n) => object.u64(key, *n),
            Json::Arr(items) => object.array(key, ",", items.iter().map(rewrite)),
            other => panic!("unexpected member {key}: {other:?}"),
        })
}

/// Writer → reader → writer over every line of every fixture, the ingest
/// crate's included: the reader accepts what the writer emits, keeps every
/// integer exact and undoes every escape.
#[test]
fn every_fixture_line_round_trips_through_the_reader() {
    let mut lines = 0;
    for dir in ["tests/golden", "../ingest/tests/golden"] {
        let dir = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
        for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("{dir}: {e}")) {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|ext| ext == "jsonl") {
                for line in std::fs::read_to_string(&path).expect("fixture").lines() {
                    let parsed = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
                    assert_eq!(rewrite(&parsed).finish(), line, "{}", path.display());
                    lines += 1;
                }
            }
        }
    }
    assert!(lines > 100, "only {lines} fixture lines found");
    let hostile = json::parse(golden("engine_populated.jsonl").lines().next().unwrap()).unwrap();
    assert_eq!(
        hostile.get("label").and_then(Json::as_str),
        Some(HOSTILE_LABEL)
    );
}
