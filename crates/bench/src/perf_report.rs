//! Machine-readable perf records for the CI regression gate (the `perf`
//! binary): serialization through [`paramount::json`] and the comparison
//! logic that decides pass/fail against a committed baseline.
//!
//! Two kinds of checks, deliberately separated:
//!
//! * **Self-consistency invariants** ([`self_check`]) hold on *any*
//!   machine and are always enforced — every algorithm visits the same
//!   cut set, the leveled walk's live state stays `O(n)`
//!   (`peak_frontiers == 1`), on wide workloads its heap peak stays
//!   below stored-frontier BFS, sparse clocks hold strictly less heap
//!   than dense vectors once the width reaches 256 (`clock-n*`
//!   workloads), and binary `paramount/2` framing moves events at least
//!   2× as fast as the text protocol over the same loopback socket
//!   (`ingest-loopback`). These are the properties the subsystems exist
//!   to deliver; a run that violates them is wrong regardless of how
//!   fast the machine is.
//! * **Baseline comparison** ([`compare`]) checks *relative* numbers
//!   (within-run throughput ratios, allocs/cut, frontier bytes) against
//!   `bench_results/baseline.json` inside a tolerance band. Absolute
//!   wall-clock never crosses machines, so only machine-stable ratios
//!   and deterministic counts are gated. A baseline marked
//!   `"bootstrap": true` has placeholder values: comparison is skipped
//!   (invariants still run) and CI uploads the fresh report as the
//!   candidate baseline to commit.

use paramount::json::{self, Json, Object};

/// One measured (workload, algorithm) cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Workload name (e.g. `d8-dense`, `w10-wide`).
    pub workload: String,
    /// Algorithm name as printed by `Algorithm::name()`.
    pub algo: String,
    /// Visited cuts — deterministic, compared exactly.
    pub cuts: u64,
    /// Wall-clock nanoseconds for the enumeration (machine-local;
    /// recorded for humans, never compared).
    pub elapsed_ns: u64,
    /// Visited cuts per second (machine-local; never compared directly).
    pub cuts_per_sec: f64,
    /// Peak stored frontiers reported by the enumerator — deterministic,
    /// compared exactly. The leveled walk must report 1.
    pub peak_frontiers: u64,
    /// Peak heap growth (bytes) during the run, from the counting
    /// allocator. Dominated by frontier storage; compared with
    /// tolerance.
    pub peak_frontier_bytes: u64,
    /// Allocation events during the run.
    pub allocs: u64,
    /// Allocation events per visited cut; compared with tolerance.
    pub allocs_per_cut: f64,
    /// Throughput normalized to the lexical scan on the same workload in
    /// the same run — the machine-independent speed signal the gate
    /// compares.
    pub rel_throughput: f64,
}

/// A full perf run: every record plus the bootstrap marker.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// True for the committed placeholder baseline produced before any
    /// real machine ran the bench: comparison is skipped, invariants are
    /// not.
    pub bootstrap: bool,
    /// All measured cells, in run order.
    pub records: Vec<Record>,
}

impl Report {
    /// Serializes to the `BENCH_perf.json` schema, one record per line.
    pub fn to_json(&self) -> String {
        let records = self.records.iter().map(|r| {
            Object::new()
                .str("workload", &r.workload)
                .str("algo", &r.algo)
                .u64("cuts", r.cuts)
                .u64("elapsed_ns", r.elapsed_ns)
                .f64("cuts_per_sec", r.cuts_per_sec, 1)
                .u64("peak_frontiers", r.peak_frontiers)
                .u64("peak_frontier_bytes", r.peak_frontier_bytes)
                .u64("allocs", r.allocs)
                .f64("allocs_per_cut", r.allocs_per_cut, 4)
                .f64("rel_throughput", r.rel_throughput, 4)
        });
        let report = Object::new()
            .u64("schema", 1)
            .bool("bootstrap", self.bootstrap)
            .array("records", ",\n", records);
        report.finish() + "\n"
    }

    /// Parses a report written by [`Report::to_json`] (or hand-edited —
    /// any standard JSON with the same shape).
    pub fn from_json(text: &str) -> Result<Report, String> {
        let value = json::parse(text)?;
        if !matches!(value, Json::Obj(_)) {
            return Err("top level is not an object".to_string());
        }
        let bootstrap = match value.get("bootstrap") {
            Some(Json::Bool(b)) => *b,
            None => false,
            Some(other) => return Err(format!("bootstrap is not a bool: {other:?}")),
        };
        let records_json = value
            .get("records")
            .and_then(Json::as_arr)
            .ok_or("missing records array")?;
        let mut records = Vec::new();
        for rec in records_json {
            let text = |name: &str| -> Result<String, String> {
                rec.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("record missing string `{name}`"))
            };
            let count = |name: &str| -> Result<u64, String> {
                rec.get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("record missing count `{name}`"))
            };
            let ratio = |name: &str| -> Result<f64, String> {
                rec.get(name)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("record missing number `{name}`"))
            };
            records.push(Record {
                workload: text("workload")?,
                algo: text("algo")?,
                cuts: count("cuts")?,
                elapsed_ns: count("elapsed_ns")?,
                cuts_per_sec: ratio("cuts_per_sec")?,
                peak_frontiers: count("peak_frontiers")?,
                peak_frontier_bytes: count("peak_frontier_bytes")?,
                allocs: count("allocs")?,
                allocs_per_cut: ratio("allocs_per_cut")?,
                rel_throughput: ratio("rel_throughput")?,
            });
        }
        Ok(Report { bootstrap, records })
    }

    fn get(&self, workload: &str, algo: &str) -> Option<&Record> {
        self.records
            .iter()
            .find(|r| r.workload == workload && r.algo == algo)
    }
}

/// Machine-independent invariants on a single run. Returns human-readable
/// failures; empty means the run is internally sound.
pub fn self_check(report: &Report) -> Vec<String> {
    let mut failures = Vec::new();
    let mut workloads: Vec<&str> = report.records.iter().map(|r| r.workload.as_str()).collect();
    workloads.dedup();
    for w in workloads {
        let rows: Vec<&Record> = report.records.iter().filter(|r| r.workload == w).collect();
        // Exactly-once across subroutines: everyone sees the same lattice.
        for pair in rows.windows(2) {
            if pair[0].cuts != pair[1].cuts {
                failures.push(format!(
                    "{w}: cut counts disagree — {}={} vs {}={}",
                    pair[0].algo, pair[0].cuts, pair[1].algo, pair[1].cuts
                ));
            }
        }
        let leveled = rows.iter().find(|r| r.algo == "leveled");
        if let Some(lvl) = leveled {
            // The space bound the leveled walk exists for.
            if lvl.peak_frontiers != 1 {
                failures.push(format!(
                    "{w}: leveled peak_frontiers = {} (must regenerate, not store)",
                    lvl.peak_frontiers
                ));
            }
            // On wide lattices, stored-frontier BFS must pay measurably
            // more heap than regeneration. Narrow workloads are exempt:
            // their level sets are small enough that fixed overheads
            // dominate the comparison.
            if w.contains("wide") {
                if let Some(bfs) = rows.iter().find(|r| r.algo == "bfs") {
                    if lvl.peak_frontier_bytes >= bfs.peak_frontier_bytes {
                        failures.push(format!(
                            "{w}: leveled peak bytes {} not below bfs {}",
                            lvl.peak_frontier_bytes, bfs.peak_frontier_bytes
                        ));
                    }
                }
            }
        }
        // The sparse clock representation's claim: once the width
        // outgrows the causal neighborhood, sparse clocks must hold
        // strictly less heap than dense vectors on the same
        // communication pattern. Narrow widths are exempt — a dense
        // `n=8` vector is 32 bytes and per-entry bookkeeping can only
        // lose there.
        if let Some(width) = w
            .strip_prefix("clock-n")
            .and_then(|s| s.parse::<u64>().ok())
        {
            if width >= 256 {
                let dense = rows.iter().find(|r| r.algo == "dense");
                let sparse = rows.iter().find(|r| r.algo == "sparse");
                if let (Some(dense), Some(sparse)) = (dense, sparse) {
                    if sparse.peak_frontier_bytes >= dense.peak_frontier_bytes {
                        failures.push(format!(
                            "{w}: sparse peak bytes {} not below dense {}",
                            sparse.peak_frontier_bytes, dense.peak_frontier_bytes
                        ));
                    }
                }
            }
        }
        // The binary framing's claim: `paramount/2` must move events at
        // least twice as fast as the text protocol over the same
        // loopback socket (rel_throughput is normalized to the text row
        // in the same run, so the floor is machine-independent).
        if w == "ingest-loopback" {
            if let Some(binary) = rows.iter().find(|r| r.algo == "binary") {
                if binary.rel_throughput < 2.0 {
                    failures.push(format!(
                        "{w}: binary rel_throughput {:.2} below the 2.0x floor over text",
                        binary.rel_throughput
                    ));
                }
            }
        }
    }
    failures
}

/// Compares a fresh run against a baseline within `tolerance`
/// (fractional, e.g. `0.15`). Returns failures; empty means no
/// regression. Deterministic fields (cuts, peak frontiers) are exact;
/// ratio fields get the band. Records present in the baseline but
/// missing from the run fail — coverage must not silently shrink.
pub fn compare(current: &Report, baseline: &Report, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for base in &baseline.records {
        let key = format!("{}/{}", base.workload, base.algo);
        let Some(cur) = current.get(&base.workload, &base.algo) else {
            failures.push(format!("{key}: in baseline but not measured"));
            continue;
        };
        if cur.cuts != base.cuts {
            failures.push(format!(
                "{key}: cuts {} != baseline {}",
                cur.cuts, base.cuts
            ));
        }
        if cur.peak_frontiers != base.peak_frontiers {
            failures.push(format!(
                "{key}: peak_frontiers {} != baseline {}",
                cur.peak_frontiers, base.peak_frontiers
            ));
        }
        if cur.rel_throughput < base.rel_throughput * (1.0 - tolerance) {
            failures.push(format!(
                "{key}: rel_throughput {:.3} regressed below baseline {:.3} (-{:.0}% band)",
                cur.rel_throughput,
                base.rel_throughput,
                tolerance * 100.0
            ));
        }
        if (cur.peak_frontier_bytes as f64) > (base.peak_frontier_bytes as f64) * (1.0 + tolerance)
        {
            failures.push(format!(
                "{key}: peak_frontier_bytes {} grew past baseline {} (+{:.0}% band)",
                cur.peak_frontier_bytes,
                base.peak_frontier_bytes,
                tolerance * 100.0
            ));
        }
        if cur.allocs_per_cut > base.allocs_per_cut * (1.0 + tolerance) + 0.01 {
            failures.push(format!(
                "{key}: allocs_per_cut {:.4} grew past baseline {:.4} (+{:.0}% band)",
                cur.allocs_per_cut,
                base.allocs_per_cut,
                tolerance * 100.0
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, algo: &str) -> Record {
        Record {
            workload: workload.to_string(),
            algo: algo.to_string(),
            cuts: 1000,
            elapsed_ns: 5_000_000,
            cuts_per_sec: 200_000.0,
            peak_frontiers: if algo == "leveled" { 1 } else { 64 },
            peak_frontier_bytes: if algo == "leveled" { 512 } else { 65536 },
            allocs: 40,
            allocs_per_cut: 0.04,
            rel_throughput: 1.0,
        }
    }

    #[test]
    fn json_roundtrip_preserves_records() {
        let report = Report {
            bootstrap: true,
            records: vec![record("w10-wide", "bfs"), record("w10-wide", "leveled")],
        };
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.bootstrap, report.bootstrap);
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.records[0].workload, "w10-wide");
        assert_eq!(parsed.records[1].peak_frontiers, 1);
        assert_eq!(parsed.records[0].cuts, 1000);
    }

    #[test]
    fn self_check_catches_each_invariant() {
        let mut report = Report {
            bootstrap: false,
            records: vec![record("w10-wide", "bfs"), record("w10-wide", "leveled")],
        };
        assert!(self_check(&report).is_empty());

        report.records[1].cuts = 999;
        assert!(self_check(&report)[0].contains("cut counts disagree"));
        report.records[1].cuts = 1000;

        report.records[1].peak_frontiers = 7;
        assert!(self_check(&report)[0].contains("peak_frontiers"));
        report.records[1].peak_frontiers = 1;

        report.records[1].peak_frontier_bytes = 1 << 30;
        assert!(self_check(&report)[0].contains("not below bfs"));
    }

    #[test]
    fn sparse_clocks_must_beat_dense_heap_at_wide_widths() {
        let mut report = Report {
            bootstrap: false,
            records: vec![
                record("clock-n1024", "dense"),
                record("clock-n1024", "sparse"),
            ],
        };
        report.records[0].peak_frontier_bytes = 8 << 20;
        report.records[1].peak_frontier_bytes = 1 << 20;
        assert!(self_check(&report).is_empty());

        report.records[1].peak_frontier_bytes = 8 << 20;
        assert!(self_check(&report)[0].contains("not below dense"));

        // Below the 256 threshold the dense layout is allowed to win.
        for r in &mut report.records {
            r.workload = "clock-n64".to_string();
        }
        assert!(self_check(&report).is_empty());
    }

    #[test]
    fn binary_framing_must_clear_the_2x_throughput_floor() {
        let mut report = Report {
            bootstrap: false,
            records: vec![
                record("ingest-loopback", "text"),
                record("ingest-loopback", "binary"),
            ],
        };
        report.records[1].rel_throughput = 3.1;
        assert!(self_check(&report).is_empty());

        report.records[1].rel_throughput = 1.4;
        assert!(self_check(&report)[0].contains("2.0x floor"));
    }

    #[test]
    fn narrow_workloads_skip_the_bytes_invariant() {
        let mut report = Report {
            bootstrap: false,
            records: vec![record("d8-dense", "bfs"), record("d8-dense", "leveled")],
        };
        report.records[1].peak_frontier_bytes = 1 << 30;
        assert!(self_check(&report).is_empty());
    }

    #[test]
    fn compare_is_exact_on_counts_and_banded_on_ratios() {
        let baseline = Report {
            bootstrap: false,
            records: vec![record("w10-wide", "leveled")],
        };
        let mut current = baseline.clone();
        assert!(compare(&current, &baseline, 0.15).is_empty());

        // Inside the band: fine.
        current.records[0].rel_throughput = 0.90;
        current.records[0].peak_frontier_bytes = 560;
        assert!(compare(&current, &baseline, 0.15).is_empty());

        // Outside: each trips its own failure.
        current.records[0].rel_throughput = 0.80;
        current.records[0].peak_frontier_bytes = 1024;
        current.records[0].cuts = 1001;
        let failures = compare(&current, &baseline, 0.15);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("cuts")));
        assert!(failures.iter().any(|f| f.contains("rel_throughput")));
        assert!(failures.iter().any(|f| f.contains("peak_frontier_bytes")));
    }

    #[test]
    fn missing_coverage_fails_the_gate() {
        let baseline = Report {
            bootstrap: false,
            records: vec![record("w10-wide", "leveled"), record("w10-wide", "bfs")],
        };
        let current = Report {
            bootstrap: false,
            records: vec![record("w10-wide", "leveled")],
        };
        let failures = compare(&current, &baseline, 0.15);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("not measured"));
    }
}
