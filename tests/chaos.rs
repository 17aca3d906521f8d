//! Workspace-level chaos suite (compiled only with `--features chaos`):
//! deterministic fault plans driven through the *public* API of every
//! layer — offline engine, online engine, and the ingestion daemon —
//! asserting the paper's partition invariant survives injected faults.
//!
//! The load-bearing check everywhere: the surviving cut count plus the
//! cuts lost to quarantined intervals (re-enumerated sequentially,
//! minus each interval's delivered prefix) equals the sequential oracle
//! count. Faults may shrink what was *delivered*, never corrupt what
//! was *counted* — Theorem 2's disjoint cover is exactly what makes the
//! lost set re-enumerable.
#![cfg(feature = "chaos")]

use paramount::{
    Algorithm, AtomicCountSink, FaultLog, FaultPlan, OnlineEngine, OnlineEngineConfig,
    OnlineReport, Outcome, ParaMount, ParallelCutSink,
};
use paramount_enumerate::CollectSink;
use paramount_ingest::{Client, EndReason, Hello, Server, ServerConfig};
use paramount_poset::random::RandomComputation;
use paramount_poset::{oracle, topo, Poset};
use std::sync::Arc;

/// Interval subroutine under fault injection — `PARAMOUNT_CHAOS_ALGO`
/// selects it (the CI chaos matrix sets `lexical` and `leveled`), so the
/// isolation/retry/quarantine protocol is exercised with each enumerator
/// underneath the panicking sink. Defaults to lexical.
fn chaos_algo() -> Algorithm {
    match std::env::var("PARAMOUNT_CHAOS_ALGO") {
        Ok(name) => Algorithm::from_name(&name)
            .unwrap_or_else(|| panic!("PARAMOUNT_CHAOS_ALGO: unknown algorithm `{name}`")),
        Err(_) => Algorithm::Lexical,
    }
}

/// Cuts lost to quarantine: each quarantined interval re-enumerated
/// sequentially (stateless lexical subroutine), minus the prefix its
/// sink already received.
fn skipped_cuts<P: Clone + Send + Sync>(poset: &Poset<P>, faults: &FaultLog) -> u64 {
    let mut skipped = 0u64;
    for q in &faults.quarantined {
        let mut sink = CollectSink::default();
        q.interval
            .enumerate(poset, Algorithm::Lexical, &mut sink)
            .expect("lexical re-enumeration is stateless");
        skipped += sink.cuts.len() as u64 - q.cuts_emitted;
    }
    skipped
}

fn assert_online_partition<P: Clone + Send + Sync>(report: &OnlineReport<P>, context: &str) {
    let total = oracle::count_ideals(&report.poset);
    assert_eq!(
        report.cuts + skipped_cuts(&report.poset, &report.faults),
        total,
        "{context}: quarantine must partition the oracle count exactly"
    );
}

/// Offline engine under a seeded sink-panic plan, checked against the
/// ideal-lattice oracle for every pinned seed.
#[test]
fn offline_chaos_partitions_the_oracle_exactly() {
    for seed in [5u64, 23, 111] {
        let p = RandomComputation::new(4, 5, 0.35, seed).generate();
        let counter = AtomicCountSink::new();
        let stats = ParaMount::new(chaos_algo())
            .with_threads(3)
            .with_faults(FaultPlan {
                seed,
                sink_panic_every: Some(9),
                ..FaultPlan::default()
            })
            .enumerate(&p, &counter)
            .unwrap();
        assert_eq!(counter.count(), stats.cuts, "seed {seed}: meter vs sink");
        let total = oracle::count_ideals(&p);
        assert_eq!(
            stats.cuts + skipped_cuts(&p, &stats.faults),
            total,
            "seed {seed}"
        );
        if stats.faults.quarantined.is_empty() {
            assert!(matches!(stats.outcome(), Outcome::Complete));
        } else {
            assert!(matches!(stats.outcome(), Outcome::Degraded(_)));
        }
    }
}

/// Online engine replaying pinned random computations under three fault
/// plans at once: seeded sink panics, a worker kill (supervisor respawn
/// path), and dispatch-time send failures.
#[test]
fn online_chaos_partitions_the_oracle_exactly() {
    for seed in [4u64, 19, 88] {
        let reference = RandomComputation::new(3, 6, 0.4, seed).generate();
        let counter = Arc::new(AtomicCountSink::new());
        let counter_in_sink = Arc::clone(&counter);
        let engine = OnlineEngine::new(
            3,
            OnlineEngineConfig {
                workers: 3,
                algorithm: chaos_algo(),
                faults: FaultPlan {
                    seed,
                    sink_panic_every: Some(11),
                    worker_kill_at: Some(5),
                    send_fail_every: Some(7),
                    ..FaultPlan::default()
                },
                ..OnlineEngineConfig::default()
            },
            move |cut: paramount_poset::CutRef<'_>, owner| counter_in_sink.visit(cut, owner),
        );
        for &id in &topo::weight_order(&reference) {
            engine.observe_with_clock(id.tid, reference.vc(id).clone(), ());
        }
        let report = engine.finish();
        assert_eq!(counter.count(), report.cuts, "seed {seed}: meter vs sink");
        assert_online_partition(&report, &format!("seed {seed}"));
        // The process survived every injected fault; the report says how
        // degraded the run was instead of the run not existing.
        assert!(report.error.is_none(), "seed {seed}");
    }
}

/// Eight sessions fault *concurrently* inside one daemon (each session
/// thread panics after 6 accepted events); the daemon must finalize all
/// eight as `fault`, stay up, and then serve a clean ninth session with
/// the exact count.
#[test]
fn daemon_survives_eight_concurrently_faulting_sessions() {
    let mut config = ServerConfig::default();
    config.session.engine.faults.session_panic_after = Some(6);
    let mut server = Server::new(config);
    let addr = server.bind_tcp("127.0.0.1:0").expect("bind");
    let handle = server.handle();
    let daemon = std::thread::spawn(move || server.run(|_| {}).expect("run"));

    let doomed: Vec<_> = (0..8u32)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(addr).expect("connect");
                let mut hello = Hello::new(2);
                hello.label = Some(format!("doomed-{i}"));
                client.hello(&hello).expect("hello");
                for k in 0..8 {
                    client
                        .event_line(k % 2, "read x")
                        .expect("buffered event write");
                }
                // The injected panic kills the session after event 6;
                // the containment still finalizes and reports the
                // 6-event prefix (one segment per thread: 2x2 lattice
                // over the two open read segments... whatever prefix was
                // flushed, the reason must be `fault`).
                // A torn connection (report lost in the unwind race)
                // is acceptable; a hung daemon is not.
                if let Ok(report) = client.finish() {
                    assert_eq!(report.reason, EndReason::Fault, "client {i}");
                }
            })
        })
        .collect();
    for d in doomed {
        d.join().expect("doomed client thread");
    }

    // The daemon took 8 concurrent panics and still serves exactly.
    let mut clean = Client::connect_tcp(addr).expect("connect clean");
    clean.hello(&Hello::new(2)).expect("hello");
    clean.event_line(0, "read x").expect("event");
    clean.event_line(1, "read x").expect("event");
    let report = clean.finish().expect("clean session");
    assert_eq!(report.reason, EndReason::End);
    assert_eq!(report.cuts, 4);

    handle.shutdown();
    let summary = daemon.join().expect("daemon");
    assert_eq!(summary.ingest.sessions_opened, 9);
    assert_eq!(summary.ingest.sessions_faulted, 8);
    assert_eq!(summary.ingest.sessions_completed, 1);
}

/// Worker-spawn failures degrade the pool instead of failing the run:
/// even with *every* spawn failing (inline fallback), the count is
/// exact and the degradation is visible in the metrics.
#[test]
fn spawn_failures_stay_exact_end_to_end() {
    for fail_first in [2u32, 8] {
        let reference = RandomComputation::new(3, 5, 0.3, 7).generate();
        let counter = Arc::new(AtomicCountSink::new());
        let counter_in_sink = Arc::clone(&counter);
        let engine = OnlineEngine::new(
            3,
            OnlineEngineConfig {
                workers: 4,
                faults: FaultPlan {
                    spawn_fail_first: fail_first,
                    ..FaultPlan::default()
                },
                ..OnlineEngineConfig::default()
            },
            move |cut: paramount_poset::CutRef<'_>, owner| counter_in_sink.visit(cut, owner),
        );
        for &id in &topo::weight_order(&reference) {
            engine.observe_with_clock(id.tid, reference.vc(id).clone(), ());
        }
        let report = engine.finish();
        assert_eq!(report.cuts, oracle::count_ideals(&report.poset));
        assert_eq!(
            report.metrics.worker_spawn_failures,
            u64::from(fail_first.min(4)),
            "fail_first {fail_first}"
        );
    }
}
