//! Self-check: every workload several times, each run in a child process
//! under a timeout, and the spread of every end-to-end metric held to
//! half its bound — the rule the benchmark is accepted by.

use crate::result::RunResult;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs this executable once on `workload`; the child is killed and
/// reaped when it outlives `timeout`.
fn child(workload: &str, seed: u64, seconds: f64, timeout: Duration) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    // A run prints a few kilobytes: well inside the pipe's buffer, so
    // polling for the exit before reading cannot deadlock.
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > timeout => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("timed out after {timeout:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let mut output = String::new();
    child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut output)
        .map_err(|e| format!("read: {e}"))?;
    let last = output.lines().last().unwrap_or_default();
    let result = RunResult::parse(last).map_err(|e| format!("result line: {e}"))?;
    if !status.success() || !result.correct || result.failed > 0 {
        return Err(format!(
            "exit {status}, correct={}, failed={} of {}",
            result.correct, result.failed, result.attempted
        ));
    }
    Ok(result)
}

/// Returns whether every run passed and every spread is within half its
/// metric's bound.
pub fn run(seed: u64, seconds: f64, repeat: usize) -> bool {
    let timeout = Duration::from_secs_f64(seconds + 120.0);
    let mut ok = true;
    for workload in WORKLOADS {
        println!("== {} ({repeat} runs of {seconds} s)", workload.name);
        let mut runs = Vec::new();
        for i in 0..repeat {
            match child(workload.name, seed + i as u64, seconds, timeout) {
                Ok(result) => runs.push(result),
                Err(reason) => {
                    println!("run {i} (seed {}) FAILED: {reason}", seed + i as u64);
                    ok = false;
                }
            }
        }
        if runs.len() < 2 {
            continue;
        }
        println!(
            "{:<28} {:>14} {:>14} {:>14} {:>8} {:>8}",
            "metric", "min", "median", "max", "spread", "/bound"
        );
        for metric in END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.get(metric.name)).collect();
            if values.len() != runs.len() {
                println!("{:<28} missing from a run", metric.name);
                ok = false;
                continue;
            }
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let share = spread(&values) / metric.bound;
            // `setup_s` is held to its bound by medians only.
            let wide = share > 0.5 && metric.name != "setup_s";
            println!(
                "{:<28} {:>14.4} {:>14.4} {:>14.4} {:>7.1}% {:>8.2}{}",
                metric.name,
                lo,
                median(&values),
                hi,
                spread(&values) * 100.0,
                share,
                if wide { "  TOO WIDE" } else { "" }
            );
            ok &= !wide;
        }
    }
    ok
}
