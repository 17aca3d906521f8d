//! `e2e`: the end-to-end, layer-attributed benchmark of the shipped
//! ParaMount path. See `e2e/README.md`.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//!     [--workers <1|2>]                  (experiment only; gated runs use 1)
//! e2e [--seed N] [--seconds S] [--repeat K]                      self-check
//! e2e --describe                                                 BENCHMARK.json
//! ```

mod alloc;
mod clock;
mod gen;
mod layers;
mod result;
mod run;
mod selfcheck;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    workers: usize,
    describe: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        repeat: 3,
        workers: 1,
        describe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            cli.describe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: `{value}` is not valid");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.seconds > 0.0 && cli.seconds <= 170.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                cli.repeat = value.parse().map_err(|_| bad())?;
                if cli.repeat < 2 {
                    return Err(format!("{flag}: a spread needs two runs"));
                }
            }
            "--workers" => {
                cli.workers = value.parse().map_err(|_| bad())?;
                if !(1..=2).contains(&cli.workers) {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(reason) => {
            eprintln!("e2e: {reason}");
            return ExitCode::from(2);
        }
    };
    if cli.describe {
        print!("{}", spec::describe());
        return ExitCode::SUCCESS;
    }
    let Some(name) = cli.workload else {
        return if selfcheck::run(cli.seed, cli.seconds, cli.repeat) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };
    let Some(workload) = spec::workload(&name) else {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("e2e: unknown workload `{name}`; one of {names:?}");
        return ExitCode::from(2);
    };
    if cli.trace {
        alloc::enable();
    }
    let args = run::Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        workers: cli.workers,
    };
    match run::run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(reason) => {
            eprintln!("e2e: {reason}");
            ExitCode::from(2)
        }
    }
}
