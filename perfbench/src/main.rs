//! End-to-end and per-layer benchmark of the Phoenix cluster simulator.
//!
//! ```text
//! perfbench --workload monitor_640|monitor_5120|faults --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the workload repeats for `--seconds` of host time and
//! prints the end-to-end metrics; with `--trace 1` it does the same and then
//! a traced pass that attributes host time to layers and kernel actors, and
//! prints the per-layer metrics. Every repetition's outputs are checked; a
//! failed check prints the reason on stderr, an empty metric set with
//! `"correct": false`, and exits 1. The last stdout line is always the JSON
//! result. See `perfbench/README.md` for the workloads and metrics.

mod faults;
mod host;
mod micro;
mod monitor;
mod report;
mod tracer;

use report::{Outcome, Report};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The benchmark's workloads, by command-line name.
const WORKLOADS: [&str; 3] = ["monitor_640", "monitor_5120", "faults"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => return usage(&why),
    };
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let outcome = match args.workload.as_str() {
        "monitor_640" => monitor::run(&monitor::MONITOR_640, args.seed, budget, args.trace),
        "monitor_5120" => monitor::run(&monitor::MONITOR_5120, args.seed, budget, args.trace),
        "faults" => faults::run(budget, args.trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    let Outcome {
        mut report,
        attempted,
        failed,
        fingerprint,
        mut errors,
    } = outcome;
    if let Err(e) = report::check_fingerprint(&args.workload, args.seed, &fingerprint) {
        errors.push(e);
    }
    report.check_names(if args.trace {
        report::per_layer
    } else {
        report::end_to_end
    });
    errors.append(&mut report.errors);
    eprintln!(
        "perfbench: {} seed {} trace {}: {} operations, {} failed, {:.1} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        attempted,
        failed,
        started.elapsed().as_secs_f64()
    );
    let correct = errors.is_empty();
    for e in &errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    if correct {
        print!("{}", report.table());
    }
    let empty = Report::default();
    let shown = if correct { &report } else { &empty };
    println!("{}", shown.result_line(correct, attempted, failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
