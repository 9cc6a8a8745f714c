//! Chaos sweep / replay driver.
//!
//! Sweep mode: run N random fault schedules and check invariants:
//!
//! ```text
//! chaos --seeds 100 --small [--report]
//! ```
//!
//! Seeds run through [`phoenix_chaos::run_seeds`]: one telemetry shard per
//! seed, on as many threads as `PHOENIX_SWEEP_THREADS` (default: the
//! machine's cores) allows, output in seed order. Any violation is shrunk
//! to a minimal schedule and reported with the exact `--replay
//! SEED[:MASK]` command that reproduces it. `--report` also writes the
//! schedule / fault / shrink statistics and the merged telemetry to
//! `results/BENCH_chaos.json`, byte-identical for any thread count.
//!
//! Replay mode re-runs one schedule verbosely and dumps the telemetry
//! flight recorder:
//!
//! ```text
//! chaos --small --replay 1337:2c
//! ```
//!
//! Exit status is non-zero iff any schedule violated an invariant.

use phoenix_chaos::{
    dump_flight_recorder, full_mask, generate_schedule, parse_replay, run_schedule, run_seeds,
    ChaosConfig, SeedRun,
};
use phoenix_kernel::boot_cluster;
use phoenix_telemetry::{BenchReport, Json, MetricsRegistry};

fn usage() -> ! {
    eprintln!(
        "usage: chaos [--seeds N] [--seed-base S] [--small] [--paper] [--partition] \
         [--quorum] [--slow] [--lossy PERMILLE] [--max-faults K] [--report] \
         [--replay SEED[:MASK_HEX]]"
    );
    std::process::exit(2);
}

fn main() {
    let mut seeds = 50u64;
    let mut seed_base = 1u64;
    let mut cfg = ChaosConfig::small();
    let mut mode = String::from("--small");
    let mut lossy: Option<u16> = None;
    let mut replay: Option<String> = None;
    let mut report = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                seeds = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--seed-base" => {
                seed_base = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--small" => {
                cfg = ChaosConfig::small();
                mode = "--small".into();
            }
            "--paper" => {
                cfg = ChaosConfig::paper();
                mode = "--paper".into();
            }
            "--partition" => {
                cfg = ChaosConfig::small_partition();
                mode = "--partition".into();
            }
            "--quorum" => {
                cfg = ChaosConfig::small_quorum();
                mode = "--quorum".into();
            }
            "--slow" => {
                cfg = ChaosConfig::small_slow();
                mode = "--slow".into();
            }
            "--lossy" => {
                lossy = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
            }
            "--max-faults" => {
                cfg.max_faults =
                    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--report" => report = true,
            "--replay" => replay = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    // Applied after the parse loop: --small/--paper replace the whole
    // config, so the lossy overlay must win regardless of flag order.
    if let Some(permille) = lossy {
        let max_faults = cfg.max_faults;
        cfg = ChaosConfig::small_lossy(permille);
        cfg.max_faults = max_faults;
        mode = format!("--lossy {permille}");
    }

    if let Some(spec) = replay {
        let (seed, mask) = match parse_replay(&spec) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("chaos: {e}");
                std::process::exit(2);
            }
        };
        std::process::exit(run_replay(seed, mask, &cfg));
    }

    println!(
        "chaos sweep: {seeds} schedules, seeds {seed_base}..{}, topology {}x{} \
         ({} faults max per schedule)",
        seed_base + seeds - 1,
        cfg.partitions,
        cfg.nodes_per_partition,
        cfg.max_faults
    );
    if cfg.net.loss_permille > 0 {
        println!(
            "  unreliable network: {}‰ loss, {}‰ duplication, loss bursts in schedules",
            cfg.net.loss_permille, cfg.net.dup_permille
        );
    }
    let seed_list: Vec<u64> = (seed_base..seed_base + seeds).collect();
    let sweep = run_seeds(&seed_list, &cfg, &mode);
    let mut failures = 0u64;
    let mut total_faults = 0usize;
    for SeedRun { seed, out, shrunk } in &sweep.results {
        total_faults += out.faults_injected;
        let Some((s, replay)) = shrunk else {
            println!(
                "  seed {seed:>5}: ok   ({} steps, {} faults, settled at {:.1}s virtual)",
                out.applied_steps,
                out.faults_injected,
                out.virtual_ns as f64 / 1e9
            );
            continue;
        };
        failures += 1;
        println!(
            "  seed {seed:>5}: FAIL ({} steps, {} faults) — {} violation(s):",
            out.applied_steps,
            out.faults_injected,
            out.violations.len()
        );
        for v in &out.violations {
            println!("      {v}");
        }
        println!(
            "      shrunk {} -> {} steps in {} runs; minimal mask {:#x}",
            out.total_steps, s.steps, s.runs, s.mask
        );
        println!("      replay: {replay}");
    }
    println!(
        "sweep: {} schedules on {} thread(s), {} ms wall",
        seed_list.len(),
        sweep.threads,
        sweep.wall.as_millis()
    );
    if report {
        let path = write_report(&sweep.results, &sweep.merged, &mode);
        println!("report: {}", path.display());
    }
    println!(
        "chaos sweep done: {}/{} schedules clean, {} faults injected",
        seeds - failures,
        seeds,
        total_faults
    );
    std::process::exit(if failures > 0 { 1 } else { 0 });
}

/// Write `results/BENCH_chaos.json`: sweep totals, one row per seed (with
/// the shrunk reproducer of a failure), and the merged telemetry.
fn write_report(runs: &[SeedRun], merged: &MetricsRegistry, mode: &str) -> std::path::PathBuf {
    let mut rows = Vec::new();
    let (mut steps, mut faults, mut failures, mut shrink_runs, mut shrunk_steps) = (0, 0, 0, 0, 0);
    for SeedRun { seed, out, shrunk } in runs {
        steps += out.applied_steps;
        faults += out.faults_injected;
        let mut row = Json::obj()
            .set("seed", Json::Num(*seed as f64))
            .set("steps", Json::Num(out.applied_steps as f64))
            .set("faults", Json::Num(out.faults_injected as f64))
            .set("gsd_died", Json::Bool(out.gsd_died))
            .set("quiesced", Json::Bool(out.quiesced))
            .set("virtual_s", Json::Num(out.virtual_ns as f64 / 1e9))
            .set("violations", Json::Num(out.violations.len() as f64));
        if let Some((s, replay)) = shrunk {
            failures += 1;
            shrink_runs += s.runs;
            shrunk_steps += s.steps;
            row = row
                .set(
                    "violation_details",
                    Json::Arr(out.violations.iter().map(|v| Json::str(format!("{v}"))).collect()),
                )
                .set("shrunk_mask", Json::str(format!("{:#x}", s.mask)))
                .set("shrunk_steps", Json::Num(s.steps as f64))
                .set("shrink_runs", Json::Num(s.runs as f64))
                .set("replay", Json::str(replay.clone()));
        }
        rows.push(row);
    }
    let summary = Json::obj()
        .set("shape", Json::str(mode.trim_start_matches("--")))
        .set("schedules_run", Json::Num(runs.len() as f64))
        .set("steps_applied", Json::Num(steps as f64))
        .set("faults_injected", Json::Num(faults as f64))
        .set("violating_schedules", Json::Num(failures as f64))
        .set(
            "shrink",
            Json::obj()
                .set("schedules_shrunk", Json::Num(failures as f64))
                .set("total_shrink_runs", Json::Num(shrink_runs as f64))
                .set("minimal_steps_total", Json::Num(shrunk_steps as f64)),
        );
    // The report keeps the name of the tool that used to write it, so
    // existing readers of the file see the same bytes.
    let mut rep = BenchReport::new("chaos_sweep");
    rep.section("chaos", summary);
    rep.section("schedules", Json::Arr(rows));
    rep.write_to(merged, phoenix_telemetry::workspace_root().join("results/BENCH_chaos.json"))
        .expect("write BENCH_chaos.json")
}

fn run_replay(seed: u64, mask: Option<u64>, cfg: &ChaosConfig) -> i32 {
    // Print the schedule first so the operator sees what will be applied.
    let (_world, cluster) = boot_cluster(cfg.topology(), cfg.params.clone(), seed);
    let steps = generate_schedule(seed, cfg, &cluster);
    let mask = mask.unwrap_or_else(|| full_mask(steps.len()));
    println!("replay seed {seed} mask {mask:#x} — schedule ({} steps):", steps.len());
    for (i, step) in steps.iter().enumerate() {
        let selected = mask & (1u64 << i) != 0;
        println!("  {} [{i:>2}] {step}", if selected { "*" } else { " " });
    }
    println!("running:");
    let out = run_schedule(seed, cfg, mask, true);
    println!(
        "result: {} steps applied, {} faults, quiesced={}, {:.1}s virtual",
        out.applied_steps,
        out.faults_injected,
        out.quiesced,
        out.virtual_ns as f64 / 1e9
    );
    if out.violations.is_empty() {
        println!("no invariant violations.");
    } else {
        for v in &out.violations {
            println!("VIOLATION {v}");
        }
    }
    println!("flight recorder (most recent spans):");
    dump_flight_recorder(40);
    if out.failed() {
        1
    } else {
        0
    }
}
