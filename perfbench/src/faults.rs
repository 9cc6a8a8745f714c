//! The `faults` workload: a fixed list of seeded chaos schedules in four
//! configurations (`phoenix_chaos::run_schedule`, every invariant checked),
//! plus the paper's Tables 1–3 on the 136-node testbed (`phoenix_bench::ft`).
//!
//! Clusters are small and faults frequent, so the work is probing,
//! diagnosis, regroup votes, takeover, migration, checkpoint restore and
//! quarantine. One repetition runs every schedule of the list and
//! the three tables; repetitions run until the time budget is spent.
//!
//! `run_schedule` owns its world, so traffic counts and the traced pass
//! come from a replay of the same schedules on worlds this module drives:
//! the same boot, the same steps at the same offsets, settled the same way,
//! without the invariant checks.

use crate::host::{median_probe_ns, sum_of_medians, Probe, Timed};
use crate::micro;
use crate::report::{
    median, proc_mem_mb, Outcome, Report, TelemetryCounts, CHAOS_CONFIGS, NET_LABELS,
};
use crate::tracer::Tracer;
use phoenix_bench::ft::{paper_testbed, run_table, Component, FtRow};
use phoenix_chaos::{generate_schedule, run_schedule, ChaosConfig, StepAction};
use phoenix_kernel::boot::boot_onto;
use phoenix_kernel::ClientHandle;
use phoenix_proto::{KernelMsg, NodeOp, RequestId};
use phoenix_sim::{ClusterBuilder, LabelStats, NodeSpec, SimDuration, SimTime, World};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Chaos seeds of every configuration: the `chaos` tool's default sweep,
/// seeds 1 to 50. The list is fixed, and so is its order: the order moves
/// the process's peak RSS by several percent.
const CHAOS_SEEDS: u64 = 50;
/// Repetitions made even when the budget runs out sooner.
const MIN_REPS: usize = 3;
/// Set-ups timed for `setup_s` before each repetition, so the samples
/// spread over the whole run; the median is reported.
const SETUPS_PER_REP: usize = 4;

/// Table 1–3 rows at the pinned commit, one per line:
/// `component kind detect_s diagnose_s recover_s sum_s`.
const TABLE_REFERENCE: &str = include_str!("../reference/ft_tables.txt");

fn configs() -> [ChaosConfig; 4] {
    [
        ChaosConfig::paper(),
        ChaosConfig::small_partition(),
        ChaosConfig::small_quorum(),
        ChaosConfig::small_slow(),
    ]
}

#[derive(Clone, Copy, Default, PartialEq)]
struct ConfigCounts {
    schedules: u64,
    failed: u64,
    faults_injected: u64,
    applied_steps: u64,
    virtual_ns: u64,
}

struct Rep {
    per_config: [ConfigCounts; 4],
    /// Each `run_schedule` call, configuration by configuration.
    schedules: Vec<Timed>,
    events: u64,
    tables: Vec<FtRow>,
    /// Each of Tables 1–3.
    table_times: Vec<Timed>,
    telemetry: TelemetryCounts,
    errors: Vec<String>,
}

impl Rep {
    fn fingerprint(&self) -> String {
        let rows = render_rows(&self.tables).replace('\n', ";");
        let mut s = format!("{:?} tables={rows}", self.telemetry);
        for (name, c) in CHAOS_CONFIGS.iter().zip(&self.per_config) {
            s.push_str(&format!(
                " {name}={}/{}/{}/{}/{}",
                c.schedules, c.failed, c.faults_injected, c.applied_steps, c.virtual_ns
            ));
        }
        s
    }
}

fn rep(seeds: &[u64], probe: &mut Probe) -> Rep {
    let mut telemetry = TelemetryCounts::default();
    let mut per_config = [ConfigCounts::default(); 4];
    let mut schedules = Vec::new();
    let mut errors = Vec::new();
    for (i, cfg) in configs().iter().enumerate() {
        for &s in seeds {
            // A shard per schedule: chaos reads takeover counts and open
            // spans from the thread's registry, so schedules must not see
            // each other's telemetry.
            let shard = phoenix_telemetry::shard_begin();
            let (timed, out) = probe.measure(|| run_schedule(s, cfg, u64::MAX, false));
            schedules.push(timed);
            telemetry.add(&TelemetryCounts::of(&shard.take()));
            let c = &mut per_config[i];
            c.schedules += 1;
            c.faults_injected += out.faults_injected as u64;
            c.applied_steps += out.applied_steps as u64;
            c.virtual_ns += out.virtual_ns;
            if out.failed() || !out.quiesced {
                c.failed += 1;
                let what: Vec<&str> = out.violations.iter().map(|v| v.invariant).collect();
                errors.push(format!(
                    "{} schedule seed {s}: quiesced={} violations {what:?}",
                    CHAOS_CONFIGS[i], out.quiesced
                ));
            }
        }
    }
    let events = telemetry.events;
    let shard = phoenix_telemetry::shard_begin();
    let mut tables = Vec::new();
    let mut table_times = Vec::new();
    for c in [Component::Wd, Component::Gsd, Component::Es] {
        let (topo, params) = paper_testbed();
        let (timed, rows) = probe.measure(|| run_table(topo, params, c));
        tables.extend(rows);
        table_times.push(timed);
    }
    telemetry.add(&TelemetryCounts::of(&shard.take()));
    Rep {
        per_config,
        schedules,
        events,
        tables,
        table_times,
        telemetry,
        errors,
    }
}

fn render_rows(rows: &[FtRow]) -> String {
    rows.iter()
        .map(|r| {
            format!(
                "{:?} {:?} {:?} {:?} {:?} {:?}\n",
                r.component, r.kind, r.detect_s, r.diagnose_s, r.recover_s, r.sum_s
            )
        })
        .collect()
}

/// One timed set-up of every configuration's cluster.
struct Setup {
    timed: Timed,
    /// build, boot, stabilize seconds summed over the configurations.
    secs: [f64; 3],
    rss_mb: [f64; 3],
}

/// Build, boot and stabilize each configuration's cluster the way
/// `run_schedule` does before its first fault (for the first chaos seed).
fn setup_once(probe: &mut Probe) -> Setup {
    let mut secs = [0.0f64; 3];
    let mut rss_mb = [0.0f64; 3];
    let (timed, ()) = probe.measure(|| {
        for cfg in configs() {
            setup_config(&cfg, &mut secs, &mut rss_mb);
        }
    });
    Setup {
        timed,
        secs,
        rss_mb,
    }
}

/// Build, boot and stabilize one configuration's cluster, adding each
/// step's seconds and the RSS after it.
fn setup_config(cfg: &ChaosConfig, secs: &mut [f64; 3], rss_mb: &mut [f64; 3]) {
    let topo = cfg.topology();
    let t0 = Instant::now();
    let world = ClusterBuilder::new()
        .nodes(topo.node_count(), NodeSpec::default())
        .net(cfg.net.clone())
        .seed(1)
        .scheduler(cfg.scheduler)
        .build::<KernelMsg>();
    secs[0] += t0.elapsed().as_secs_f64();
    rss_mb[0] = rss_mb[0].max(proc_mem_mb("VmRSS"));
    let t1 = Instant::now();
    let (mut world, _cluster) = boot_onto(world, topo, cfg.params.clone());
    secs[1] += t1.elapsed().as_secs_f64();
    rss_mb[1] = rss_mb[1].max(proc_mem_mb("VmRSS"));
    let t2 = Instant::now();
    world.run_until(stabilized(cfg));
    secs[2] += t2.elapsed().as_secs_f64();
    rss_mb[2] = rss_mb[2].max(proc_mem_mb("VmRSS"));
}

/// Where `run_schedule` ends stabilization: two heartbeat rounds.
fn stabilized(cfg: &ChaosConfig) -> SimTime {
    SimTime::ZERO + cfg.params.ft.hb_interval * 2 + SimDuration::from_millis(10)
}

/// Totals of replayed schedules.
#[derive(Default)]
struct Replayed {
    node_s: f64,
    events: u64,
    timers: u64,
    deliveries: u64,
    total: LabelStats,
    labels: BTreeMap<&'static str, LabelStats>,
    wall_ns: u64,
}

impl Replayed {
    fn add(&mut self, world: &World<KernelMsg>) {
        let m = world.metrics();
        self.node_s += world.node_count() as f64 * world.now().as_secs_f64();
        self.events += m.events_processed;
        self.timers += m.timers_fired;
        self.deliveries += m.total.delivered;
        add_stats(&mut self.total, &m.total);
        for (l, s) in &m.by_label {
            add_stats(self.labels.entry(l).or_default(), s);
        }
    }

    fn fingerprint(&self) -> String {
        let mut s = format!(
            "replay events={} timers={} deliveries={}",
            self.events, self.timers, self.deliveries
        );
        for (l, st) in &self.labels {
            s.push_str(&format!(" {l}={}/{}", st.sent, st.sent_bytes));
        }
        s
    }
}

fn add_stats(into: &mut LabelStats, s: &LabelStats) {
    into.sent += s.sent;
    into.sent_bytes += s.sent_bytes;
    into.delivered += s.delivered;
    into.delivered_bytes += s.delivered_bytes;
    into.dropped += s.dropped;
}

/// Advance `world` to `t`: in one `run_until`, or step by step under the
/// tracer.
fn advance(world: &mut World<KernelMsg>, tracer: &mut Option<&mut Tracer>, t: SimTime) {
    match tracer {
        Some(tr) => tr.advance_to(world, t),
        None => world.run_until(t),
    }
}

/// Replay one chaos schedule the way `run_schedule` drives it; returns the
/// world at quiescence.
fn replay(
    seed: u64,
    cfg: &ChaosConfig,
    mut tracer: Option<&mut Tracer>,
) -> Result<World<KernelMsg>, String> {
    let (mut world, cluster) = phoenix_kernel::boot_cluster_custom(
        cfg.topology(),
        cfg.params.clone(),
        seed,
        cfg.net.clone(),
        cfg.scheduler,
        tracer.is_some(),
    );
    if let Some(tr) = tracer.as_deref_mut() {
        world.take_event_log();
        tr.learn(&world);
    }
    advance(&mut world, &mut tracer, stabilized(cfg));
    let steps = generate_schedule(seed, cfg, &cluster);
    let t0 = world.now();
    let client = ClientHandle::spawn(&mut world, cluster.topology.partitions[0].server);
    let after_spawn = world.now() + SimDuration::from_millis(1);
    advance(&mut world, &mut tracer, after_spawn);
    for (i, step) in steps.iter().enumerate() {
        advance(&mut world, &mut tracer, t0 + step.offset);
        match step.action {
            StepAction::Fault(fault) => world.apply_fault(fault),
            StepAction::RepairNode(node) => {
                if !world.node(node).up {
                    client.send(
                        &mut world,
                        cluster.config(),
                        KernelMsg::CfgNodeOp {
                            req: RequestId(90_000 + i as u64),
                            node,
                            op: NodeOp::Start,
                        },
                    );
                }
            }
        }
    }
    // Generated schedules pair every island split with a heal and every
    // slow-down with a clear, so nothing is left to undo before settling.
    let deadline = world.now() + cfg.settle_deadline;
    loop {
        if world.now() + cfg.settle_window > deadline {
            return Err(format!("replayed schedule seed {seed} never quiesced"));
        }
        let before = world.trace().len();
        let target = world.now() + cfg.settle_window;
        advance(&mut world, &mut tracer, target);
        if world.trace().len() == before {
            return Ok(world);
        }
    }
}

fn replay_all(seeds: &[u64], mut tracer: Option<&mut Tracer>) -> Result<Replayed, String> {
    let mut out = Replayed::default();
    let t = Instant::now();
    for cfg in configs() {
        for &s in seeds {
            let _shard = phoenix_telemetry::shard_begin();
            let world = replay(s, &cfg, tracer.as_deref_mut())?;
            out.add(&world);
        }
    }
    out.wall_ns = t.elapsed().as_nanos() as u64;
    Ok(out)
}

/// `faults` has no workload seed: its inputs are the fixed chaos seed list
/// and the tables' own seeds.
pub fn run(budget: Duration, trace: bool) -> Outcome {
    let start = Instant::now();
    let mut probe = Probe::new();
    let mut errors = Vec::new();
    let seeds: Vec<u64> = (1..=CHAOS_SEEDS).collect();
    let mut setups: Vec<Setup> = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    // Peak RSS after the first repetition: later ones repeat the same work,
    // but how many fit in the budget depends on the host's speed.
    let mut peak_rss_mb = 0.0;
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        setups.extend((0..SETUPS_PER_REP).map(|_| setup_once(&mut probe)));
        let mut r = rep(&seeds, &mut probe);
        if reps.is_empty() {
            peak_rss_mb = proc_mem_mb("VmHWM");
        }
        eprintln!(
            "faults: repetition {}: {:.1} ms in schedules, {:.1} ms in tables, RSS {:.1} MB",
            reps.len(),
            r.schedules.iter().map(|t| t.ns).sum::<u64>() as f64 / 1e6,
            r.table_times.iter().map(|t| t.ns).sum::<u64>() as f64 / 1e6,
            proc_mem_mb("VmRSS")
        );
        errors.append(&mut r.errors);
        if let Some(first) = reps.first() {
            if r.fingerprint() != first.fingerprint() {
                errors.push(format!(
                    "repetition {} of the same seed counted differently:\n  first: {}\n  this:  {}",
                    reps.len(),
                    first.fingerprint(),
                    r.fingerprint()
                ));
            }
        }
        reps.push(r);
    }
    let replayed = match replay_all(&seeds, None) {
        Ok(r) => r,
        Err(e) => {
            errors.push(e);
            Replayed::default()
        }
    };

    let first = &reps[0];
    let rows = render_rows(&first.tables);
    if rows != TABLE_REFERENCE {
        errors.push(format!(
            "Table 1-3 rows differ from reference/ft_tables.txt:\n{rows}"
        ));
    }
    let schedules: u64 = first.per_config.iter().map(|c| c.schedules).sum();
    let failed: u64 = first.per_config.iter().map(|c| c.failed).sum();
    let virtual_s = first.per_config.iter().map(|c| c.virtual_ns).sum::<u64>() as f64 / 1e9;
    let wall_ns = sum_of_medians(&reps, |x| &x.schedules, Timed::raw);
    let scaled_ns = sum_of_medians(&reps, |x| &x.schedules, Timed::scaled);
    let med_setup = |f: &dyn Fn(&Setup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let node_s = replayed.node_s.max(f64::MIN_POSITIVE);

    let mut r = Report::default();
    r.put("wall_ms_per_virtual_s", scaled_ns / 1e6 / virtual_s);
    r.put("setup_s", med_setup(&|s| s.timed.scaled() / 1e9));
    r.put("peak_rss_mb", peak_rss_mb);
    r.put("ctrl_msgs_per_node_s", replayed.total.sent as f64 / node_s);
    r.put(
        "ctrl_bytes_per_node_s",
        replayed.total.sent_bytes as f64 / node_s,
    );
    r.put("ok_ratio", (schedules - failed) as f64 / schedules as f64);
    r.put("op_virtual_s", virtual_s / schedules as f64);

    r.put("sim.events", replayed.events as f64);
    r.put("sim.timers", replayed.timers as f64);
    r.put("sim.deliveries", replayed.deliveries as f64);
    r.put("sim.events_per_s", first.events as f64 / (wall_ns / 1e9));
    for (i, step) in ["build", "boot", "stabilize"].into_iter().enumerate() {
        r.put(format!("setup.{step}_s"), med_setup(&|s| s.secs[i]));
        r.put(format!("setup.{step}_rss_mb"), setups[0].rss_mb[i]);
    }
    r.put("gridview.refreshes", 0.0);
    for l in NET_LABELS {
        let s = replayed.labels.get(l).copied().unwrap_or_default();
        r.put(format!("net.{l}.msgs_per_node_s"), s.sent as f64 / node_s);
        r.put(
            format!("net.{l}.bytes_per_node_s"),
            s.sent_bytes as f64 / node_s,
        );
    }
    first.telemetry.put(&mut r);
    for (i, name) in CHAOS_CONFIGS.iter().enumerate() {
        let c = &first.per_config[i];
        let n = CHAOS_SEEDS as usize;
        let ns = sum_of_medians(&reps, |x| &x.schedules[i * n..(i + 1) * n], Timed::raw);
        r.put(format!("chaos.{name}.schedules"), c.schedules as f64);
        r.put(
            format!("chaos.{name}.faults_injected"),
            c.faults_injected as f64,
        );
        r.put(format!("chaos.{name}.ms_per_schedule"), ns / 1e6 / n as f64);
    }
    r.put(
        "ft.tables_ms",
        sum_of_medians(&reps, |x| &x.table_times, Timed::raw) / 1e6,
    );
    r.put("host.probe_ns", median_probe_ns(&reps, |x| &x.schedules));
    r.put("host.wall_ms_per_virtual_s", wall_ns / 1e6 / virtual_s);

    if trace {
        let mut tracer = Tracer::default();
        match replay_all(&seeds, Some(&mut tracer)) {
            // Overhead compares whole replays, boots included, both ways.
            Ok(traced) => tracer.wall_ns = traced.wall_ns,
            Err(e) => errors.push(e),
        }
        if let Err(e) = tracer.put_metrics(&mut r, replayed.wall_ns as f64) {
            errors.push(e);
        }
        micro::put_sched(&mut r, tracer.mean_queue_depth());
        errors.extend(micro::put_proto(&mut r));
    }

    Outcome {
        report: r,
        attempted: reps.len() as u64 * schedules,
        failed: reps
            .iter()
            .map(|x| x.per_config.iter().map(|c| c.failed).sum::<u64>())
            .sum(),
        fingerprint: format!("{} {}", first.fingerprint(), replayed.fingerprint()),
        errors,
    }
}
