//! The GridView monitoring workloads (paper Sec 5.3, Fig 6): a uniform
//! cluster of 16-node partitions under the paper's kernel parameters (30 s
//! heartbeats, 10 s samples) with GridView refreshing every 10 s.
//!
//! One repetition builds and boots a fresh cluster from the seed (set-up),
//! then simulates a fixed stretch of virtual time (the measured phase), so
//! every repetition of a seed does exactly the same work. Repetitions run
//! until the time budget is spent, and the timed metrics are their medians.

use crate::host::{median_probe_ns, sum_of_medians, Probe, Timed};
use crate::micro;
use crate::report::{
    median, proc_mem_mb, Outcome, Report, TelemetryCounts, CHAOS_CONFIGS, NET_LABELS,
};
use crate::tracer::Tracer;
use phoenix_gridview::{GridView, GridViewHandle};
use phoenix_kernel::boot::boot_onto;
use phoenix_kernel::KernelParams;
use phoenix_proto::{ClusterTopology, KernelMsg};
use phoenix_sim::{ClusterBuilder, LabelStats, NodeSpec, SimDuration, SimTime, World};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A monitored cluster shape and the virtual time one repetition measures.
pub struct Shape {
    pub partitions: usize,
    pub per_partition: usize,
    pub measure_virtual_s: u64,
    /// The measured phase is timed in chunks of this much virtual time.
    pub chunk_virtual_s: u64,
}

/// The paper's own Fig 6 cluster: 40 × 16 = 640 nodes.
pub const MONITOR_640: Shape = Shape {
    partitions: 40,
    per_partition: 16,
    measure_virtual_s: 600,
    chunk_virtual_s: 30,
};

/// Eight times the paper's cluster: 320 × 16 = 5120 nodes.
pub const MONITOR_5120: Shape = Shape {
    partitions: 320,
    per_partition: 16,
    measure_virtual_s: 60,
    chunk_virtual_s: 10,
};

/// GridView's refresh period (the paper's "specific refreshing rate").
const REFRESH: SimDuration = SimDuration::from_secs(10);
/// Virtual time the booted kernel runs before GridView is spawned.
const STABILIZE: SimDuration = SimDuration::from_millis(200);
/// Repetitions made even when the budget runs out sooner.
const MIN_REPS: usize = 3;

struct Booted {
    world: World<KernelMsg>,
    gv: GridViewHandle,
    nodes: usize,
    /// build, boot, stabilize (incl. GridView spawn) seconds.
    secs: [f64; 3],
    /// RSS after each set-up step, MB.
    rss_mb: [f64; 3],
}

fn boot(shape: &Shape, seed: u64, record_events: bool) -> Booted {
    let topo = ClusterTopology::uniform(shape.partitions, shape.per_partition, 1);
    let nodes = topo.node_count();
    let t0 = Instant::now();
    let world = ClusterBuilder::new()
        .nodes(nodes, NodeSpec::default())
        .seed(seed)
        .record_events(record_events)
        .build::<KernelMsg>();
    let build_s = t0.elapsed().as_secs_f64();
    let rss_build = proc_mem_mb("VmRSS");
    let t1 = Instant::now();
    let (mut world, cluster) = boot_onto(world, topo, KernelParams::default());
    let boot_s = t1.elapsed().as_secs_f64();
    let rss_boot = proc_mem_mb("VmRSS");
    let t2 = Instant::now();
    world.run_for(STABILIZE);
    let gv = GridView::spawn(
        &mut world,
        cluster.topology.partitions[0].compute[0],
        cluster.bulletin(),
        cluster.event(),
        REFRESH,
    );
    let stabilize_s = t2.elapsed().as_secs_f64();
    Booted {
        world,
        gv,
        nodes,
        secs: [build_s, boot_s, stabilize_s],
        rss_mb: [rss_build, rss_boot, proc_mem_mb("VmRSS")],
    }
}

/// Exact counters of the measured phase.
struct Counts {
    events: u64,
    timers: u64,
    deliveries: u64,
    total: LabelStats,
    labels: BTreeMap<&'static str, LabelStats>,
    refreshes: u64,
    complete: u64,
    nodes_reporting: usize,
    last_complete: bool,
}

impl Counts {
    fn of(world: &World<KernelMsg>, gv: &GridViewHandle) -> Counts {
        let m = world.metrics();
        let history = gv.history();
        let last = gv.snapshot();
        Counts {
            events: m.events_processed,
            timers: m.timers_fired,
            deliveries: m.total.delivered,
            total: m.total,
            labels: m.by_label.clone(),
            refreshes: gv.refreshes(),
            complete: history.iter().filter(|s| s.complete).count() as u64,
            nodes_reporting: last.nodes_reporting,
            last_complete: last.complete,
        }
    }

    /// `self - before`, for the cumulative counters.
    fn since(&self, before: &Counts) -> Counts {
        let sub = |a: &LabelStats, b: &LabelStats| LabelStats {
            sent: a.sent - b.sent,
            sent_bytes: a.sent_bytes - b.sent_bytes,
            delivered: a.delivered - b.delivered,
            delivered_bytes: a.delivered_bytes - b.delivered_bytes,
            dropped: a.dropped - b.dropped,
        };
        Counts {
            events: self.events - before.events,
            timers: self.timers - before.timers,
            deliveries: self.deliveries - before.deliveries,
            total: sub(&self.total, &before.total),
            labels: self
                .labels
                .iter()
                .map(|(l, s)| {
                    (
                        *l,
                        sub(s, &before.labels.get(l).copied().unwrap_or_default()),
                    )
                })
                .collect(),
            refreshes: self.refreshes - before.refreshes,
            complete: self.complete - before.complete,
            nodes_reporting: self.nodes_reporting,
            last_complete: self.last_complete,
        }
    }

    fn fingerprint(&self) -> String {
        let mut s = format!(
            "events={} timers={} deliveries={} refreshes={} complete={}",
            self.events, self.timers, self.deliveries, self.refreshes, self.complete
        );
        for (l, st) in &self.labels {
            s.push_str(&format!(" {l}={}/{}", st.sent, st.sent_bytes));
        }
        s
    }
}

struct Rep {
    nodes: usize,
    /// The whole set-up, and its build, boot and stabilize steps in seconds.
    setup: Timed,
    setup_secs: [f64; 3],
    rss_mb: [f64; 3],
    /// Each chunk of the measured phase.
    chunks: Vec<Timed>,
    virtual_s: f64,
    counts: Counts,
    telemetry: TelemetryCounts,
}

impl Rep {
    fn fingerprint(&self) -> String {
        format!("{} {:?}", self.counts.fingerprint(), self.telemetry)
    }
}

fn rep(shape: &Shape, seed: u64, probe: &mut Probe) -> Rep {
    let shard = phoenix_telemetry::shard_begin();
    let (setup_timed, mut setup) = probe.measure(|| boot(shape, seed, false));
    let before = Counts::of(&setup.world, &setup.gv);
    let t0 = setup.world.now();
    let chunks = (0..shape.measure_virtual_s / shape.chunk_virtual_s)
        .map(|_| {
            let chunk = SimDuration::from_secs(shape.chunk_virtual_s);
            probe.measure(|| setup.world.run_for(chunk)).0
        })
        .collect();
    let counts = Counts::of(&setup.world, &setup.gv).since(&before);
    let virtual_s = setup.world.now().since(t0).as_secs_f64();
    Rep {
        nodes: setup.nodes,
        setup: setup_timed,
        setup_secs: setup.secs,
        rss_mb: setup.rss_mb,
        chunks,
        virtual_s,
        counts,
        telemetry: TelemetryCounts::of(&shard.take()),
    }
}

/// Output checks of one repetition.
fn check(shape: &Shape, rep: &Rep) -> Vec<String> {
    let c = &rep.counts;
    let mut errors = Vec::new();
    if !c.last_complete || c.nodes_reporting != rep.nodes {
        errors.push(format!(
            "last GridView snapshot: complete={} with {} of {} nodes reporting",
            c.last_complete, c.nodes_reporting, rep.nodes
        ));
    }
    let expected = shape.measure_virtual_s / REFRESH.as_secs_f64() as u64;
    if c.refreshes != expected {
        errors.push(format!(
            "GridView refreshed {} times in {} virtual s, expected {expected}",
            c.refreshes, shape.measure_virtual_s
        ));
    }
    errors
}

pub fn run(shape: &Shape, seed: u64, budget: Duration, trace: bool) -> Outcome {
    let start = Instant::now();
    let mut probe = Probe::new();
    let mut reps: Vec<Rep> = Vec::new();
    // Peak RSS after the first repetition: later ones repeat the same work,
    // but how many fit in the budget depends on the host's speed.
    let mut peak_rss_mb = 0.0;
    let mut errors = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        let r = rep(shape, seed, &mut probe);
        if reps.is_empty() {
            peak_rss_mb = proc_mem_mb("VmHWM");
        }
        eprintln!(
            "monitor: repetition {}: set-up {:.1} ms, measured {:.1} ms, RSS {:.1} MB",
            reps.len(),
            r.setup.ns as f64 / 1e6,
            r.chunks.iter().map(|c| c.ns).sum::<u64>() as f64 / 1e6,
            proc_mem_mb("VmRSS")
        );
        errors.extend(check(shape, &r));
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

    let first = &reps[0];
    let c = &first.counts;
    let nodes = first.nodes as f64;
    let node_s = nodes * first.virtual_s;
    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let wall_ns = sum_of_medians(&reps, |x| &x.chunks, Timed::raw);
    let scaled_ns = sum_of_medians(&reps, |x| &x.chunks, Timed::scaled);

    let mut r = Report::default();
    r.put("wall_ms_per_virtual_s", scaled_ns / 1e6 / first.virtual_s);
    r.put("setup_s", med(&|x| x.setup.scaled() / 1e9));
    r.put("peak_rss_mb", peak_rss_mb);
    r.put("ctrl_msgs_per_node_s", c.total.sent as f64 / node_s);
    r.put("ctrl_bytes_per_node_s", c.total.sent_bytes as f64 / node_s);
    r.put("ok_ratio", c.complete as f64 / c.refreshes.max(1) as f64);
    let t = &first.telemetry;
    if t.pulls == 0 {
        errors.push("no GridView refresh latency was recorded".into());
    }
    r.put(
        "op_virtual_s",
        t.pull_ns as f64 / t.pulls.max(1) as f64 / 1e9,
    );

    r.put("sim.events", c.events as f64);
    r.put("sim.timers", c.timers as f64);
    r.put("sim.deliveries", c.deliveries as f64);
    r.put("sim.events_per_s", c.events as f64 / (wall_ns / 1e9));
    for (i, step) in ["build", "boot", "stabilize"].into_iter().enumerate() {
        r.put(format!("setup.{step}_s"), med(&|x| x.setup_secs[i]));
        r.put(format!("setup.{step}_rss_mb"), first.rss_mb[i]);
    }
    r.put("gridview.refreshes", c.refreshes as f64);
    for l in NET_LABELS {
        let s = c.labels.get(l).copied().unwrap_or_default();
        r.put(format!("net.{l}.msgs_per_node_s"), s.sent as f64 / node_s);
        r.put(
            format!("net.{l}.bytes_per_node_s"),
            s.sent_bytes as f64 / node_s,
        );
    }
    t.put(&mut r);
    for cfg in CHAOS_CONFIGS {
        for m in ["schedules", "faults_injected", "ms_per_schedule"] {
            r.put(format!("chaos.{cfg}.{m}"), 0.0);
        }
    }
    r.put("ft.tables_ms", 0.0);
    r.put("host.probe_ns", median_probe_ns(&reps, |x| &x.chunks));
    r.put(
        "host.wall_ms_per_virtual_s",
        wall_ns / 1e6 / first.virtual_s,
    );

    if trace {
        let tracer = traced(shape, seed, c.events);
        if let Err(e) = tracer.put_metrics(&mut r, wall_ns) {
            errors.push(e);
        }
        micro::put_sched(&mut r, tracer.mean_queue_depth());
        errors.extend(micro::put_proto(&mut r));
    }

    Outcome {
        report: r,
        attempted: reps.iter().map(|x| x.counts.refreshes).sum(),
        failed: reps
            .iter()
            .map(|x| x.counts.refreshes - x.counts.complete)
            .sum(),
        fingerprint: first.fingerprint(),
        errors,
    }
}

/// Re-run the measured phase of one repetition under the tracer, stopping
/// after the same number of events the untraced run dispatched.
fn traced(shape: &Shape, seed: u64, events: u64) -> Tracer {
    let _shard = phoenix_telemetry::shard_begin();
    let Booted { mut world, .. } = boot(shape, seed, true);
    world.take_event_log();
    let mut tracer = Tracer::default();
    tracer.learn(&world);
    let target = world.metrics().events_processed + events;
    let deadline: SimTime = world.now() + SimDuration::from_secs(shape.measure_virtual_s);
    tracer.run_events(&mut world, target, deadline);
    tracer
}
