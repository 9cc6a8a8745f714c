//! Metric declarations, the result line, and the checks shared by every
//! workload: declared-name coverage and the exact-count fingerprint.

use phoenix_telemetry::{Json, MetricsRegistry};
use std::collections::BTreeMap;

/// Kernel actors whose handlers the traced pass attributes host time to,
/// by `Actor::name`.
pub const ACTORS: [&str; 9] = [
    "gsd",
    "wd",
    "detector",
    "bulletin",
    "checkpoint",
    "event",
    "config",
    "security",
    "ppm",
];

/// Traffic classes (`Message::label`) reported per node and virtual second.
pub const NET_LABELS: [&str; 8] = [
    "hb", "ckpt", "bulletin", "meta", "svc", "probe", "regroup", "slow",
];

/// Message classes whose wire sizing, encoding and decoding are timed.
pub const PROTO_LABELS: [&str; 4] = ["hb", "ckpt", "bulletin", "meta"];

/// Chaos configurations of the `faults` workload, by metric-name suffix.
pub const CHAOS_CONFIGS: [&str; 4] = ["paper", "partition", "quorum", "slow"];

/// Telemetry histograms whose sample counts are reported.
pub const TELEMETRY_PATHS: [&str; 4] = [
    "gsd.probe.session",
    "gsd.regroup.round",
    "gsd.takeover",
    "gsd.detect_to_diagnose",
];

/// Unit of control-plane traffic rates: per node per virtual second.
const MSG_RATE: &str = "msg/node/vs";
const BYTE_RATE: &str = "B/node/vs";

/// The end-to-end metrics every untraced run prints, with their units.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("wall_ms_per_virtual_s", "ms"),
        ("setup_s", "s"),
        ("peak_rss_mb", "MB"),
        ("ctrl_msgs_per_node_s", MSG_RATE),
        ("ctrl_bytes_per_node_s", BYTE_RATE),
        ("ok_ratio", "fraction"),
        ("op_virtual_s", "virtual_s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// The per-layer metrics every traced run prints, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: String, u: &'static str| v.push((n, u));
    for (n, u) in [
        ("sim.events", "count"),
        ("sim.timers", "count"),
        ("sim.deliveries", "count"),
        ("sim.events_per_s", "1/s"),
        ("sim.step_ns", "ns"),
        ("sim.queue_depth", "count"),
        ("sim.sched.push_pop_ns", "ns"),
        ("sim.sched.samples", "count"),
        ("setup.build_s", "s"),
        ("setup.boot_s", "s"),
        ("setup.stabilize_s", "s"),
        ("setup.build_rss_mb", "MB"),
        ("setup.boot_rss_mb", "MB"),
        ("setup.stabilize_rss_mb", "MB"),
        ("gridview.refreshes", "count"),
        ("gridview.deliver_ns", "ns"),
        ("trace.attributed_share", "fraction"),
        ("trace.overhead", "x"),
        ("trace.steps", "count"),
        ("proto.samples", "count"),
        ("telemetry.recorder_spans", "count"),
        ("ft.tables_ms", "ms"),
        ("host.probe_ns", "ns"),
        ("host.wall_ms_per_virtual_s", "ms"),
    ] {
        add(n.to_string(), u);
    }
    for a in ACTORS {
        for k in ["timer", "deliver"] {
            add(format!("kernel.{a}.{k}.events"), "count");
            add(format!("kernel.{a}.{k}.ns"), "ns");
            add(format!("kernel.{a}.{k}.share"), "fraction");
        }
    }
    for l in NET_LABELS {
        add(format!("net.{l}.msgs_per_node_s"), MSG_RATE);
        add(format!("net.{l}.bytes_per_node_s"), BYTE_RATE);
    }
    for l in PROTO_LABELS {
        for op in ["size", "encode", "decode"] {
            add(format!("proto.{l}.{op}_ns"), "ns");
        }
    }
    for p in TELEMETRY_PATHS {
        add(format!("telemetry.{p}"), "count");
    }
    for c in CHAOS_CONFIGS {
        add(format!("chaos.{c}.schedules"), "count");
        add(format!("chaos.{c}.faults_injected"), "count");
        add(format!("chaos.{c}.ms_per_schedule"), "ms");
    }
    v
}

/// Metrics of one run. Workloads `put` every value they have; the mode's
/// declaration list then selects (and must exactly cover) what is printed.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    shown: Vec<(String, f64, &'static str)>,
    pub errors: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        if !value.is_finite() {
            self.errors
                .push(format!("metric {name} is not finite: {value}"));
        }
        if self.values.insert(name.clone(), value).is_some() {
            self.errors.push(format!("metric {name} reported twice"));
        }
    }

    /// Keep the metrics of `decls`, in declaration order, with their units.
    /// A declared metric the workload did not report, or a reported one
    /// that no declaration list names, is an error.
    pub fn check_names(&mut self, decls: fn() -> Vec<(String, &'static str)>) {
        let known: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|(n, _)| n)
            .collect();
        for name in self.values.keys() {
            if !known.contains(name) {
                self.errors.push(format!("metric {name} is not declared"));
            }
        }
        for (name, unit) in decls() {
            match self.values.get(&name) {
                Some(&v) => self.shown.push((name, v, unit)),
                None => self.errors.push(format!("metric {name} was not measured")),
            }
        }
    }

    /// Human-readable table of the printed metrics.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.shown {
            out.push_str(&format!("{name:<44} {value:>18.6} {unit}\n"));
        }
        out
    }

    /// The one-line JSON result the benchmark contract asks for.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut metrics = Json::obj();
        for (name, value, unit) in &self.shown {
            metrics = metrics.set(
                name.clone(),
                Json::obj()
                    .set("value", Json::Num(*value))
                    .set("unit", Json::str(*unit)),
            );
        }
        let doc = Json::obj()
            .set("correct", Json::Bool(correct))
            .set("attempted", Json::UInt(attempted))
            .set("failed", Json::UInt(failed))
            .set("metrics", metrics);
        // `render` pretty-prints; strings never contain raw newlines, so
        // stripping each line's indentation yields the same JSON on one line.
        doc.render().lines().map(str::trim_start).collect()
    }
}

/// The counts a workload needs from a telemetry shard, taken as soon as the
/// shard ends so no registry outlives its schedule or repetition.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TelemetryCounts {
    /// Sample counts of `TELEMETRY_PATHS`.
    pub paths: [u64; 4],
    pub recorder_spans: u64,
    /// `sim.events.dispatched`: events dispatched by `World::run_until`.
    pub events: u64,
    /// Sum and count of `gridview.refresh.pull` (virtual ns).
    pub pull_ns: u64,
    pub pulls: u64,
}

impl TelemetryCounts {
    pub fn of(reg: &MetricsRegistry) -> TelemetryCounts {
        let count = |p: &str| reg.histogram(p).map_or(0, |h| h.count());
        let pull = reg.histogram("gridview.refresh.pull").map(|h| h.summary());
        TelemetryCounts {
            paths: TELEMETRY_PATHS.map(count),
            recorder_spans: reg.recorder().len() as u64,
            events: reg.counter("sim.events.dispatched"),
            pull_ns: pull.map_or(0, |s| s.sum_ns),
            pulls: pull.map_or(0, |s| s.count),
        }
    }

    pub fn add(&mut self, o: &TelemetryCounts) {
        for (a, b) in self.paths.iter_mut().zip(o.paths) {
            *a += b;
        }
        self.recorder_spans += o.recorder_spans;
        self.events += o.events;
        self.pull_ns += o.pull_ns;
        self.pulls += o.pulls;
    }

    /// Put the `telemetry.*` metrics.
    pub fn put(&self, r: &mut Report) {
        for (p, n) in TELEMETRY_PATHS.iter().zip(self.paths) {
            r.put(format!("telemetry.{p}"), n as f64);
        }
        r.put("telemetry.recorder_spans", self.recorder_spans as f64);
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Exact counts that must repeat for every run of this workload and
    /// seed on the same build.
    pub fingerprint: String,
    pub errors: Vec<String>,
}

/// Compare this run's exact counts with the ones an earlier run of the same
/// workload, seed and build recorded under `.perfbench/fingerprints/` in
/// the working directory, or record them if this is the first such run.
pub fn check_fingerprint(workload: &str, seed: u64, fingerprint: &str) -> Result<(), String> {
    let dir = std::path::Path::new(".perfbench/fingerprints");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-{seed}.txt"));
    let stamp = build_stamp();
    let record = format!("{stamp}\n{fingerprint}\n");
    if let Ok(prev) = std::fs::read_to_string(&path) {
        if prev.lines().next() == Some(stamp.as_str()) {
            if prev != record {
                return Err(format!(
                    "exact counts differ from an earlier run of the same seed ({}):\n  \
                     before: {}\n  now:    {fingerprint}",
                    path.display(),
                    prev.lines().nth(1).unwrap_or("")
                ));
            }
            return Ok(());
        }
    }
    std::fs::write(&path, record).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Identifies the running build: a rebuilt program may legitimately change
/// its counts, so fingerprints are only compared within one build.
fn build_stamp() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("build {} {}", m.len(), mtime)
        })
        .unwrap_or_else(|_| "build unknown".into())
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MB.
pub fn proc_mem_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
