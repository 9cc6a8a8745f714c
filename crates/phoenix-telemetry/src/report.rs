//! Bench report writer: registry → `results/BENCH_kernel.json`.
//!
//! The report is the machine-readable face of the paper's tables: every
//! instrumented kernel path shows up with count + p50/p90/p99/max in
//! nanoseconds, alongside counters, gauges, and arbitrary
//! experiment-specific sections (e.g. a fault-tolerance table) attached
//! by the bench binary.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::registry::MetricsRegistry;

/// Default output path, relative to the workspace root.
pub const DEFAULT_PATH: &str = "results/BENCH_kernel.json";

pub struct BenchReport {
    name: String,
    sections: Vec<(String, Json)>,
}

impl BenchReport {
    /// `name` identifies the experiment (e.g. `"table1_wd"`).
    pub fn new(name: impl Into<String>) -> Self {
        BenchReport { name: name.into(), sections: Vec::new() }
    }

    /// Attach an experiment-specific section (rendered after the standard
    /// telemetry sections, in attachment order).
    pub fn section(&mut self, key: impl Into<String>, value: Json) -> &mut Self {
        self.sections.push((key.into(), value));
        self
    }

    /// Build the JSON document from a registry snapshot.
    pub fn to_json(&self, reg: &MetricsRegistry) -> Json {
        let mut hists = Json::obj();
        for (path, stats) in reg.histograms() {
            let s = stats.hist.summary();
            hists = hists.set(
                path,
                Json::obj()
                    .set("service", Json::str(stats.service))
                    .set("count", Json::UInt(s.count))
                    .set("min_ns", Json::UInt(s.min_ns))
                    .set("p50_ns", Json::UInt(s.p50_ns))
                    .set("p90_ns", Json::UInt(s.p90_ns))
                    .set("p99_ns", Json::UInt(s.p99_ns))
                    .set("max_ns", Json::UInt(s.max_ns))
                    .set("mean_ns", Json::Num(if s.count == 0 {
                        0.0
                    } else {
                        s.sum_ns as f64 / s.count as f64
                    })),
            );
        }

        let mut counters = Json::obj();
        for (name, v) in reg.counters() {
            counters = counters.set(name, Json::UInt(v));
        }
        let mut gauges = Json::obj();
        for (name, v) in reg.gauges() {
            gauges = gauges.set(name, Json::Num(v));
        }

        let mut flight = Vec::new();
        for rec in reg.recorder().iter() {
            flight.push(
                Json::obj()
                    .set("node", Json::UInt(rec.node as u64))
                    .set("path", Json::str(rec.path))
                    .set("service", Json::str(rec.service))
                    .set("start_ns", Json::UInt(rec.start_ns))
                    .set("end_ns", Json::UInt(rec.end_ns))
                    .set("aborted", Json::Bool(rec.aborted)),
            );
        }

        let mut doc = Json::obj()
            .set("bench", Json::str(self.name.clone()))
            .set("schema", Json::str("phoenix-telemetry/v1"))
            .set("histograms", hists)
            .set("counters", counters)
            .set("gauges", gauges)
            .set(
                "flight_recorder",
                Json::obj()
                    .set("retained", Json::UInt(reg.recorder().len() as u64))
                    .set("evicted", Json::UInt(reg.recorder().evicted()))
                    .set("recent", Json::Arr(flight)),
            );
        for (k, v) in &self.sections {
            doc = doc.set(k.clone(), v.clone());
        }
        doc
    }

    /// Write the report to `path`, creating parent directories. Returns
    /// the path written.
    pub fn write_to(&self, reg: &MetricsRegistry, path: impl AsRef<Path>) -> io::Result<PathBuf> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        fs::write(path, self.to_json(reg).render())?;
        Ok(path.to_path_buf())
    }

    /// Write to [`DEFAULT_PATH`] under [`workspace_root`].
    pub fn write_default(&self, reg: &MetricsRegistry) -> io::Result<PathBuf> {
        self.write_to(reg, workspace_root().join(DEFAULT_PATH))
    }
}

/// The repository root, where `results/` lives. Resolved from this
/// crate's own manifest directory at compile time, so every report lands
/// in the same place whatever directory the binary runs from.
pub fn workspace_root() -> PathBuf {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    crate_dir.ancestors().nth(2).unwrap_or(crate_dir).to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock;

    #[test]
    fn report_contains_histograms_counters_and_sections() {
        let mut reg = MetricsRegistry::new();
        clock::set_now(0);
        reg.counter_add("hb.sent", 7);
        reg.gauge_set("nodes.up", 5.0);
        reg.observe("wd.heartbeat.flight", "wd", 120_000);
        reg.observe("wd.heartbeat.flight", "wd", 130_000);
        reg.observe("gsd.scan", "gsd", 2_000_000);

        let mut rep = BenchReport::new("unit");
        rep.section("extra", Json::obj().set("rows", Json::UInt(3)));
        let text = rep.to_json(&reg).render();
        assert!(text.contains("\"bench\": \"unit\""));
        assert!(text.contains("\"wd.heartbeat.flight\""));
        assert!(text.contains("\"service\": \"wd\""));
        assert!(text.contains("\"count\": 2"));
        assert!(text.contains("\"hb.sent\": 7"));
        assert!(text.contains("\"nodes.up\": 5.0"));
        assert!(text.contains("\"extra\""));
    }

    #[test]
    fn workspace_root_is_the_repository_root() {
        let root = workspace_root();
        assert!(root.join("crates/phoenix-telemetry").is_dir(), "{root:?}");
    }

    #[test]
    fn write_to_creates_parent_dirs() {
        let reg = MetricsRegistry::new();
        let dir = std::env::temp_dir().join("phoenix-telemetry-test");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.json");
        let written = BenchReport::new("t").write_to(&reg, &path).unwrap();
        let text = fs::read_to_string(&written).unwrap();
        assert!(text.contains("\"schema\": \"phoenix-telemetry/v1\""));
        let _ = fs::remove_dir_all(&dir);
    }
}
