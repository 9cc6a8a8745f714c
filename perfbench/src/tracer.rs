//! The traced pass: advances a world one `World::step` at a time, times
//! each step, and attributes it to the target actor (`Actor::name` of the
//! pid in the step's event-log line) and the event kind.
//!
//! The world must be built with event recording on: the log line is the
//! only public record of which event a step dispatched. Formatting that
//! line happens inside `step`, so it is part of every timed step; the
//! overhead this adds is reported as traced ÷ untraced wall time.
//! `World::next_event_at` is never called here: it is O(queue) under the
//! wheel scheduler.

use crate::report::{Report, ACTORS};
use phoenix_proto::KernelMsg;
use phoenix_sim::{NodeId, Pid, World};
use std::collections::HashMap;
use std::time::Instant;

const TIMER: usize = 0;
const DELIVER: usize = 1;
/// Bucket for steps whose target is not a live actor (start and fault
/// events, deliveries to dead pids).
const UNATTRIBUTED: &str = "(none)";

#[derive(Clone, Copy, Default)]
struct Cell {
    events: u64,
    ns: u64,
}

#[derive(Default)]
pub struct Tracer {
    names: Vec<String>,
    by_pid: HashMap<u64, usize>,
    /// Per interned name: timer and delivery cells.
    cells: Vec<[Cell; 2]>,
    other: Cell,
    steps: u64,
    step_ns: u64,
    depth_sum: u64,
    /// Host time spent stepping. A caller whose untraced timing covers more
    /// than stepping (boots, say) overwrites it with the traced equivalent.
    pub wall_ns: u64,
}

impl Tracer {
    /// Time one `World::step`; false when the queue is empty.
    pub fn step(&mut self, world: &mut World<KernelMsg>) -> bool {
        let t = Instant::now();
        let more = world.step();
        let ns = t.elapsed().as_nanos() as u64;
        if !more {
            return false;
        }
        let line = world.take_event_log();
        let mut fields = line.split_ascii_whitespace().skip(2);
        let kind = fields.next().unwrap_or("");
        let (slot, key) = match kind {
            "deliver" => (DELIVER, "to="),
            "timer" => (TIMER, "pid="),
            _ => (usize::MAX, ""),
        };
        let pid = fields
            .find_map(|f| f.strip_prefix(key))
            .and_then(|v| v.parse::<u64>().ok());
        let cell = match (slot, pid) {
            (TIMER | DELIVER, Some(pid)) => {
                let idx = self.name_of(world, pid);
                &mut self.cells[idx][slot]
            }
            _ => &mut self.other,
        };
        cell.events += 1;
        cell.ns += ns;
        self.steps += 1;
        self.step_ns += ns;
        self.depth_sum += world.queue_len() as u64;
        true
    }

    /// Step until virtual time reaches `deadline` or the queue empties. The
    /// last step may land past `deadline`: only the popped event says when
    /// it is due.
    pub fn advance_to(&mut self, world: &mut World<KernelMsg>, deadline: phoenix_sim::SimTime) {
        let t = Instant::now();
        while world.now() < deadline && self.step(world) {}
        self.wall_ns += t.elapsed().as_nanos() as u64;
    }

    /// Step until `events_processed` reaches `events` or virtual time passes
    /// `deadline`.
    pub fn run_events(
        &mut self,
        world: &mut World<KernelMsg>,
        events: u64,
        deadline: phoenix_sim::SimTime,
    ) {
        let t = Instant::now();
        while world.metrics().events_processed < events
            && world.now() <= deadline
            && self.step(world)
        {}
        self.wall_ns += t.elapsed().as_nanos() as u64;
    }

    /// Learn the names of every actor alive now, so a step that kills its
    /// own target can still be attributed.
    pub fn learn(&mut self, world: &World<KernelMsg>) {
        for n in 0..world.node_count() {
            for pid in world.pids_on(NodeId(n as u32)) {
                self.name_of(world, pid.0);
            }
        }
    }

    fn name_of(&mut self, world: &World<KernelMsg>, pid: u64) -> usize {
        if let Some(&idx) = self.by_pid.get(&pid) {
            return idx;
        }
        let name = world.actor(Pid(pid)).map_or(UNATTRIBUTED, |a| a.name());
        let idx = match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.cells.push([Cell::default(); 2]);
                self.names.len() - 1
            }
        };
        self.by_pid.insert(pid, idx);
        idx
    }

    fn cell(&self, name: &str, slot: usize) -> Cell {
        self.names
            .iter()
            .position(|n| n == name)
            .map_or(Cell::default(), |i| self.cells[i][slot])
    }

    /// Share of traced step time spent in handlers of named actors.
    fn attributed_share(&self) -> f64 {
        let named: u64 = self
            .names
            .iter()
            .zip(&self.cells)
            .filter(|(n, _)| n.as_str() != UNATTRIBUTED)
            .map(|(_, c)| c[TIMER].ns + c[DELIVER].ns)
            .sum();
        named as f64 / self.step_ns.max(1) as f64
    }

    /// Put the per-actor, dispatch and attribution metrics. `untraced_ns`
    /// is the wall time of the same work without tracing.
    pub fn put_metrics(&self, r: &mut Report, untraced_ns: f64) -> Result<(), String> {
        let total = self.step_ns.max(1) as f64;
        let mean = |c: Cell| c.ns as f64 / c.events.max(1) as f64;
        for a in ACTORS {
            for (slot, k) in [(TIMER, "timer"), (DELIVER, "deliver")] {
                let c = self.cell(a, slot);
                r.put(format!("kernel.{a}.{k}.events"), c.events as f64);
                r.put(format!("kernel.{a}.{k}.ns"), mean(c));
                r.put(format!("kernel.{a}.{k}.share"), c.ns as f64 / total);
            }
        }
        r.put("gridview.deliver_ns", mean(self.cell("gridview", DELIVER)));
        r.put(
            "sim.step_ns",
            self.step_ns as f64 / self.steps.max(1) as f64,
        );
        r.put("sim.queue_depth", self.mean_queue_depth());
        r.put("trace.steps", self.steps as f64);
        r.put("trace.overhead", self.wall_ns as f64 / untraced_ns.max(1.0));
        let share = self.attributed_share();
        r.put("trace.attributed_share", share);
        eprintln!("{}", self.summary());
        if share < 0.95 {
            return Err(format!(
                "traced step time attributed to named actors is {:.1}%, below 95%",
                share * 100.0
            ));
        }
        Ok(())
    }

    pub fn mean_queue_depth(&self) -> f64 {
        self.depth_sum as f64 / self.steps.max(1) as f64
    }

    /// One line per (actor, kind) with its share, largest first.
    fn summary(&self) -> String {
        let total = self.step_ns.max(1) as f64;
        let mut rows: Vec<(String, Cell)> = Vec::new();
        for (n, c) in self.names.iter().zip(&self.cells) {
            rows.push((format!("{n}.timer"), c[TIMER]));
            rows.push((format!("{n}.deliver"), c[DELIVER]));
        }
        rows.push(("other".into(), self.other));
        rows.retain(|(_, c)| c.events > 0);
        rows.sort_by_key(|r| std::cmp::Reverse(r.1.ns));
        let mut out = format!(
            "traced {} steps, {:.3} s in steps, {:.3} s wall",
            self.steps,
            self.step_ns as f64 / 1e9,
            self.wall_ns as f64 / 1e9
        );
        for (name, c) in rows {
            out.push_str(&format!(
                "\n  {name:<22} {:>10} events {:>8.0} ns/event {:>6.2}%",
                c.events,
                c.ns as f64 / c.events as f64,
                100.0 * c.ns as f64 / total
            ));
        }
        out
    }
}
