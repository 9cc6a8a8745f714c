//! Host-speed normalisation of timed work.
//!
//! The hosts this benchmark runs on are shared, and their speed drifts by
//! up to 2× over seconds to minutes as neighbours load them. A drift that
//! outlasts a run moves every timing in it, so no estimator over the run's
//! own samples can remove it. Instead every timed item is preceded by a
//! fixed probe: remove/insert pairs on a 100k-entry `BTreeMap`, pointer-heavy
//! work like the simulator's, in code that belongs to the benchmark, so no
//! change to the repository's crates speeds it up or slows it down. The
//! item's time divided by the probe's time is the item's cost in host-speed
//! units; scaling it by the probe's nominal time `REFERENCE_NS` expresses it
//! in nanoseconds at that speed.

use crate::report::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Nominal duration of one probe, defining the reference host speed.
pub const REFERENCE_NS: f64 = 1_000_000.0;
const PROBE_KEYS: u64 = 100_000;
const PROBE_OPS: usize = 2_500;

pub struct Probe {
    map: BTreeMap<u64, u64>,
    rng: u64,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            map: (0..PROBE_KEYS).map(|k| (scramble(k), k)).collect(),
            rng: 1,
        }
    }

    /// Host time of one probe run, ns: each op finds the first key at or
    /// after a random point, removes it and inserts its neighbour, so the
    /// map keeps its size and shape.
    pub fn time(&mut self) -> u64 {
        let t = Instant::now();
        for _ in 0..PROBE_OPS {
            self.rng = scramble(self.rng);
            let next = self.map.range(self.rng..).next().map(|(&k, &v)| (k, v));
            if let Some((k, v)) = next {
                self.map.remove(&k);
                self.map.insert(k ^ 1, black_box(v));
            }
        }
        t.elapsed().as_nanos() as u64
    }

    /// Time `work`, right after a probe.
    pub fn measure<R>(&mut self, work: impl FnOnce() -> R) -> (Timed, R) {
        let probe_ns = self.time();
        let t = Instant::now();
        let out = work();
        let ns = t.elapsed().as_nanos() as u64;
        (Timed { ns, probe_ns }, out)
    }
}

fn scramble(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x2545_F491_4F6C_DD1D)
        .rotate_left(29)
}

/// Host time of one item and of the probe run just before it.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    pub ns: u64,
    pub probe_ns: u64,
}

impl Timed {
    /// Host ns as measured.
    pub fn raw(&self) -> f64 {
        self.ns as f64
    }

    /// Host ns scaled to the reference host speed.
    pub fn scaled(&self) -> f64 {
        self.ns as f64 * REFERENCE_NS / self.probe_ns.max(1) as f64
    }
}

/// Work split into items that every repetition repeats identically: the
/// sum over items of each item's median across repetitions, by `value`.
/// Taking the median per item, rather than per repetition, lets a slow
/// spell spoil only the items it overlaps.
pub fn sum_of_medians<T>(
    reps: &[T],
    items: impl Fn(&T) -> &[Timed],
    value: fn(&Timed) -> f64,
) -> f64 {
    let n = reps.first().map_or(0, |r| items(r).len());
    (0..n)
        .map(|i| median(&reps.iter().map(|r| value(&items(r)[i])).collect::<Vec<_>>()))
        .sum()
}

/// Median probe time over every item of every repetition.
pub fn median_probe_ns<T>(reps: &[T], items: impl Fn(&T) -> &[Timed]) -> f64 {
    let all: Vec<f64> = reps
        .iter()
        .flat_map(|r| items(r).iter().map(|t| t.probe_ns as f64))
        .collect();
    median(&all)
}
