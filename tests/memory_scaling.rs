//! Memory-scaling regression: the simulator's live heap per node must stay
//! roughly flat as the cluster grows.
//!
//! The paper's kernel sends O(N) control traffic, but state that many
//! actors receive (the boot directory every PPM agent routes by, the
//! bulletin checkpoint every federation peer replicates) can still cost
//! O(N²) host memory if each actor keeps its own deep copy. This test
//! counts live heap bytes with a counting global allocator, so it depends
//! only on the program: no RSS, no wall clock. It boots two uniform
//! clusters under the paper's parameters, runs each past the first
//! bulletin checkpoint round (every 2 × `detector_sample` = 20 s), and
//! compares heap bytes per node between the sizes.

use phoenix::kernel::boot::boot_onto;
use phoenix::kernel::KernelParams;
use phoenix::proto::{ClusterTopology, KernelMsg};
use phoenix::sim::{ClusterBuilder, NodeSpec, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, keeping a running total of live bytes.
struct Counting;

/// Live heap bytes. A statistic that publishes no other data, so
/// `Relaxed` suffices; the simulation runs on the test's own thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns `System`'s result; the
// only addition is an atomic counter update.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// Live heap bytes per node of a `partitions × 16` cluster: after boot
/// (plus the 200 ms stabilisation), and after the first checkpoint round.
fn bytes_per_node(partitions: usize) -> (f64, f64) {
    phoenix::telemetry::reset();
    let base = live();
    let topo = ClusterTopology::uniform(partitions, 16, 1);
    let nodes = topo.node_count();
    let world = ClusterBuilder::new()
        .nodes(nodes, NodeSpec::default())
        .seed(11)
        .build::<KernelMsg>();
    let (mut world, cluster) = boot_onto(world, topo, KernelParams::default());
    world.run_for(SimDuration::from_millis(200));
    let booted = live() - base;
    world.run_for(SimDuration::from_secs(25));
    let checkpointed = live() - base;
    drop((world, cluster));
    phoenix::telemetry::reset();
    let per_node = |bytes: isize| bytes as f64 / nodes as f64;
    (per_node(booted), per_node(checkpointed))
}

/// One test, so no other test's allocations share the counter.
#[test]
fn heap_per_node_stays_flat_from_256_to_1024_nodes() {
    let (boot_small, ckpt_small) = bytes_per_node(16);
    let (boot_large, ckpt_large) = bytes_per_node(64);
    eprintln!(
        "heap bytes/node: boot {boot_small:.0} -> {boot_large:.0}, \
         after checkpoint round {ckpt_small:.0} -> {ckpt_large:.0}"
    );
    // 4× the nodes. Per-actor copies of cluster-wide state grow the
    // per-node cost ~4× (O(N²) total); shared state keeps it near 1×,
    // with the small P² partition tables as the only superlinear part.
    const BOUND: f64 = 1.5;
    assert!(
        boot_large < BOUND * boot_small,
        "boot heap per node grew {:.2}x for 4x the nodes",
        boot_large / boot_small
    );
    assert!(
        ckpt_large < BOUND * ckpt_small,
        "heap per node after the checkpoint round grew {:.2}x for 4x the nodes",
        ckpt_large / ckpt_small
    );
}
