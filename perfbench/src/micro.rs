//! Layer microtimings made from outside the crates: the wheel scheduler at
//! a workload's queue depth, and wire sizing/encoding/decoding of the
//! message classes that dominate control traffic.
//!
//! Each timing is the median over batches of the per-operation time within
//! a batch; the sample count is reported beside it.

use crate::report::{median, Report};
use phoenix_proto::bulletin::{BulletinEntry, BulletinKey, BulletinValue};
use phoenix_proto::wire;
use phoenix_proto::{CheckpointData, KernelMsg, PartitionId, ServiceKind};
use phoenix_sim::{Message, NicId, NodeId, ResourceUsage, Scheduler, SimTime, WheelScheduler};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 31;
const SCHED_OPS_PER_BATCH: usize = 20_000;
const PROTO_OPS_PER_BATCH: usize = 2_000;

/// A 64-bit LCG step: the benchmark's own deterministic delay source.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Event delay mix of the kernel under the paper's parameters: half are
/// message latencies (0.1–1 ms), half are service timers (1–30 s).
fn delay_ns(state: &mut u64) -> u64 {
    let r = lcg(state);
    if r & 1 == 0 {
        100_000 + r % 900_000
    } else {
        1_000_000_000 + r % 29_000_000_000
    }
}

/// Hold model: a `WheelScheduler` kept at `depth` pending events, timing
/// one pop of the earliest event plus one push of its successor.
pub fn put_sched(r: &mut Report, depth: f64) {
    let depth = depth.round().max(1.0) as usize;
    let mut q: WheelScheduler<u64> = WheelScheduler::new();
    let mut rng = 0x5EED_u64;
    let mut seq = 0u64;
    for _ in 0..depth {
        seq += 1;
        q.push(SimTime(delay_ns(&mut rng)), seq, seq);
    }
    let mut per_op = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..SCHED_OPS_PER_BATCH {
            let (at, _, item) = q.pop().expect("the hold model never drains");
            seq += 1;
            q.push(SimTime(at.0 + delay_ns(&mut rng)), seq, black_box(item));
        }
        per_op.push(t.elapsed().as_nanos() as f64 / SCHED_OPS_PER_BATCH as f64);
    }
    r.put("sim.sched.push_pop_ns", median(&per_op));
    r.put("sim.sched.samples", (BATCHES * SCHED_OPS_PER_BATCH) as f64);
}

fn resource_entry(node: u32) -> BulletinEntry {
    BulletinEntry {
        key: BulletinKey::Resource(NodeId(node)),
        value: BulletinValue::Resource(ResourceUsage {
            cpu: 0.19,
            memory: 0.2,
            swap: 0.0072,
            disk_io: 0.01,
            net_io: 0.02,
        }),
        stamp_ns: 1_000_000_000 + node as u64,
    }
}

/// One message per timed class, shaped like the kernel's own: a WD
/// heartbeat, a bulletin's 16-entry checkpoint replicated to a peer, a
/// detector's resource sample, and a meta-group heartbeat.
fn sample_messages() -> [(&'static str, KernelMsg); 4] {
    [
        (
            "hb",
            KernelMsg::WdHeartbeat {
                node: NodeId(17),
                nic: NicId(0),
                seq: 1234,
            },
        ),
        (
            "ckpt",
            KernelMsg::CkReplicate {
                service: ServiceKind::DataBulletin,
                partition: PartitionId(3),
                data: CheckpointData::Bulletin {
                    entries: (0..16).map(resource_entry).collect(),
                },
            },
        ),
        (
            "bulletin",
            KernelMsg::DbPut {
                entries: vec![resource_entry(17)],
            },
        ),
        (
            "meta",
            KernelMsg::MetaHeartbeat {
                from_partition: PartitionId(3),
                nic: NicId(0),
                epoch: 2,
                seq: 1234,
            },
        ),
    ]
}

fn time_batches(mut op: impl FnMut()) -> f64 {
    let mut per_op = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..PROTO_OPS_PER_BATCH {
            op();
        }
        per_op.push(t.elapsed().as_nanos() as f64 / PROTO_OPS_PER_BATCH as f64);
    }
    median(&per_op)
}

/// `KernelMsg::wire_size`, `wire::encode` and `wire::decode` per class.
/// Also checks that each message round-trips and has the expected label.
pub fn put_proto(r: &mut Report) -> Vec<String> {
    let mut errors = Vec::new();
    for (label, msg) in sample_messages() {
        let bytes = wire::encode(&msg);
        if msg.label() != label || bytes.len() != msg.wire_size() {
            errors.push(format!("proto sample {label}: label or size mismatch"));
        }
        match wire::decode::<KernelMsg>(&bytes) {
            Ok(back) if back == msg => {}
            _ => errors.push(format!("proto sample {label} does not round-trip")),
        }
        let size = time_batches(|| {
            black_box(black_box(&msg).wire_size());
        });
        let encode = time_batches(|| {
            black_box(wire::encode(black_box(&msg)));
        });
        let decode = time_batches(|| {
            black_box(wire::decode::<KernelMsg>(black_box(&bytes)).ok());
        });
        r.put(format!("proto.{label}.size_ns"), size);
        r.put(format!("proto.{label}.encode_ns"), encode);
        r.put(format!("proto.{label}.decode_ns"), decode);
    }
    r.put("proto.samples", (BATCHES * PROTO_OPS_PER_BATCH) as f64);
    errors
}
