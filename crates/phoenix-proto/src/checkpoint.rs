//! Checkpoint-service payloads.
//!
//! Paper Sec 4.2: "upper-layer services themselves are responsible for
//! saving and deleting system state by calling interface of checkpoint
//! service." Each upper-layer service has a typed state snapshot here; a
//! raw-bytes variant serves ad-hoc users.

use crate::bulletin::BulletinEntry;
use crate::event::ConsumerReg;
use crate::ids::JobId;
use crate::job::JobSpec;
use crate::shared::Shared;
use phoenix_sim::{NodeId, Pid};

/// State snapshots the kernel services save through the checkpoint service.
#[derive(Clone, PartialEq, Debug)]
pub enum CheckpointData {
    /// Event service: live consumer registrations and the publish cursor.
    EventService {
        consumers: Vec<ConsumerReg>,
        next_seq: u64,
    },
    /// Data bulletin: current entries of the partition. `Shared`: one
    /// save is replicated to every federation peer, so each replica is a
    /// refcount bump and the encoded size is computed once per save.
    Bulletin { entries: Shared<Vec<BulletinEntry>> },
    /// PWS scheduler: queue and placements.
    Scheduler {
        queued: Vec<JobSpec>,
        running: Vec<(JobId, Vec<NodeId>)>,
    },
    /// GSD supervision roster: factory keys and pids of the supervised
    /// user-environment services, so a migrated GSD can respawn them.
    Supervision { entries: Vec<(String, Pid)> },
    /// Anything else.
    Raw(Vec<u8>),
}

impl CheckpointData {
    /// Human label for traces.
    pub fn label(&self) -> &'static str {
        match self {
            CheckpointData::EventService { .. } => "event-state",
            CheckpointData::Bulletin { .. } => "bulletin-state",
            CheckpointData::Scheduler { .. } => "scheduler-state",
            CheckpointData::Supervision { .. } => "supervision",
            CheckpointData::Raw(_) => "raw",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(
            CheckpointData::EventService {
                consumers: vec![],
                next_seq: 0
            }
            .label(),
            "event-state"
        );
        assert_eq!(CheckpointData::Raw(vec![1, 2]).label(), "raw");
    }

    #[test]
    fn bulletin_state_round_trips_on_the_wire() {
        use crate::bulletin::{AppState, AppStatus, BulletinKey, BulletinValue};
        use crate::wire::{decode, encode, encoded_size};
        use phoenix_sim::ResourceUsage;
        let entries: Shared<Vec<BulletinEntry>> = (0..4u32)
            .map(|i| BulletinEntry {
                key: BulletinKey::Resource(NodeId(i)),
                value: BulletinValue::Resource(ResourceUsage {
                    cpu: f64::from(i) / 4.0,
                    ..ResourceUsage::IDLE
                }),
                stamp_ns: u64::from(i) * 1000,
            })
            .chain([BulletinEntry {
                key: BulletinKey::App(NodeId(2), JobId(7)),
                value: BulletinValue::App(AppState {
                    job: JobId(7),
                    node: NodeId(2),
                    cpu: 0.5,
                    memory: 0.25,
                    status: AppStatus::Running,
                    sla_ok: true,
                }),
                stamp_ns: 9,
            }])
            .collect();
        let data = CheckpointData::Bulletin {
            entries: entries.clone(),
        };
        let bytes = encode(&data);
        assert_eq!(encoded_size(&data), bytes.len());
        // Wire-transparent: the tag, then exactly the plain list's bytes.
        let plain = encode(&entries.get_ref().clone());
        assert_eq!(&bytes[bytes.len() - plain.len()..], &plain[..]);
        assert_eq!(decode::<CheckpointData>(&bytes), Ok(data));
    }
}
