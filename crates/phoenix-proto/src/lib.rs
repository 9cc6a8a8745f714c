//! # phoenix-proto — the Fire Phoenix wire protocol
//!
//! Shared vocabulary of the reproduction: protocol identifiers, event and
//! bulletin types, job descriptions, security principals, the cluster
//! topology, and the [`KernelMsg`] enum every service speaks. Also provides
//! [`wire::encoded_size`], a dependency-free byte counter used to charge
//! realistic wire sizes to the simulated network.

pub mod bulletin;
pub mod checkpoint;
pub mod event;
pub mod ids;
pub mod job;
pub mod msg;
pub mod security;
pub mod shared;
pub mod topology;
pub mod wire;

pub use bulletin::{AppState, AppStatus, BulletinEntry, BulletinKey, BulletinQuery, BulletinValue};
pub use checkpoint::CheckpointData;
pub use event::{ConsumerReg, Event, EventFilter, EventPayload, EventType};
pub use ids::{JobId, PartitionId, RequestId, ServiceKind, UserId};
pub use job::{JobSpec, JobState, TaskSpec};
pub use msg::{KernelMsg, MemberInfo, NodeOp, NodeServices, QueueRow, ServiceDirectory};
pub use security::{Action, AuthToken, Role};
pub use shared::Shared;
pub use topology::{ClusterTopology, PartitionSpec};
pub use wire::{encoded_size, Wire, WireVariants};
