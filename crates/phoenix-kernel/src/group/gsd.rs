//! The Group Service Daemon (GSD).
//!
//! Paper Sec 4.3–4.4. One GSD runs per partition (on the partition's
//! server node) and is the keystone of both scalability and fault
//! tolerance:
//!
//! * **WD monitoring** — watch daemons on every partition node heartbeat
//!   over all NICs; the GSD analyzes the per-NIC pattern to detect and
//!   diagnose process, node, and network failures (Table 1).
//! * **Meta-group ring** — the GSDs of all partitions form a ring-structured
//!   meta-group (paper Fig 3). Each member heartbeats its successor over
//!   all NICs; the successor of a failed member diagnoses the failure and
//!   takes over: restarting the GSD in place (process fault) or migrating
//!   it — with its partition services — to a backup node (node fault).
//!   The first member is the Leader, the second the Princess; when the
//!   Leader fails the Princess takes over, and so on down the ring.
//! * **Service supervision** — per-partition services (event, bulletin,
//!   checkpoint, user-environment services) register with their GSD and
//!   heartbeat it; the GSD restarts failed members from the factory
//!   registry, after which they restore state from the checkpoint service
//!   (paper Fig 4).
//!
//! The failure pipeline runs in three layers: `evidence` (heartbeat
//! tracks, suspicion scans, probe sessions), `verdict` (pure decision
//! rules: the probe `decide` chain, the regroup, placement and join rules,
//! quarantine convergence, leader yield) and `action` (diagnosis, takeover
//! and restart executors). The regroup quorum and fail-slow detectors that
//! feed the verdicts live in `quorum` and `slow`; joins, membership
//! broadcasts and service registration live in `membership`.

mod action;
mod evidence;
mod membership;
mod quorum;
mod slow;
mod verdict;

use crate::directory::NodeDirectory;
use crate::group::registry::{kernel_factory_key, SharedRegistry};
use crate::nic_health::NicHealth;
use crate::params::KernelParams;
use crate::regroup::Regroup;
use crate::slow_detect::SlowDetect;
use action::{DelayedOp, DIR_RESEND_TICKS};
use evidence::{PeerTrack, ProbeKind, ProbeSession};
use phoenix_proto::{
    CheckpointData, ClusterTopology, Event, EventPayload, EventType, KernelMsg, MemberInfo,
    NodeServices, PartitionId, RequestId, ServiceDirectory, ServiceKind, Shared,
};
use phoenix_sim::{
    Actor, Ctx, FaultTarget, NicId, NodeId, Pid, RecoveryAction, SimTime, TraceEvent,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};

const TOK_SCAN: u64 = 1;
const TOK_TICK: u64 = 2;
/// Retry timer for the directory query a respawned GSD sends to config.
const TOK_DIR_RETRY: u64 = 3;
/// Regroup round window: when it fires, the round concludes with
/// whatever acks arrived.
const TOK_REGROUP: u64 = 4;
/// Heal-probe cadence while frozen: opens a fresh regroup round.
const TOK_REGROUP_RETRY: u64 = 5;
const OP_BASE: u64 = 100;

/// How this GSD instance came to exist.
enum GsdInit {
    /// Spawned by the boot driver; wiring arrives in the `Boot` message.
    Boot,
    /// Spawned by a ring neighbour taking over a failed member.
    Respawn {
        hint: MemberInfo,
        members: Vec<MemberInfo>,
        /// The rescuer's membership epoch at spawn time. The respawn
        /// adopts it so its own announcements are credible: a rescued
        /// partition that sorts to ring position 0 *is* the leader and
        /// broadcasts directly — from epoch 0 every peer would discard
        /// the broadcast as stale and re-rescue forever.
        epoch: u64,
        action: RecoveryAction,
    },
}

/// Supervised-service tracking state.
struct SvcTrack {
    kind: ServiceKind,
    factory: String,
    last: SimTime,
}

/// The GSD actor.
pub struct Gsd {
    partition: PartitionId,
    params: KernelParams,
    topology: ClusterTopology,
    config: Pid,
    registry: SharedRegistry,
    init: Option<GsdInit>,

    local: MemberInfo,
    members: Vec<MemberInfo>,
    epoch: u64,
    node_daemons: BTreeMap<NodeId, NodeServices>,
    /// Watch-daemon pids for *every* cluster node (not just our own
    /// partition's): regroup rounds probe a silent partition's home-node
    /// WDs for dead-GSD testimony. Seeded from the boot/respawn
    /// directory (shared, not copied per GSD); foreign entries refreshed
    /// by config's `DirectoryUpdateNode` fan-out (vote-table profiles
    /// only).
    cluster_nodes: NodeDirectory,

    /// Heartbeat evidence per partition node, with the node's WD pid.
    wd_tracks: BTreeMap<NodeId, (Pid, PeerTrack)>,
    svc_tracks: BTreeMap<Pid, SvcTrack>,
    /// Heartbeat evidence about the ring predecessor.
    pred: Option<(MemberInfo, PeerTrack)>,
    my_nic_known: Vec<bool>,
    /// EWMA delivery-health per parallel network, fed by heartbeat seq
    /// gaps (WD and meta-ring). Inert unless `params.ft.nic.enabled`.
    nic_health: NicHealth,

    probes: BTreeMap<u64, ProbeSession>,
    ops: HashMap<u64, DelayedOp>,
    next_id: u64,
    last_role: &'static str,
    monitoring: bool,
    recovery: Option<RecoveryAction>,
    supervision_dirty: bool,
    /// Last known member info per partition (rescue hints).
    last_known: HashMap<PartitionId, MemberInfo>,
    /// Partitions the leader is currently rescuing.
    rescuing: std::collections::HashSet<PartitionId>,
    /// Monotone id for takeover plans; keys their telemetry marks so
    /// overlapping plans for one partition cannot clobber each other.
    takeover_seq: u64,
    /// Re-announce ourselves to the leader at the next tick (set when a
    /// membership broadcast was missing us).
    needs_rejoin: bool,
    /// Ring-heartbeat sequence counter (bumped once per tick; carried in
    /// every `MetaHeartbeat` so successors can discard duplicates).
    hb_seq: u64,
    /// Send attempts for the respawn-time directory query (retried with
    /// backoff when the retry policy allows — a lost query or reply must
    /// not strand the takeover forever).
    dir_attempts: u32,
    /// Node-daemon directory entries this GSD changed (WD restarts),
    /// re-asserted to config for a bounded number of ticks under a
    /// retrying policy: the `DirectoryUpdateNode` push is fire-and-forget,
    /// and a lost one would leave the config directory pointing at a dead
    /// pid forever. Entries are dropped when config pushes a fresher one.
    dir_resend_nodes: BTreeMap<NodeId, (NodeServices, u32)>,
    /// Remaining ticks over which our own `DirectoryUpdate` (membership
    /// announce after a takeover/migration) is re-asserted to config.
    dir_resend_local: u32,
    /// MSCS-style quorum regroup state (inert unless
    /// `params.ft.regroup.enabled`).
    regroup: Regroup,
    /// Telemetry span covering a frozen episode (freeze → thaw); aborted
    /// if this GSD dies frozen (e.g. yields to its replacement).
    frozen_span: Option<phoenix_telemetry::SpanId>,
    /// Span covering the currently collecting regroup round — a child of
    /// `frozen_span` while frozen, so a post-mortem span tree shows the
    /// heal-probing rounds nested inside the frozen episode.
    round_span: Option<phoenix_telemetry::SpanId>,
    /// Latency-aware fail-slow detector: per-peer RTT EWMA + deviation
    /// scores from slow pings, probe rounds, and heartbeat echoes. Inert
    /// unless `params.ft.slow.enabled`.
    slow: SlowDetect,
    /// Outstanding slow pings: seq → (target node, send time).
    slow_ping_sent: HashMap<u64, (NodeId, SimTime)>,
    slow_ping_seq: u64,
    /// Last time each peer answered *anything* RTT-measurable. A Slow
    /// verdict only vetoes a dead diagnosis while this is fresh — once
    /// pongs stop, the veto lapses and fail-stop diagnosis proceeds.
    slow_last_seen: HashMap<NodeId, SimTime>,
    /// Leader-maintained quarantine set (partitions whose server node is
    /// diagnosed Slow): demoted to the ring tail, skipped for new-service
    /// placement. Adopted by everyone via `MetaQuarantine`.
    quarantined: BTreeSet<PartitionId>,
    /// Epoch guard for `MetaQuarantine` broadcasts (stale ones ignored).
    quarantine_epoch: u64,
    /// Quarantine candidates from the previous maintenance tick. An
    /// addition must survive two consecutive ticks: when this observer is
    /// the degraded one, its Slow verdicts cross their streaks a ping
    /// round apart, so at the first tick the strict-majority `gray_self`
    /// veto can lag the earliest verdicts — one tick later the inversion
    /// is complete and the veto holds. A healthy leader watching a
    /// genuinely slow member sees a stable candidate both ticks.
    slow_pending: BTreeSet<PartitionId>,
    /// Set while this GSD is handing its partition to a healthier node
    /// (slow-drain): suppresses double-spawns and gates orphan-service
    /// cleanup when the replacement's membership arrives.
    draining: bool,
    /// Set on a drain-spawned replacement: this instance is already the
    /// product of a slow-drain, so a quarantine entry that merely has not
    /// warmed out yet must not bounce it to a third node. Cleared when
    /// the partition leaves the quarantine set.
    drained: bool,
}

impl Gsd {
    /// Boot-time GSD.
    pub fn new(
        partition: PartitionId,
        params: KernelParams,
        topology: ClusterTopology,
        config: Pid,
        registry: SharedRegistry,
    ) -> Self {
        let nic_health = NicHealth::new(params.ft.nic.clone(), 0);
        let regroup = Regroup::new(params.ft.regroup.clone());
        let slow = SlowDetect::new(params.ft.slow.clone());
        Gsd {
            partition,
            params,
            topology,
            config,
            registry,
            init: Some(GsdInit::Boot),
            local: MemberInfo {
                partition,
                node: NodeId(0),
                gsd: Pid(0),
                event: Pid(0),
                bulletin: Pid(0),
                checkpoint: Pid(0),
                host_ppm: Pid(0),
            },
            members: Vec::new(),
            epoch: 0,
            node_daemons: BTreeMap::new(),
            cluster_nodes: NodeDirectory::default(),
            wd_tracks: BTreeMap::new(),
            svc_tracks: BTreeMap::new(),
            pred: None,
            my_nic_known: Vec::new(),
            nic_health,
            probes: BTreeMap::new(),
            ops: HashMap::new(),
            next_id: 0,
            last_role: "",
            monitoring: false,
            recovery: None,
            supervision_dirty: false,
            last_known: HashMap::new(),
            rescuing: std::collections::HashSet::new(),
            takeover_seq: 0,
            needs_rejoin: false,
            hb_seq: 0,
            dir_attempts: 0,
            dir_resend_nodes: BTreeMap::new(),
            dir_resend_local: 0,
            regroup,
            frozen_span: None,
            round_span: None,
            slow,
            slow_ping_sent: HashMap::new(),
            slow_ping_seq: 0,
            slow_last_seen: HashMap::new(),
            quarantined: BTreeSet::new(),
            quarantine_epoch: 0,
            slow_pending: BTreeSet::new(),
            draining: false,
            drained: false,
        }
    }

    /// A GSD to replace `hint`'s failed (or draining) instance. `hint` is
    /// the old member's info (for an in-place restart its service pids are
    /// still valid); `members` is the takeover-time membership snapshot
    /// (the failed member already removed).
    fn replacement(
        &self,
        hint: MemberInfo,
        members: Vec<MemberInfo>,
        epoch: u64,
        action: RecoveryAction,
    ) -> Gsd {
        let mut gsd = Gsd::new(
            hint.partition,
            self.params.clone(),
            self.topology.clone(),
            self.config,
            self.registry.clone(),
        );
        gsd.init = Some(GsdInit::Respawn {
            hint,
            members,
            epoch,
            action,
        });
        gsd
    }

    // ---- identity & ring geometry ---------------------------------------

    fn sorted(&mut self) {
        // Quarantined partitions sink to the ring tail so they can never
        // hold leader (index 0) or princess (index 1) while degraded.
        // With an empty set this is the classic lowest-partition order.
        let q = self.quarantined.clone();
        self.members
            .sort_by_key(|m| (q.contains(&m.partition), m.partition));
        self.members.dedup_by_key(|m| m.partition);
    }

    fn my_index(&self) -> Option<usize> {
        self.members
            .iter()
            .position(|m| m.partition == self.partition)
    }

    /// The ring successor (whom I heartbeat).
    fn successor(&self) -> Option<MemberInfo> {
        let i = self.my_index()?;
        let n = self.members.len();
        if n < 2 {
            return None;
        }
        Some(self.members[(i + 1) % n])
    }

    /// The ring predecessor (whom I monitor).
    fn predecessor(&self) -> Option<MemberInfo> {
        let i = self.my_index()?;
        let n = self.members.len();
        if n < 2 {
            return None;
        }
        Some(self.members[(i + n - 1) % n])
    }

    /// "Leader" / "princess" / "member" per ring position (paper Fig 3).
    fn role(&self) -> &'static str {
        match self.my_index() {
            Some(0) => "leader",
            Some(1) => "princess",
            Some(_) => "member",
            None => "orphan",
        }
    }

    fn leader(&self) -> Option<MemberInfo> {
        self.members.first().copied()
    }

    // ---- read-only introspection (chaos / invariant harnesses) ----------
    //
    // Reached from outside the simulation through
    // `World::actor_as::<Gsd>(pid)`; nothing here mutates state.

    /// Partition this GSD serves.
    pub fn partition_id(&self) -> PartitionId {
        self.partition
    }

    /// Current ring role: "leader" / "princess" / "member" / "orphan" —
    /// or "frozen" while this GSD sits on a minority island. A frozen
    /// ex-leader is *not* a leader: the whole point of the regroup
    /// protocol is that only the majority side may report one.
    pub fn role_name(&self) -> &'static str {
        if self.regroup.frozen() {
            return "frozen";
        }
        self.role()
    }

    /// The partition this GSD believes leads the meta-group.
    pub fn leader_view(&self) -> Option<PartitionId> {
        self.leader().map(|m| m.partition)
    }

    /// Current witness view when the vote table is active:
    /// `(witness partition, witness epoch)`. Chaos invariants and the
    /// quorum bench read it to evaluate the weighted win rule the same
    /// way the GSDs themselves do.
    pub fn witness_view(&self) -> Option<(PartitionId, u64)> {
        self.regroup
            .witness()
            .map(|w| (w, self.regroup.witness_epoch()))
    }

    /// Effective takeover delay currently enforced by the regroup layer.
    pub fn effective_takeover_delay(&self) -> phoenix_sim::SimDuration {
        self.regroup.effective_takeover_delay()
    }

    fn refresh_roles(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.sorted();
        phoenix_telemetry::gauge_set("gsd.meta_group.members", self.members.len() as f64);
        for m in &self.members {
            self.last_known.insert(m.partition, *m);
        }
        let present: std::collections::HashSet<PartitionId> =
            self.members.iter().map(|m| m.partition).collect();
        self.rescuing.retain(|p| !present.contains(p));
        let role = self.role();
        if role != self.last_role {
            self.last_role = role;
            ctx.trace(TraceEvent::RoleChange {
                pid: ctx.pid(),
                role,
            });
        }
        // Reset predecessor tracking if the predecessor changed.
        let pred = self.predecessor();
        let changed = match (&self.pred, &pred) {
            (Some((m, _)), Some(p)) => m.gsd != p.gsd,
            (None, None) => false,
            _ => true,
        };
        if changed {
            let nics = self.my_nic_known.len().max(1);
            self.pred = pred.map(|member| (member, PeerTrack::new(nics, ctx.now())));
        }
    }

    // ---- small utilities -------------------------------------------------

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn schedule(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        after: phoenix_sim::SimDuration,
        op: DelayedOp,
    ) {
        let id = self.fresh_id();
        self.ops.insert(id, op);
        ctx.set_timer(after, OP_BASE + id);
    }

    fn publish(&self, ctx: &mut Ctx<'_, KernelMsg>, etype: EventType, origin: NodeId, payload: EventPayload) {
        ctx.send(
            self.local.event,
            KernelMsg::EsPublish {
                event: Event::new(etype, origin, payload),
            },
        );
    }

    /// Keep our own membership entry authoritative.
    fn patch_local_entry(&mut self) {
        let local = self.local;
        for m in &mut self.members {
            if m.partition == local.partition {
                *m = local;
            }
        }
    }

    fn directory_update(&self) -> KernelMsg {
        KernelMsg::DirectoryUpdate {
            partition: self.partition,
            member: self.local,
        }
    }

    fn membership_msg(&self, epoch: u64) -> KernelMsg {
        KernelMsg::MetaMembership {
            epoch,
            members: self.members.clone().into(),
        }
    }

    /// Supervised user-environment services, in pid order.
    fn user_services(&self) -> impl Iterator<Item = (&Pid, &SvcTrack)> {
        self.svc_tracks
            .iter()
            .filter(|(_, t)| t.kind == ServiceKind::UserEnvironment)
    }

    /// Start tracking `node`'s (new) watch daemon with fresh evidence.
    fn track_wd(&mut self, ctx: &Ctx<'_, KernelMsg>, node: NodeId, wd: Pid) {
        let track = PeerTrack::new(self.my_nic_known.len(), ctx.now());
        self.wd_tracks.insert(node, (wd, track));
    }

    /// The healthiest interface usable toward `peer` (up at both ends), or
    /// `None` when the NIC-health layer is disabled — callers then fall
    /// back to `ctx.send`'s default first-up-NIC routing, keeping the
    /// paper pipeline byte-identical.
    fn best_nic_for(&self, ctx: &Ctx<'_, KernelMsg>, peer: NodeId) -> Option<NicId> {
        if !self.nic_health.enabled() {
            return None;
        }
        let own = ctx.node();
        self.nic_health
            .best_where(|nic| ctx.nic_is_up(own, nic) && ctx.nic_is_up(peer, nic))
    }

    /// Single-path control-plane send preferring the healthiest NIC.
    fn send_routed(&self, ctx: &mut Ctx<'_, KernelMsg>, to: Pid, peer: NodeId, msg: KernelMsg) {
        match self.best_nic_for(ctx, peer) {
            Some(nic) => ctx.send_via(to, nic, msg),
            None => ctx.send(to, msg),
        }
    }

    fn broadcast_meta(&self, ctx: &mut Ctx<'_, KernelMsg>, msg: KernelMsg) {
        for m in &self.members {
            if m.partition != self.partition {
                self.send_routed(ctx, m.gsd, m.node, msg.clone());
            }
        }
    }

    fn push_partition_view(&self, ctx: &mut Ctx<'_, KernelMsg>) {
        phoenix_telemetry::counter_add("gsd.partition_view.pushes", 1);
        let view = KernelMsg::PartitionView {
            members: self.members.clone(),
            local: self.local,
        };
        for pid in [self.local.event, self.local.bulletin, self.local.checkpoint] {
            if pid != Pid(0) {
                ctx.send(pid, view.clone());
            }
        }
        // Supervised user-environment services also get the view.
        for (&pid, _) in self.user_services() {
            ctx.send(pid, view.clone());
        }
        if let Some(spec) = self.topology.partition(self.partition) {
            for node in spec.all_nodes() {
                if let Some(ns) = self.node_daemons.get(&node) {
                    ctx.send(ns.wd, view.clone());
                    ctx.send(ns.detector, view.clone());
                }
            }
        }
    }

    fn announce_membership_change(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        // Route the change through the leader (ourselves, perhaps).
        if let Some(leader) = self.leader() {
            if leader.partition == self.partition {
                self.epoch += 1;
                let msg = self.membership_msg(self.epoch);
                self.broadcast_meta(ctx, msg);
            } else {
                self.send_routed(
                    ctx,
                    leader.gsd,
                    leader.node,
                    KernelMsg::MetaJoin { member: self.local },
                );
            }
        }
        ctx.send(self.config, self.directory_update());
        if self.params.rpc.retries_enabled() {
            self.dir_resend_local = DIR_RESEND_TICKS;
        }
        self.push_partition_view(ctx);
    }

    fn save_supervision(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        // In pid order: a respawned GSD replays the roster in this order,
        // so it decides the replacements' pids.
        let entries: Vec<(String, Pid)> = self
            .user_services()
            .map(|(&pid, t)| (t.factory.clone(), pid))
            .collect();
        ctx.send(
            self.local.checkpoint,
            KernelMsg::CkSave {
                service: ServiceKind::Group,
                partition: self.partition,
                data: CheckpointData::Supervision { entries },
            },
        );
        self.supervision_dirty = false;
    }

    // ---- wiring ----------------------------------------------------------

    /// Ask config for the current directory (respawn wiring). Under a
    /// retrying policy a lost query or reply re-sends with backoff —
    /// otherwise the takeover would stall forever on a single lost message.
    fn send_directory_query(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        // Under NIC-health routing each resend rotates one step down the
        // health ranking (same contract as `Retrier::nic_for_attempt`): a
        // query whose preferred path eats packets escapes to an independent
        // network instead of re-rolling the same dice.
        let via = if self.nic_health.enabled() && self.nic_health.nic_count() > 0 {
            let ranked = self.nic_health.ranked();
            Some(ranked[self.dir_attempts as usize % ranked.len()])
        } else {
            None
        };
        let query = KernelMsg::CfgQueryDirectory { req: RequestId(0) };
        match via {
            Some(nic) => ctx.send_via(self.config, nic, query),
            None => ctx.send(self.config, query),
        }
        self.dir_attempts += 1;
        if self.dir_attempts > 1 {
            phoenix_telemetry::counter_add("rpc.retries", 1);
        }
        if self.params.rpc.retries_enabled() {
            if let Some(delay) = self.params.rpc.delay(self.dir_attempts, ctx.rng()) {
                ctx.set_timer(delay, TOK_DIR_RETRY);
            } else if self.regroup.enabled() && self.init.is_some() {
                // Retry budget exhausted while still unwired. An island
                // split can out-last every bounded attempt, and a respawned
                // GSD that gives up on wiring is a permanent orphan — keep
                // asking at heartbeat cadence until the directory answers.
                ctx.set_timer(self.params.ft.hb_interval, TOK_DIR_RETRY);
            }
        }
    }

    fn wire_from_boot(&mut self, ctx: &mut Ctx<'_, KernelMsg>, dir: Shared<ServiceDirectory>) {
        if let Some(me) = dir.partition(self.partition) {
            self.local = *me;
            self.local.gsd = ctx.pid();
        }
        self.members = dir.partitions.clone();
        // Patch our own entry (directory was built before spawn order).
        self.patch_local_entry();
        self.ingest_node_daemons(dir);
        self.finish_wiring(ctx);
    }

    fn ingest_node_daemons(&mut self, dir: Shared<ServiceDirectory>) {
        let Some(spec) = self.topology.partition(self.partition) else {
            return;
        };
        for node in spec.all_nodes() {
            if let Some(ns) = dir.node(node) {
                self.node_daemons.insert(node, *ns);
            }
        }
        self.cluster_nodes.boot(dir);
    }

    fn finish_wiring(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        // Quorum denominator: the *configured* partition set. The live
        // membership must not shrink the bar, or a minority island would
        // promote itself to "majority of what I can still see". This also
        // resolves the initial witness when the vote table is on.
        let parts: Vec<PartitionId> = self.topology.partitions.iter().map(|p| p.id).collect();
        self.regroup.set_partitions(&parts);
        let nics = ctx.nic_count(ctx.node());
        self.my_nic_known = (0..nics)
            .map(|i| ctx.nic_is_up(ctx.node(), NicId(i as u8)))
            .collect();
        if self.nic_health.nic_count() != nics {
            self.nic_health = NicHealth::new(self.params.ft.nic.clone(), nics);
        }
        if let Some(ns) = self.node_daemons.get(&ctx.node()) {
            self.local.host_ppm = ns.ppm;
        }
        self.local.node = ctx.node();

        // Initialize WD tracking for every partition node.
        let now = ctx.now();
        if let Some(spec) = self.topology.partition(self.partition).cloned() {
            for node in spec.all_nodes() {
                if let Some(ns) = self.node_daemons.get(&node) {
                    let nics = self.my_nic_known.len();
                    self.wd_tracks
                        .entry(node)
                        .or_insert_with(|| (ns.wd, PeerTrack::new(nics, now)));
                }
            }
        }

        self.refresh_roles(ctx);
        self.monitoring = true;
        ctx.set_timer(self.params.ft.check_interval, TOK_SCAN);
        ctx.set_timer(self.params.ft.hb_interval, TOK_TICK);
        // Register as an event supplier (fault/recovery events).
        ctx.send(
            self.local.event,
            KernelMsg::EsRegisterSupplier {
                supplier: ctx.pid(),
                types: vec![
                    EventType::NodeFault,
                    EventType::NodeRecovery,
                    EventType::NetworkFault,
                    EventType::NetworkRecovery,
                    EventType::NetworkDegraded,
                    EventType::ServiceFault,
                    EventType::ServiceRecovery,
                ],
            },
        );
        // Announce initial ring heartbeat immediately so successors have a
        // fresh baseline.
        self.send_meta_heartbeats(ctx);
    }

    fn wire_from_respawn(&mut self, ctx: &mut Ctx<'_, KernelMsg>, dir: Shared<ServiceDirectory>) {
        let Some(GsdInit::Respawn {
            hint,
            members,
            epoch,
            action,
        }) = self.init.take()
        else {
            return;
        };
        self.ingest_node_daemons(dir);
        self.members = members;
        self.local = hint;
        self.local.gsd = ctx.pid();
        self.local.node = ctx.node();
        self.epoch = epoch;
        self.recovery = Some(action);

        // Migrated: the whole server node died, rebuild the partition
        // services here. An *in-place* rescue needs the same treatment
        // when the host crashed and rebooted between diagnosis and this
        // respawn — the old service pids died with the node even though
        // the node reports up again (a liveness check of co-resident
        // pids, not remote omniscience: in-place means they share our
        // node).
        let services_died = [hint.checkpoint, hint.event, hint.bulletin]
            .iter()
            .any(|&p| p == Pid(0) || !ctx.process_is_alive(p));
        let rebuild = matches!(action, RecoveryAction::Migrated(_)) || services_died;
        if rebuild {
            // Checkpoint first so the others can restore from it.
            let spawn_kind = |ctx: &mut Ctx<'_, KernelMsg>, kind: ServiceKind, checkpoint: Pid| {
                let args = self.respawn_args(ctx, kind, checkpoint, action);
                let key = kernel_factory_key(kind, self.partition);
                let built = self.registry.borrow_mut().build(&key, &args);
                built.map_or(Pid(0), |actor| ctx.spawn(args.node, actor))
            };
            let ck = spawn_kind(ctx, ServiceKind::Checkpoint, Pid(0));
            let es = spawn_kind(ctx, ServiceKind::Event, ck);
            let db = spawn_kind(ctx, ServiceKind::DataBulletin, ck);
            self.local.checkpoint = ck;
            self.local.event = es;
            self.local.bulletin = db;
        }

        // Upsert ourselves into the membership and tell the world.
        let old_gsd = hint.gsd;
        self.members.retain(|m| m.partition != self.partition);
        self.members.push(self.local);
        self.finish_wiring(ctx);
        // Adopt the surviving services: they are still bound to the GSD we
        // replace, and if that instance died *frozen* (yielded while a
        // regroup verdict had it suppressed) its last freeze fan-out is
        // stale forever — nobody else will ever thaw them. Rebind them to
        // us and clear the flag; we start unfrozen, and our own regroup
        // will re-freeze them if this island really has lost quorum.
        if !rebuild {
            self.push_partition_view(ctx);
            self.freeze_fanout(ctx, false);
        }
        self.announce_membership_change(ctx);
        // Make sure the instance we replace (if it is somehow still
        // running — false takeover) learns about us and yields.
        if old_gsd != ctx.pid() && old_gsd != Pid(0) {
            ctx.send(old_gsd, self.membership_msg(self.epoch + 1));
        }

        // Restore the user-environment supervision roster.
        ctx.send(
            self.local.checkpoint,
            KernelMsg::CkLoad {
                req: RequestId(0),
                service: ServiceKind::Group,
                partition: self.partition,
            },
        );

        if let Some(action) = self.recovery.take() {
            ctx.trace(TraceEvent::Recovered {
                target: FaultTarget::Process(ctx.pid()),
                action,
            });
            self.publish(
                ctx,
                EventType::ServiceRecovery,
                ctx.node(),
                EventPayload::Service(ServiceKind::Group, ctx.node()),
            );
        }
    }

    // ---- tick (ring heartbeats + introspection) ----------------------------

    fn send_meta_heartbeats(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if let Some(succ) = self.successor() {
            self.hb_seq += 1;
            phoenix_telemetry::counter_add(
                "gsd.meta_heartbeats.sent",
                self.my_nic_known.len() as u64,
            );
            for i in 0..self.my_nic_known.len() {
                // Keyed on (partition, nic, seq): the successor measures the
                // same tuple from the message fields, and the per-beat seq
                // keeps duplicated deliveries from re-measuring a stale mark.
                phoenix_telemetry::mark(
                    "meta.heartbeat.flight",
                    phoenix_telemetry::key(&[self.partition.0 as u64, i as u64, self.hb_seq]),
                );
                ctx.send_via(
                    succ.gsd,
                    NicId(i as u8),
                    KernelMsg::MetaHeartbeat {
                        from_partition: self.partition,
                        nic: NicId(i as u8),
                        epoch: self.epoch,
                        seq: self.hb_seq,
                    },
                );
            }
        }
    }

    /// Re-assert recently changed directory entries to config. Only active
    /// under a retrying policy; a bounded number of repeats per change.
    fn directory_anti_entropy(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if self.dir_resend_local > 0 {
            self.dir_resend_local -= 1;
            ctx.send(self.config, self.directory_update());
        }
        for (services, left) in self.dir_resend_nodes.values_mut() {
            *left -= 1;
            ctx.send(
                self.config,
                KernelMsg::DirectoryUpdateNode {
                    services: *services,
                },
            );
        }
        self.dir_resend_nodes.retain(|_, (_, left)| *left > 0);
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        self.send_meta_heartbeats(ctx);
        self.introspect_own_nics(ctx);
        // A frozen GSD keeps beating (so its same-island successor never
        // mistakes the freeze for a death) but performs no authoritative
        // work: no directory writes, no checkpoints, no rescues, no
        // rejoin toward a leader view that predates the partition.
        if !self.regroup.frozen() {
            self.directory_anti_entropy(ctx);
            if self.supervision_dirty {
                self.save_supervision(ctx);
            }
            self.rescue_sweep(ctx);
            if self.slow.enabled() {
                self.slow_probe_round(ctx);
                self.slow_maintenance(ctx);
            }
            if self.needs_rejoin {
                self.needs_rejoin = false;
                if let Some(leader) = self.leader() {
                    if leader.partition != self.partition {
                        self.send_routed(
                            ctx,
                            leader.gsd,
                            leader.node,
                            KernelMsg::MetaJoin { member: self.local },
                        );
                    }
                }
            }
        }
        ctx.set_timer(self.params.ft.hb_interval, TOK_TICK);
    }
}

impl Actor<KernelMsg> for Gsd {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.trace(TraceEvent::ServiceUp {
            pid: ctx.pid(),
            service: "gsd",
            node: ctx.node(),
        });
        self.local.gsd = ctx.pid();
        self.local.node = ctx.node();
        if matches!(self.init, Some(GsdInit::Respawn { .. })) {
            // Need the current node-daemon directory before wiring.
            self.send_directory_query(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::Boot(dir) => {
                if matches!(self.init, Some(GsdInit::Boot)) {
                    self.init = None;
                    self.wire_from_boot(ctx, dir);
                }
            }
            KernelMsg::CfgDirectory { directory, .. } => {
                if matches!(self.init, Some(GsdInit::Respawn { .. })) {
                    self.wire_from_respawn(ctx, (*directory).into());
                }
            }
            KernelMsg::WdHeartbeat { node, nic, seq } => {
                self.on_heartbeat(ctx, ProbeKind::Wd(node), from, nic, seq)
            }
            KernelMsg::MetaHeartbeat {
                from_partition,
                nic,
                seq,
                ..
            } => self.on_heartbeat(ctx, ProbeKind::Meta(from_partition), from, nic, seq),
            KernelMsg::MetaJoin { .. }
            | KernelMsg::MetaMembership { .. }
            | KernelMsg::MetaMemberDown { .. }
            | KernelMsg::SvcRegister { .. } => self.on_membership_msg(ctx, msg),
            KernelMsg::SvcHeartbeat { pid, .. } => {
                if let Some(t) = self.svc_tracks.get_mut(&pid) {
                    t.last = ctx.now();
                }
            }
            KernelMsg::ProbeResp { req } => self.on_probe_resp(ctx, req.0),
            KernelMsg::ProbeReq { req } => {
                ctx.send(from, KernelMsg::ProbeResp { req });
            }
            KernelMsg::SlowPing { .. }
            | KernelMsg::SlowPong { .. }
            | KernelMsg::SlowLeaderYield { .. }
            | KernelMsg::MetaQuarantine { .. } => self.on_slow_msg(ctx, from, msg),
            KernelMsg::RegroupPing { .. }
            | KernelMsg::RegroupAck { .. }
            | KernelMsg::RegroupProbeAck { .. } => self.on_regroup_msg(ctx, from, msg),
            KernelMsg::CfgSetParam { key, value, .. } => {
                if key == "hb_interval_ms" {
                    if let Ok(ms) = value.parse::<u64>() {
                        self.params.ft.hb_interval =
                            phoenix_sim::SimDuration::from_millis(ms.max(1));
                        // Reset heartbeat baselines so a *longer* interval
                        // does not trip deadlines computed from beats that
                        // were sent on the old cadence.
                        let now = ctx.now();
                        let wds = self.wd_tracks.values_mut().map(|(_, t)| t);
                        for t in wds.chain(self.pred.as_mut().map(|(_, t)| t)) {
                            t.last.fill(now);
                        }
                    }
                }
            }
            KernelMsg::DirectoryUpdateNode { services } => {
                // Config respawned a node's daemons (node brought back up).
                let node = services.node;
                self.cluster_nodes.update(services);
                // Vote-table profiles fan this out to *every* GSD so
                // regroup probes reach fresh WD pids; only the owning
                // partition tracks the node for fault monitoring.
                let mine = self
                    .topology
                    .partition(self.partition)
                    .is_some_and(|spec| spec.all_nodes().contains(&node));
                if !mine {
                    return;
                }
                // Config's push supersedes anything we were re-asserting.
                self.dir_resend_nodes.remove(&node);
                self.node_daemons.insert(node, services);
                let was_down = self.wd_tracks.get(&node).is_some_and(|(_, t)| t.down);
                self.track_wd(ctx, node, services.wd);
                if was_down {
                    self.publish(ctx, EventType::NodeRecovery, node, EventPayload::Node(node));
                }
            }
            KernelMsg::CkLoadResp { data, .. } => {
                // Supervision roster restore after GSD respawn.
                if let Some(CheckpointData::Supervision { entries }) = data {
                    for (factory, old_pid) in entries {
                        if matches!(self.recovery, None) {
                            // In-place restart: old instances may be alive;
                            // ping them with the view so they re-register.
                            if ctx.process_is_alive(old_pid) {
                                ctx.send(
                                    old_pid,
                                    KernelMsg::PartitionView {
                                        members: self.members.clone(),
                                        local: self.local,
                                    },
                                );
                                continue;
                            }
                        }
                        let args = self.respawn_args(
                            ctx,
                            ServiceKind::UserEnvironment,
                            self.local.checkpoint,
                            RecoveryAction::Migrated(ctx.node()),
                        );
                        let built = self.registry.borrow_mut().build(&factory, &args);
                        if let Some(actor) = built {
                            ctx.spawn(ctx.node(), actor);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        match token {
            TOK_SCAN => {
                if self.monitoring {
                    // Frozen: no suspicion processing at all — the scan
                    // deadline loop is what ripens into takeovers. The
                    // timer stays armed so monitoring resumes on thaw.
                    if !self.regroup.frozen() {
                        self.scan(ctx);
                    }
                    ctx.set_timer(self.params.ft.check_interval, TOK_SCAN);
                }
            }
            TOK_TICK => {
                if self.monitoring {
                    self.tick(ctx);
                }
            }
            TOK_DIR_RETRY => {
                // Still waiting for the respawn directory: the query or its
                // reply was lost — ask again.
                if matches!(self.init, Some(GsdInit::Respawn { .. })) {
                    self.send_directory_query(ctx);
                }
            }
            TOK_REGROUP => self.conclude_regroup(ctx),
            TOK_REGROUP_RETRY => {
                // Heal detection: while frozen, keep opening rounds until
                // a majority answers. An unfrozen majority polls too while
                // the witness is unreachable, so the failover can fire the
                // moment the takeover licence ripens (and so a healed
                // witness is re-observed promptly).
                if self.regroup.frozen() || self.regroup.witness_lost() {
                    self.start_regroup_round(ctx);
                }
            }
            t if t > OP_BASE => {
                if let Some(op) = self.ops.remove(&(t - OP_BASE)) {
                    self.run_op(ctx, op);
                }
            }
            _ => {}
        }
    }

    fn on_kill(&mut self, _now: phoenix_sim::SimTime) {
        self.abandon_probes();
        // A GSD that dies frozen (most often: yielding to the majority's
        // replacement after a heal) abandons its frozen-episode span, and
        // any round still collecting goes with it.
        if let Some(span) = self.round_span.take() {
            phoenix_telemetry::span_abort(span);
        }
        if let Some(span) = self.frozen_span.take() {
            phoenix_telemetry::span_abort(span);
        }
    }

    fn name(&self) -> &str {
        "gsd"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}
