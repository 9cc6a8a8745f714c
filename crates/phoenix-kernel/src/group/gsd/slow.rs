//! Fail-slow handling: RTT evidence, quarantine, drain and leader yield.
//!
//! The detector (`slow_detect`) scores peers from slow pings and probe
//! rounds; the quarantine-convergence and yield rules it feeds are pure
//! functions in the verdict layer.

use super::verdict::{self, Health, Placement};
use super::Gsd;
use crate::slow_detect::{SlowTransition, Verdict as SlowVerdict};
use phoenix_proto::{KernelMsg, MemberInfo, PartitionId};
use phoenix_sim::{Ctx, NodeId, Pid, RecoveryAction, SimTime, TraceEvent};
use std::collections::BTreeSet;

/// Per-node fail-slow gauge keys, exported by the meta-group leader:
/// `slow.verdict.nodeK` (0 = healthy, 1 = slow, 2 = dead) and
/// `slow.score.nodeK` (smoothed RTT over baseline; 1.0 = at baseline).
/// Fixed literals for the same reason as the NIC gauges; simulated
/// clusters use small node ids.
macro_rules! node_gauge {
    ($prefix:literal, $node:expr) => {
        match $node.0 {
            0 => concat!($prefix, "node0"),
            1 => concat!($prefix, "node1"),
            2 => concat!($prefix, "node2"),
            3 => concat!($prefix, "node3"),
            4 => concat!($prefix, "node4"),
            5 => concat!($prefix, "node5"),
            6 => concat!($prefix, "node6"),
            7 => concat!($prefix, "node7"),
            _ => concat!($prefix, "nodeN"),
        }
    };
}

impl Gsd {
    /// Gray-self inversion over this observer's detector (see
    /// [`verdict::gray_self`]): while it holds, verdicts must not be used
    /// *against* peers (no quarantine additions, no yield requests, no
    /// placement vetoes) — a degraded node handing out quarantines would
    /// decapitate a healthy cluster.
    pub(super) fn gray_self(&self) -> bool {
        verdict::gray_self(
            self.slow
                .verdicts()
                .into_iter()
                .map(|(node, v)| (v, self.slow.warmed(node))),
        )
    }

    /// Slow ≠ down: a Slow verdict plus *fresh* RTT evidence vetoes a dead
    /// diagnosis. The freshness gate keeps the veto from becoming a
    /// livelock — a slow node that later genuinely dies stops answering,
    /// the evidence goes stale within one suspicion window, and the
    /// fail-stop pipeline proceeds as if the veto never existed.
    pub(super) fn slow_alive(&self, now: SimTime, node: NodeId) -> bool {
        self.slow.enabled()
            && self.slow.is_slow(node)
            && self
                .slow_last_seen
                .get(&node)
                .map(|&l| !self.stale(now, l))
                .unwrap_or(false)
    }

    /// One RTT sample for a peer node, from any source (slow pong, probe
    /// response). Feeds the detector and refreshes the evidence-of-life
    /// stamp the dead-veto consults.
    pub(super) fn observe_peer_rtt(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        node: NodeId,
        rtt_ns: u64,
    ) {
        if !self.slow.enabled() {
            return;
        }
        self.slow_last_seen.insert(node, ctx.now());
        if let Some(tr) = self.slow.observe_rtt(node, rtt_ns) {
            self.apply_slow_transition(ctx, tr);
        }
    }

    fn apply_slow_transition(&mut self, ctx: &mut Ctx<'_, KernelMsg>, tr: SlowTransition) {
        let (counter, label, node) = match tr {
            SlowTransition::Quarantined(node) => ("gsd.slow.suspected", "slow-suspected", node),
            SlowTransition::Reinstated(node) => ("gsd.slow.reinstated", "slow-reinstated", node),
        };
        phoenix_telemetry::counter_add(counter, 1);
        ctx.trace(TraceEvent::Milestone {
            label,
            value: node.0 as f64,
        });
    }

    fn send_slow_ping(&mut self, ctx: &mut Ctx<'_, KernelMsg>, node: NodeId, to: Pid) {
        self.slow_ping_seq += 1;
        let seq = self.slow_ping_seq;
        self.slow_ping_sent.insert(seq, (node, ctx.now()));
        self.send_routed(ctx, to, node, KernelMsg::SlowPing { seq });
    }

    /// One slow-ping round per tick. Everyone samples its ring
    /// predecessor (the node it must judge before ever suspecting it —
    /// and for the princess, the predecessor *is* the leader); the leader
    /// additionally samples every member and its own partition's
    /// placement-candidate nodes via their watch daemons.
    pub(super) fn slow_probe_round(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let now = ctx.now();
        // Expire pings past the horizon: a pong that took 8 beats is not
        // a latency sample, and the map must stay bounded under loss.
        let horizon = self.params.ft.hb_interval * 8;
        self.slow_ping_sent.retain(|_, (_, at)| now.since(*at) <= horizon);
        let mut targets: Vec<(NodeId, Pid)> = Vec::new();
        if let Some(p) = self.predecessor() {
            if p.gsd != Pid(0) {
                targets.push((p.node, p.gsd));
            }
        }
        if self.role() == "leader" {
            for m in &self.members {
                if m.partition != self.partition && m.gsd != Pid(0) {
                    targets.push((m.node, m.gsd));
                }
            }
            // Placement candidates: this partition's own nodes, via their
            // watch daemons.
            let wds = self.node_daemons.iter().map(|(&n, s)| (n, s.wd));
            targets.extend(wds.filter(|&(_, wd)| wd != Pid(0)));
        }
        let own = ctx.node();
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for (node, to) in targets {
            if node == own || !seen.insert(node) {
                continue;
            }
            self.send_slow_ping(ctx, node, to);
        }
    }

    /// Health-ranked witness candidates: healthy partitions before
    /// quarantined/slow ones, then by slowness score, ties by partition
    /// id — so with no slowness observed this is exactly the legacy
    /// lowest-id order.
    fn witness_preference(&self) -> Vec<PartitionId> {
        let mut pref: Vec<(bool, f64, PartitionId)> = self
            .members
            .iter()
            .map(|m| {
                let degraded =
                    self.quarantined.contains(&m.partition) || self.slow.is_slow(m.node);
                (degraded, self.slow.score(m.node), m.partition)
            })
            .collect();
        pref.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
        pref.into_iter().map(|(_, _, p)| p).collect()
    }

    /// Per-tick fail-slow duties beyond pinging: the princess asks a
    /// degraded leader to yield, any licensed node refreshes the witness
    /// preference, and the leader converges the quarantine set.
    pub(super) fn slow_maintenance(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let now = ctx.now();
        let gray = self.gray_self();
        // Princess duty: the leader has no ring successor judging it for
        // takeover purposes, but the princess (whose predecessor it is)
        // holds a live RTT profile — a degraded leader is asked to shed
        // leadership *without* any takeover machinery firing.
        if let Some(l) = self.leader().filter(|l| l.partition != self.partition) {
            let princess = self.role() == "princess";
            let quarantined = self.quarantined.contains(&l.partition);
            if verdict::princess_requests_yield(
                princess,
                gray,
                self.slow.is_slow(l.node),
                quarantined,
            ) {
                phoenix_telemetry::counter_add("gsd.slow.yield_requests", 1);
                let from_partition = self.partition;
                self.send_routed(
                    ctx,
                    l.gsd,
                    l.node,
                    KernelMsg::SlowLeaderYield { from_partition },
                );
            }
        }
        // Witness preference is only consulted when a failover fires
        // under a ripened licence; refresh it on the same licence so a
        // minority island can never install a ranking, and never from a
        // gray-self observer whose ranking is its own slowness.
        if self.regroup.votes_enabled() && !gray && self.regroup.takeover_licensed(now) {
            let pref = self.witness_preference();
            self.regroup.set_witness_preference(pref);
        }
        if self.role() != "leader" {
            return;
        }
        for (node, v) in self.slow.verdicts() {
            let val = match v {
                SlowVerdict::Healthy => 0.0,
                SlowVerdict::Slow => 1.0,
                SlowVerdict::Dead => 2.0,
            };
            phoenix_telemetry::gauge_set(node_gauge!("slow.verdict.", node), val);
            let score = self.slow.score(node);
            phoenix_telemetry::gauge_set(node_gauge!("slow.score.", node), score);
        }
        phoenix_telemetry::gauge_set("gsd.slow.quarantined", self.quarantined.len() as f64);
        let members: Vec<(PartitionId, Health)> = self
            .members
            .iter()
            .map(|m| {
                let health = if self.slow.is_slow(m.node) {
                    Health::Slow
                } else if self.slow.warmed(m.node)
                    && self.slow.verdict(m.node) == SlowVerdict::Healthy
                {
                    Health::Healthy
                } else {
                    Health::Unknown
                };
                (m.partition, health)
            })
            .collect();
        let (next, pending) = verdict::converge_quarantine(
            self.partition,
            &members,
            gray,
            &self.quarantined,
            &self.slow_pending,
        );
        self.slow_pending = pending;
        if next != self.quarantined {
            self.set_quarantine(ctx, next);
        } else if !self.quarantined.is_empty() {
            // Same-epoch refresh: late joiners (empty set, epoch 0) adopt
            // the ring order within one tick; everyone else no-ops.
            let msg = KernelMsg::MetaQuarantine {
                epoch: self.quarantine_epoch,
                quarantined: self.quarantined.iter().copied().collect(),
            };
            self.broadcast_meta(ctx, msg);
        }
    }

    /// Install a new quarantine set, broadcast it under a bumped epoch,
    /// and re-derive the ring order locally. Called by the leader's
    /// convergence pass and by a leader self-quarantining on yield.
    fn set_quarantine(&mut self, ctx: &mut Ctx<'_, KernelMsg>, next: BTreeSet<PartitionId>) {
        self.quarantined = next;
        self.quarantine_epoch += 1;
        phoenix_telemetry::gauge_set("gsd.slow.quarantined", self.quarantined.len() as f64);
        ctx.trace(TraceEvent::Milestone {
            label: "slow-quarantine",
            value: self.quarantined.len() as f64,
        });
        let msg = KernelMsg::MetaQuarantine {
            epoch: self.quarantine_epoch,
            quarantined: self.quarantined.iter().copied().collect(),
        };
        self.broadcast_meta(ctx, msg);
        self.refresh_roles(ctx);
        self.push_partition_view(ctx);
        self.maybe_drain(ctx);
    }

    /// Quarantined-and-on-the-degraded-node: hand the partition to a
    /// healthier home node by spawning our own replacement there — the
    /// existing Migrate/duplicate-resolution machinery does the rest (the
    /// replacement joins, the leader replaces our entry, the membership
    /// naming the newer pid makes us yield). No `FaultDiagnosed`, no
    /// takeover marks: nothing died.
    fn maybe_drain(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if self.draining || self.drained || !self.quarantined.contains(&self.partition) {
            return;
        }
        let why = Placement::Drain {
            gray_self: self.gray_self(),
        };
        let Some(to) = self.place(ctx, self.partition, ctx.node(), why) else {
            return; // no healthy home node: stay put, keep serving
        };
        self.draining = true;
        phoenix_telemetry::counter_add("gsd.slow.drains", 1);
        ctx.trace(TraceEvent::Milestone {
            label: "slow-drain",
            value: self.partition.0 as f64,
        });
        let hint = self.local;
        let members: Vec<MemberInfo> = self
            .members
            .iter()
            .copied()
            .filter(|m| m.partition != self.partition)
            .collect();
        let mut gsd = self.replacement(hint, members, self.epoch, RecoveryAction::Migrated(to));
        // The clone must share our quarantine view (ring order!) and must
        // not re-drain off its fresh node on a not-yet-warmed-out entry.
        gsd.quarantined = self.quarantined.clone();
        gsd.quarantine_epoch = self.quarantine_epoch;
        gsd.drained = true;
        ctx.spawn(to, Box::new(gsd));
    }

    /// Test/introspection: the adopted quarantine view.
    pub fn quarantine_view(&self) -> (u64, Vec<PartitionId>) {
        (
            self.quarantine_epoch,
            self.quarantined.iter().copied().collect(),
        )
    }

    /// Test/introspection: ring membership order as currently sorted.
    pub fn ring_order(&self) -> Vec<PartitionId> {
        self.members.iter().map(|m| m.partition).collect()
    }

    /// Fail-slow traffic: pings and pongs, yield requests and quarantine
    /// broadcasts.
    pub(super) fn on_slow_msg(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::SlowPing { seq } => {
                // Echo immediately — the pinger turns the round trip into
                // an RTT sample; a slow node's stretched service time is
                // exactly the signal being measured.
                ctx.send(from, KernelMsg::SlowPong { seq });
            }
            KernelMsg::SlowPong { seq } => {
                if let Some((node, at)) = self.slow_ping_sent.remove(&seq) {
                    self.observe_peer_rtt(ctx, node, ctx.now().since(at).as_nanos());
                }
            }
            KernelMsg::SlowLeaderYield { from_partition } => {
                let from_princess =
                    self.members.get(1).map(|m| m.partition) == Some(from_partition);
                if self.slow.enabled()
                    && verdict::leader_honours_yield(
                        self.role() == "leader",
                        self.regroup.frozen(),
                        from_princess,
                        self.quarantined.contains(&self.partition),
                        self.gray_self(),
                    )
                {
                    phoenix_telemetry::counter_add("gsd.slow.leader_yields", 1);
                    ctx.trace(TraceEvent::Milestone {
                        label: "slow-leader-yield",
                        value: self.partition.0 as f64,
                    });
                    // Self-quarantine: the same broadcast that demotes us
                    // to the ring tail promotes the princess — a 0-leader
                    // gap at worst, never two leaders.
                    let mut next = self.quarantined.clone();
                    next.insert(self.partition);
                    self.set_quarantine(ctx, next);
                }
            }
            KernelMsg::MetaQuarantine { epoch, quarantined } => {
                if !self.slow.enabled() {
                    return;
                }
                let set: BTreeSet<PartitionId> = quarantined.into_iter().collect();
                if epoch < self.quarantine_epoch
                    || (epoch == self.quarantine_epoch && set == self.quarantined)
                {
                    return;
                }
                self.quarantine_epoch = epoch;
                self.quarantined = set;
                if !self.quarantined.contains(&self.partition) {
                    // Reinstated (or never in): a future quarantine may
                    // legitimately drain again.
                    self.draining = false;
                    self.drained = false;
                }
                self.refresh_roles(ctx);
                self.maybe_drain(ctx);
            }
            _ => {}
        }
    }
}
