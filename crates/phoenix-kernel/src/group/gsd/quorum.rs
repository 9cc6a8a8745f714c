//! Quorum regroup (MSCS-style): rounds, verdicts, freeze and thaw.
//!
//! A silent ring predecessor opens a regroup round. The concluded round
//! goes to the verdict layer's `regroup_action` (hold, rejoin, re-seed,
//! wait or freeze), which this module executes; the round is also the
//! licence `decide` checks before any ring takeover.

use super::verdict::{regroup_action, RegroupAction, Standing};
use super::{Gsd, TOK_REGROUP, TOK_REGROUP_RETRY};
use crate::regroup::AckInfo;
use phoenix_proto::{KernelMsg, PartitionId, RequestId};
use phoenix_sim::{Ctx, Pid, TraceEvent};

impl Gsd {
    /// Open a regroup round: ping the best-known GSD of every configured
    /// partition and arm the round-window timer. No-op when the layer is
    /// disabled or a round is already collecting.
    pub(super) fn start_regroup_round(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if !self.regroup.enabled() || self.regroup.round_active() {
            return;
        }
        let round = self.regroup.begin_round(ctx.now());
        phoenix_telemetry::counter_add("gsd.regroup.rounds", 1);
        self.round_span = Some(match self.frozen_span {
            Some(parent) => phoenix_telemetry::span_child(
                "gsd.regroup.round",
                "gsd",
                ctx.node().0,
                parent,
            ),
            None => phoenix_telemetry::span_start("gsd.regroup.round", "gsd", ctx.node().0),
        });
        let ping = KernelMsg::RegroupPing {
            from_partition: self.partition,
            epoch: self.epoch,
            round,
            witness: self.regroup.witness().unwrap_or(PartitionId(0)),
            witness_epoch: self.regroup.witness_epoch(),
        };
        // Every *configured* partition, not just current members: a
        // frozen side keeps pinging partitions its stale membership may
        // have lost, and a majority side pings the minority it removed
        // (`last_known` keeps the pre-removal coordinates).
        for p in self.topology.partitions.iter().map(|p| p.id) {
            if p == self.partition {
                continue;
            }
            let target = self
                .members
                .iter()
                .find(|m| m.partition == p)
                .copied()
                .or_else(|| self.last_known.get(&p).copied());
            if let Some(m) = target {
                if m.gsd != Pid(0) {
                    self.send_routed(ctx, m.gsd, m.node, ping.clone());
                }
            }
        }
        // Vote-table profiles also collect home-node testimony: each
        // peer partition's own watch daemons are asked whether the GSD
        // they track is alive. A partition that never acks but whose own
        // nodes unanimously report its GSD dead is discounted from the
        // quorum denominator — the escape hatch from the all-dark state
        // where enough GSDs (witness included) died that every island
        // is a strict weighted minority. Only home nodes may testify:
        // they are the nodes an in-place respawn lands on, so the
        // evidence cannot sit on the far side of a split from a rescued
        // replacement.
        if self.regroup.votes_enabled() {
            let peers = self
                .topology
                .partitions
                .iter()
                .filter(|s| s.id != self.partition);
            for node in peers.flat_map(|spec| spec.all_nodes()) {
                match self.cluster_nodes.get(node) {
                    Some(ns) if ns.wd != Pid(0) => {
                        self.send_routed(ctx, ns.wd, node, KernelMsg::RegroupProbe { round })
                    }
                    _ => {}
                }
            }
        }
        ctx.set_timer(self.params.ft.regroup.round_window, TOK_REGROUP);
    }

    /// The round window closed: compute the connected component and act
    /// on the quorum verdict.
    pub(super) fn conclude_regroup(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let Some(c) = self.regroup.conclude(self.partition, ctx.now()) else {
            return;
        };
        if let Some(span) = self.round_span.take() {
            phoenix_telemetry::span_end(span);
        }
        phoenix_telemetry::gauge_set("gsd.regroup.epoch", self.regroup.epoch() as f64);
        if let Some(lat) = self.regroup.round_latency_ewma() {
            phoenix_telemetry::gauge_set(
                "gsd.regroup.round_latency",
                lat.as_secs_f64() * 1e3,
            );
            phoenix_telemetry::gauge_set(
                "gsd.regroup.takeover_delay",
                self.regroup.effective_takeover_delay().as_secs_f64() * 1e3,
            );
        }
        if let Some(w) = self.regroup.witness() {
            phoenix_telemetry::gauge_set("gsd.regroup.witness", w.0 as f64);
            phoenix_telemetry::gauge_set(
                "gsd.regroup.witness_epoch",
                self.regroup.witness_epoch() as f64,
            );
        }
        if !c.dead.is_empty() {
            // Quorum denominator shrank on home-node dead testimony.
            phoenix_telemetry::counter_add(
                "gsd.regroup.dead_discounts",
                c.dead.len() as u64,
            );
        }
        if let Some(w) = c.witness_failover {
            // The held majority moved the witness off an unreachable
            // partition; record it and tell the config service so an
            // operator (and GridView) can see the new quorum anchor.
            phoenix_telemetry::counter_add("gsd.regroup.witness_failover", 1);
            ctx.trace(TraceEvent::Milestone {
                label: "witness-failover",
                value: w.0 as f64,
            });
            if c.reachable.first() == Some(&self.partition) {
                ctx.send(
                    self.config,
                    KernelMsg::CfgSetParam {
                        req: RequestId(0),
                        key: "regroup_witness".to_string(),
                        value: format!("{}:{}", w.0, self.regroup.witness_epoch()),
                    },
                );
            }
        }
        let standing = Standing {
            me: self.partition,
            frozen: self.regroup.frozen(),
            witness: self.regroup.witness(),
            witness_lost: self.regroup.witness_lost(),
            licensed: self.regroup.takeover_licensed(ctx.now()),
        };
        let action = regroup_action(&c, standing);
        match action {
            RegroupAction::Hold { mark_stale, .. } => {
                // Quorum held (the concluded round is the takeover licence
                // `decide` checks). Stale entries stop clients routing to
                // daemons nobody can vouch for.
                if mark_stale {
                    for p in self.topology.partitions.iter().map(|p| p.id) {
                        if !c.reachable.contains(&p) {
                            let stale = KernelMsg::DirectoryStale {
                                partition: p,
                                stale: true,
                            };
                            ctx.send(self.config, stale);
                        }
                    }
                }
            }
            RegroupAction::Rejoin(gsd) => ctx.send(gsd, KernelMsg::MetaJoin { member: self.local }),
            RegroupAction::Reseed => {
                // Re-seed as a *singleton* group. Our pre-fragmentation
                // member list still names frozen peers, so ring leadership
                // would point at one of them — a leader that drops every
                // MetaJoin while frozen, wedging the rebuild. Shrinking to
                // ourselves makes us the leader; peers' retry rounds find
                // us unfrozen, join, and thaw when our broadcast names them.
                self.members.retain(|m| m.partition == self.partition);
                self.leave_frozen(ctx);
                self.refresh_roles(ctx);
                self.announce_membership_change(ctx);
            }
            RegroupAction::Wait => {}
            RegroupAction::Freeze => self.enter_frozen(ctx),
        }
        if !matches!(action, RegroupAction::Hold { poll: false, .. }) {
            ctx.set_timer(self.params.ft.regroup.frozen_retry, TOK_REGROUP_RETRY);
        }
    }

    /// Lost quorum: freeze. The GSD stays alive and answers pings, but
    /// every membership-changing action (diagnosis, takeover, rescue,
    /// rejoin, directory writes) is suppressed until a majority-side
    /// membership broadcast names us again.
    fn enter_frozen(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if !self.regroup.freeze() {
            return;
        }
        phoenix_telemetry::counter_add("gsd.regroup.freezes", 1);
        phoenix_telemetry::gauge_set("gsd.regroup.frozen", 1.0);
        self.frozen_span =
            Some(phoenix_telemetry::span_start("gsd.regroup.frozen", "gsd", ctx.node().0));
        ctx.trace(TraceEvent::Milestone {
            label: "gsd-frozen",
            value: self.partition.0 as f64,
        });
        ctx.trace(TraceEvent::RoleChange {
            pid: ctx.pid(),
            role: "frozen",
        });
        self.last_role = "frozen";
        self.abort_probes();
        self.freeze_fanout(ctx, true);
    }

    /// Quorum regained and the majority named us: thaw.
    pub(super) fn leave_frozen(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if !self.regroup.thaw() {
            return;
        }
        phoenix_telemetry::gauge_set("gsd.regroup.frozen", 0.0);
        if let Some(span) = self.frozen_span.take() {
            phoenix_telemetry::span_end(span);
        }
        ctx.trace(TraceEvent::Milestone {
            label: "gsd-thawed",
            value: self.partition.0 as f64,
        });
        let role = self.role();
        ctx.trace(TraceEvent::RoleChange {
            pid: ctx.pid(),
            role,
        });
        self.last_role = role;
        self.freeze_fanout(ctx, false);
    }

    /// Tell the partition's services they are (no longer) on a minority
    /// island: a frozen bulletin answers queries `complete = false`, a
    /// frozen detector stops exporting.
    pub(super) fn freeze_fanout(&self, ctx: &mut Ctx<'_, KernelMsg>, frozen: bool) {
        let msg = KernelMsg::RegroupFreeze { frozen };
        for pid in [self.local.event, self.local.bulletin, self.local.checkpoint] {
            if pid != Pid(0) {
                ctx.send(pid, msg.clone());
            }
        }
        if let Some(spec) = self.topology.partition(self.partition) {
            for node in spec.all_nodes() {
                if let Some(ns) = self.node_daemons.get(&node) {
                    ctx.send(ns.detector, msg.clone());
                }
            }
        }
    }

    /// Adopt a gossiped witness view (regroup ping/ack traffic) and keep
    /// the telemetry gauges current when it changes.
    fn observe_witness(&mut self, witness: PartitionId, witness_epoch: u64) {
        if self.regroup.observe_witness(witness, witness_epoch) {
            phoenix_telemetry::gauge_set("gsd.regroup.witness", witness.0 as f64);
            phoenix_telemetry::gauge_set("gsd.regroup.witness_epoch", witness_epoch as f64);
        }
    }

    /// Regroup traffic: pings, acks and home-node testimony.
    pub(super) fn on_regroup_msg(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        from: Pid,
        msg: KernelMsg,
    ) {
        if !self.regroup.enabled() {
            return;
        }
        match msg {
            KernelMsg::RegroupPing {
                round,
                witness,
                witness_epoch,
                ..
            } => {
                // Always answer (even frozen — reachability is
                // reachability; the `frozen` bit tells the pinger whether
                // we can vouch for a membership).
                self.observe_witness(witness, witness_epoch);
                ctx.send(
                    from,
                    KernelMsg::RegroupAck {
                        from_partition: self.partition,
                        epoch: self.epoch,
                        round,
                        frozen: self.regroup.frozen(),
                        weight: 1,
                        witness: self.regroup.witness().unwrap_or(PartitionId(0)),
                        witness_epoch: self.regroup.witness_epoch(),
                    },
                );
                // Verdict propagation: a peer opening a round suspects
                // the topology changed. On an even split the losing
                // side's leader can have its entire ring neighbourhood
                // on its own island (predecessor reachable, so no
                // suspicion ever fires) and would lead until heal —
                // echo a round of our own so every reachable GSD
                // concludes a verdict within one window of the first
                // detector. `start_regroup_round` dedups on an active
                // round, and echoes only chain while pings keep
                // arriving, so steady state stays quiet.
                if self.regroup.votes_enabled() {
                    self.start_regroup_round(ctx);
                }
            }
            KernelMsg::RegroupAck {
                from_partition,
                epoch,
                round,
                frozen,
                witness,
                witness_epoch,
                ..
            } => {
                self.observe_witness(witness, witness_epoch);
                let info = AckInfo {
                    gsd: from,
                    epoch,
                    frozen,
                };
                self.regroup.on_ack(round, from_partition, info, ctx.now());
            }
            // Home-node testimony about a peer partition's GSD. Our own
            // partition never needs testifying about.
            KernelMsg::RegroupProbeAck {
                round,
                partition,
                alive,
                ..
            } if partition != self.partition => {
                self.regroup.on_home_report(round, partition, alive);
            }
            _ => {}
        }
    }
}
