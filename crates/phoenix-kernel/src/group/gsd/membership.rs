//! Membership: joins, broadcasts, departures and service registration.
//!
//! The meta-group's membership changes only through these messages. Who
//! is admitted and which of two instances of one role survives are the
//! verdict layer's `join_action` and `outranked`; this module applies them.

use super::verdict::{join_action, outranked, JoinAction};
use super::{Gsd, SvcTrack};
use phoenix_proto::{EventPayload, EventType, KernelMsg, ServiceKind};
use phoenix_sim::{Ctx, Pid, TraceEvent};
use std::collections::BTreeSet;

impl Gsd {
    /// Membership traffic: `MetaJoin`, `MetaMembership`, `MetaMemberDown`
    /// and `SvcRegister`.
    pub(super) fn on_membership_msg(&mut self, ctx: &mut Ctx<'_, KernelMsg>, msg: KernelMsg) {
        match msg {
            KernelMsg::MetaJoin { member } => {
                let held = self
                    .members
                    .iter()
                    .find(|m| m.partition == member.partition)
                    .copied();
                let leading = self.role() == "leader";
                let regroup = self.regroup.enabled();
                match join_action(self.regroup.frozen(), leading, regroup, held, member) {
                    JoinAction::Suppress => {
                        phoenix_telemetry::counter_add("gsd.regroup.suppressed", 1);
                    }
                    JoinAction::Forward => {
                        if let Some(leader) = self.leader() {
                            let join = KernelMsg::MetaJoin { member };
                            self.send_routed(ctx, leader.gsd, leader.node, join);
                        }
                    }
                    JoinAction::Answer => ctx.send(member.gsd, self.membership_msg(self.epoch)),
                    JoinAction::Ignore => {}
                    JoinAction::Admit => {
                        self.members.retain(|m| m.partition != member.partition);
                        self.members.push(member);
                        self.refresh_roles(ctx);
                        self.epoch += 1;
                        let msg = self.membership_msg(self.epoch);
                        self.broadcast_meta(ctx, msg.clone());
                        // If a still-running instance was replaced (e.g. a
                        // false takeover after a link partition), tell it
                        // directly so it can yield — it is no longer in the
                        // member list and would miss the broadcast.
                        if let Some(old) = held.map(|m| m.gsd).filter(|&g| g != member.gsd) {
                            ctx.send(old, msg);
                        }
                        if regroup {
                            // The partition is vouched-for again: clear any
                            // stale flag a regroup round put on its entry.
                            let fresh = KernelMsg::DirectoryStale {
                                partition: member.partition,
                                stale: false,
                            };
                            ctx.send(self.config, fresh);
                        }
                        self.push_partition_view(ctx);
                    }
                }
            }
            KernelMsg::MetaMembership { epoch, members } => {
                // Duplicate resolution first, independent of epoch: if the
                // group installed a NEWER GSD for our partition (a rescue
                // or false takeover raced us), yield to it.
                let other = members.iter().find(|m| m.partition == self.partition);
                if other.is_some_and(|m| outranked(ctx.pid(), m.gsd)) {
                    self.yield_partition(ctx);
                    return;
                }
                if epoch >= self.epoch {
                    // A fresh broadcast naming *our* pid is the majority
                    // vouching for us: the only thaw edge a frozen GSD
                    // accepts (self-election on heal would re-split the
                    // brain the moment views diverge).
                    let named_me = members
                        .iter()
                        .any(|m| m.partition == self.partition && m.gsd == ctx.pid());
                    self.epoch = epoch;
                    self.members = members.unwrap_or_clone();
                    self.patch_local_entry();
                    if self.my_index().is_none() {
                        self.members.push(self.local);
                        // Re-join at the next tick, not instantly: a
                        // stale broadcast must not trigger a join →
                        // broadcast → join cycle at network latency.
                        self.needs_rejoin = true;
                    }
                    if named_me && self.regroup.frozen() {
                        self.leave_frozen(ctx);
                    }
                    self.refresh_roles(ctx);
                    self.push_partition_view(ctx);
                }
            }
            KernelMsg::MetaMemberDown { partition, .. } if partition != self.partition => {
                self.members.retain(|m| m.partition != partition);
                self.refresh_roles(ctx);
            }
            KernelMsg::SvcRegister { kind, pid, factory } => {
                let track = SvcTrack {
                    kind,
                    factory,
                    last: ctx.now(),
                };
                self.svc_tracks.insert(pid, track);
                if kind == ServiceKind::UserEnvironment {
                    self.supervision_dirty = true;
                }
                self.adopt_service(ctx, kind, pid);
            }
            _ => {}
        }
    }

    /// A newer GSD holds our partition: hand over and die.
    fn yield_partition(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if self.draining {
            // Slow-drain handoff complete: the replacement runs fresh
            // kernel services on its new node, and unlike a dead-node
            // takeover this node is still alive — ours would leak as
            // orphans.
            let mut orphans: BTreeSet<Pid> = self.svc_tracks.keys().copied().collect();
            orphans.extend([self.local.event, self.local.bulletin, self.local.checkpoint]);
            for pid in orphans {
                if pid != Pid(0) && pid != ctx.pid() && ctx.process_is_alive(pid) {
                    ctx.kill(pid);
                }
            }
        }
        ctx.trace(TraceEvent::Milestone {
            label: "gsd-yielded",
            value: self.partition.0 as f64,
        });
        ctx.kill(ctx.pid());
    }

    /// Adopt a registering kernel service's pid into our `MemberInfo`.
    /// Of two live instances the newer is canonical: a register from an
    /// outranked pid is a stale duplicate (e.g. left over from a false
    /// takeover) and is terminated rather than adopted — otherwise two
    /// instances flip-flop the slot and every flip re-announces
    /// cluster-wide.
    fn adopt_service(&mut self, ctx: &mut Ctx<'_, KernelMsg>, kind: ServiceKind, pid: Pid) {
        let slot = match kind {
            ServiceKind::Event => &mut self.local.event,
            ServiceKind::DataBulletin => &mut self.local.bulletin,
            ServiceKind::Checkpoint => &mut self.local.checkpoint,
            _ => return,
        };
        if *slot == pid {
            return;
        }
        if outranked(pid, *slot) && ctx.process_is_alive(*slot) {
            self.svc_tracks.remove(&pid);
            ctx.kill(pid);
            return;
        }
        let displaced = std::mem::replace(slot, pid);
        if displaced != Pid(0) && ctx.process_is_alive(displaced) {
            // Clean up the instance we are replacing.
            self.svc_tracks.remove(&displaced);
            ctx.kill(displaced);
        }
        self.patch_local_entry();
        self.announce_membership_change(ctx);
        let payload = EventPayload::Service(kind, ctx.node());
        self.publish(ctx, EventType::ServiceRecovery, ctx.node(), payload);
    }
}
