//! Action layer: carry out what the verdict layer decided.
//!
//! One executor per decision — a concluded probe, a WD diagnosis, a ring
//! takeover — plus the delayed work they schedule. Every takeover plan,
//! whether it came from a diagnosis or from the leader's rescue sweep,
//! runs through [`Gsd::take_over`].

use super::evidence::ProbeKind;
use super::verdict::{decide, home_node, Action, Evidence, Placement, ProbeEnd, Quorum};
use super::Gsd;
use crate::group::registry::RespawnArgs;
use crate::group::wd::Wd;
use phoenix_proto::{EventPayload, EventType, KernelMsg, MemberInfo, PartitionId, ServiceKind};
use phoenix_sim::{Ctx, Diagnosis, FaultTarget, NicId, NodeId, Pid, RecoveryAction, TraceEvent};

/// Ticks over which a changed directory entry is re-asserted to config
/// under a retrying policy (~2 s at the fast heartbeat interval — enough
/// to straddle any loss burst a chaos schedule can generate).
pub(super) const DIR_RESEND_TICKS: u32 = 20;

/// Telemetry key for a `gsd.takeover` mark/measure/unmark. Scoped by the
/// observing pid, the partition, AND a per-plan sequence number: one
/// leader can have two takeover plans for the same partition in flight
/// (a diagnosis-driven migrate racing its own rescue sweep), and a plan
/// that aborts its spawn must not retract the other plan's pending mark —
/// that would silently swallow the surviving plan's measure. The mark and
/// its matching measure/unmark always happen on the same actor, so pid
/// scoping is safe; the plan id travels inside `RestartWhat`.
fn takeover_key(observer: Pid, partition: PartitionId, plan: u64) -> u64 {
    phoenix_telemetry::key(&[3, partition.0 as u64, observer.0, plan])
}

/// Work scheduled for a later virtual instant.
pub(super) enum DelayedOp {
    ProbeRound(u64),
    ProbeTimeout(u64),
    /// Network-failure analysis completes (per-NIC heartbeat pattern, or
    /// own-NIC introspection).
    NicDiag {
        node: NodeId,
        nic: NicId,
    },
    /// Local (same-host) failure classification completes.
    LocalDiagSvc {
        pid: Pid,
        kind: ServiceKind,
        factory: String,
    },
    /// Execute a scheduled restart/migration.
    Restart(RestartWhat),
}

pub(super) enum RestartWhat {
    Wd(NodeId),
    Svc {
        kind: ServiceKind,
        factory: String,
    },
    /// Take over a failed ring member: restart its GSD in place (`to` is
    /// `None`) or migrate it to `to`.
    Gsd {
        hint: MemberInfo,
        members: Vec<MemberInfo>,
        epoch: u64,
        to: Option<NodeId>,
        plan: u64,
    },
    /// Leader safety net: a partition has had no meta-group member for a
    /// whole tick — whoever planned its takeover died before executing
    /// it. Decide restart-vs-migrate at fire time.
    GsdRescue { partition: PartitionId, plan: u64 },
}

impl Gsd {
    /// A probe session ended: gather the evidence, let the verdict layer
    /// decide, and act on it.
    pub(super) fn conclude_probe(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        kind: ProbeKind,
        end: ProbeEnd,
    ) {
        let now = ctx.now();
        let node = self.peer(kind).map(|(p, _)| p.node);
        let evidence = Evidence {
            ring_peer: matches!(kind, ProbeKind::Meta(_)),
            end,
            fresh: self.params.ft.probe_abort_on_fresh && self.probe_target_fresh(kind, now),
            slow_alive: node.is_some_and(|n| self.slow_alive(now, n)),
            quorum: self.regroup.enabled().then(|| Quorum {
                frozen: self.regroup.frozen(),
                recently_reachable: match kind {
                    ProbeKind::Meta(p) => self.regroup.recently_reachable(p, now),
                    ProbeKind::Wd(_) => false,
                },
                licensed: self.regroup.takeover_licensed(now),
            }),
        };
        let action = decide(&evidence);
        if end == ProbeEnd::Partial && action != Action::Abort {
            // The target's PPM answered at least one round before the
            // deadline: the node is provably reachable, so the missing
            // rounds are packet loss, not a dead machine. On a clean
            // network all rounds complete long before the timeout.
            phoenix_telemetry::counter_add("gsd.probes.partial", 1);
        }
        match action {
            Action::Diagnose(diagnosis) => match kind {
                ProbeKind::Wd(node) => self.diagnose_wd(ctx, node, diagnosis),
                ProbeKind::Meta(p) => self.diagnose_ring_peer(ctx, p, diagnosis),
            },
            Action::SlowVeto => {
                if let Some(t) = self.track_mut(kind) {
                    t.probing = None;
                }
                phoenix_telemetry::counter_add("gsd.slow.dead_vetoed", 1);
                ctx.trace(TraceEvent::Milestone {
                    label: "slow-not-dead",
                    value: node.map_or(0.0, |n| n.0 as f64),
                });
            }
            Action::Abort => self.abort_probe(kind),
            // A quorum gate unwinds the session so the next scan
            // re-suspects — by which time a deferred takeover's own round
            // has concluded.
            Action::Suppress | Action::Veto | Action::Defer => {
                let counter = match action {
                    Action::Suppress => "gsd.regroup.suppressed",
                    Action::Veto => "gsd.regroup.vetoed",
                    _ => "gsd.regroup.deferred",
                };
                phoenix_telemetry::counter_add(counter, 1);
                self.abort_probe(kind);
                if action == Action::Defer {
                    self.start_regroup_round(ctx);
                }
            }
        }
    }

    /// A partition node's watch daemon failed. A process failure restarts
    /// it in place (cost ≈ 0: Table 1 reports 0 µs); a node failure needs
    /// no recovery — "migrating WD means nothing".
    fn diagnose_wd(&mut self, ctx: &mut Ctx<'_, KernelMsg>, node: NodeId, diagnosis: Diagnosis) {
        let Some((wd, t)) = self.wd_tracks.get_mut(&node) else {
            return;
        };
        let wd = *wd;
        t.probing = None;
        let node_failure = diagnosis == Diagnosis::NodeFailure;
        if node_failure {
            t.down = true;
            self.slow.mark_dead(node);
        }
        phoenix_telemetry::measure(
            "gsd.detect_to_diagnose",
            "gsd",
            ctx.node().0,
            ProbeKind::Wd(node).detect_key(),
        );
        if node_failure {
            ctx.trace(TraceEvent::FaultDiagnosed {
                observer: ctx.pid(),
                target: FaultTarget::Node(node),
                diagnosis,
            });
            ctx.trace(TraceEvent::Recovered {
                target: FaultTarget::Node(node),
                action: RecoveryAction::NoneNeeded,
            });
            self.publish(ctx, EventType::NodeFault, node, EventPayload::Node(node));
            return;
        }
        ctx.trace(TraceEvent::FaultDiagnosed {
            observer: ctx.pid(),
            target: FaultTarget::Process(wd),
            diagnosis,
        });
        let payload = EventPayload::Service(ServiceKind::WatchDaemon, node);
        self.publish(ctx, EventType::ServiceFault, node, payload);
        let cost = self.params.ft.wd_restart_cost;
        if cost == phoenix_sim::SimDuration::ZERO {
            self.restart_wd(ctx, node);
        } else {
            self.schedule(ctx, cost, DelayedOp::Restart(RestartWhat::Wd(node)));
        }
    }

    fn restart_wd(&mut self, ctx: &mut Ctx<'_, KernelMsg>, node: NodeId) {
        let wd = Wd::respawn(
            node,
            self.partition,
            self.params.ft.clone(),
            ctx.pid(),
            RecoveryAction::RestartedInPlace,
        );
        let new_pid = ctx.spawn(node, Box::new(wd));
        if let Some(ns) = self.node_daemons.get_mut(&node) {
            ns.wd = new_pid;
            let updated = *ns;
            ctx.send(self.config, KernelMsg::DirectoryUpdateNode { services: updated });
            if self.params.rpc.retries_enabled() {
                self.dir_resend_nodes.insert(node, (updated, DIR_RESEND_TICKS));
            }
        }
        self.track_wd(ctx, node, new_pid);
        let payload = EventPayload::Service(ServiceKind::WatchDaemon, node);
        self.publish(ctx, EventType::ServiceRecovery, node, payload);
    }

    /// The ring predecessor failed: remove it from the meta-group and plan
    /// its takeover — restart in place on a process failure, migrate to a
    /// backup node on a node failure.
    fn diagnose_ring_peer(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        partition: PartitionId,
        diagnosis: Diagnosis,
    ) {
        let pred = self.pred.as_mut().filter(|(m, _)| m.partition == partition);
        let Some((failed, t)) = pred else {
            return;
        };
        let failed = *failed;
        t.probing = None;
        t.down = true;
        let node_failure = diagnosis == Diagnosis::NodeFailure;
        if node_failure {
            self.slow.mark_dead(failed.node);
        }
        phoenix_telemetry::measure(
            "gsd.detect_to_diagnose",
            "gsd",
            ctx.node().0,
            ProbeKind::Meta(partition).detect_key(),
        );
        self.takeover_seq += 1;
        let plan = self.takeover_seq;
        phoenix_telemetry::mark("gsd.takeover", takeover_key(ctx.pid(), partition, plan));
        let (target, etype, payload) = if node_failure {
            let node = failed.node;
            (
                FaultTarget::Node(node),
                EventType::NodeFault,
                EventPayload::Node(node),
            )
        } else {
            let payload = EventPayload::Service(ServiceKind::Group, failed.node);
            (
                FaultTarget::Process(failed.gsd),
                EventType::ServiceFault,
                payload,
            )
        };
        ctx.trace(TraceEvent::FaultDiagnosed {
            observer: ctx.pid(),
            target,
            diagnosis,
        });
        self.publish(ctx, etype, failed.node, payload);
        self.remove_member(ctx, partition, diagnosis);
        let (to, cost) = if node_failure {
            let Some(to) = self.place(ctx, partition, failed.node, Placement::Takeover) else {
                self.retract_takeover(ctx, partition, plan);
                ctx.trace(TraceEvent::Milestone {
                    label: "no-backup-node",
                    value: partition.0 as f64,
                });
                return;
            };
            (Some(to), self.params.ft.gsd_migrate_cost)
        } else {
            (None, self.params.ft.gsd_restart_cost)
        };
        let what = RestartWhat::Gsd {
            hint: failed,
            members: self.members.clone(),
            epoch: self.epoch,
            to,
            plan,
        };
        self.schedule(ctx, cost, DelayedOp::Restart(what));
    }

    fn remove_member(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        partition: PartitionId,
        diagnosis: Diagnosis,
    ) {
        self.members.retain(|m| m.partition != partition);
        self.broadcast_meta(
            ctx,
            KernelMsg::MetaMemberDown {
                partition,
                diagnosis,
            },
        );
        self.refresh_roles(ctx);
    }

    /// A home node for `partition`'s GSD away from `exclude`, chosen by
    /// the verdict layer's [`home_node`] rule. A node is vetoed while the
    /// fail-slow detector reads it Slow.
    pub(super) fn place(
        &self,
        ctx: &Ctx<'_, KernelMsg>,
        partition: PartitionId,
        exclude: NodeId,
        why: Placement,
    ) -> Option<NodeId> {
        let spec = self.topology.partition(partition)?;
        let vetoed = |n| self.slow.enabled() && self.slow.is_slow(n);
        home_node(spec, exclude, |n| ctx.node_is_up(n), vetoed, why)
    }

    /// Retract an abandoned plan's takeover mark so it cannot linger as a
    /// pending measure.
    fn retract_takeover(&self, ctx: &Ctx<'_, KernelMsg>, partition: PartitionId, plan: u64) {
        phoenix_telemetry::unmark("gsd.takeover", takeover_key(ctx.pid(), partition, plan));
    }

    /// Execute a takeover plan: respawn the failed member's GSD in place
    /// (`to` is `None`) or on `to`. Abandoned when the partition already
    /// rejoined (rescued by someone else), and when the target machine is
    /// unreachable — remote exec across a severed island is a connection
    /// failure, not a silent success; the rescue sweep retries once the
    /// partition heals.
    fn take_over(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        hint: MemberInfo,
        members: Vec<MemberInfo>,
        epoch: u64,
        to: Option<NodeId>,
        plan: u64,
    ) {
        if self.members.iter().any(|m| m.partition == hint.partition) {
            self.retract_takeover(ctx, hint.partition, plan);
            return;
        }
        let node = to.unwrap_or(hint.node);
        if !ctx.node_reachable(node) {
            self.retract_takeover(ctx, hint.partition, plan);
            ctx.trace(TraceEvent::Milestone {
                label: "gsd-spawn-unreachable",
                value: hint.partition.0 as f64,
            });
            return;
        }
        phoenix_telemetry::counter_add("gsd.takeovers", 1);
        phoenix_telemetry::measure(
            "gsd.takeover",
            "gsd",
            ctx.node().0,
            takeover_key(ctx.pid(), hint.partition, plan),
        );
        let action = match to {
            Some(to) => RecoveryAction::Migrated(to),
            None => RecoveryAction::RestartedInPlace,
        };
        let gsd = self.replacement(hint, members, epoch.max(self.epoch), action);
        ctx.spawn(node, Box::new(gsd));
    }

    fn execute_restart(&mut self, ctx: &mut Ctx<'_, KernelMsg>, what: RestartWhat) {
        match what {
            RestartWhat::Wd(node) => self.restart_wd(ctx, node),
            RestartWhat::Svc { kind, factory } => {
                let args = self.respawn_args(
                    ctx,
                    kind,
                    self.local.checkpoint,
                    RecoveryAction::RestartedInPlace,
                );
                let built = self.registry.borrow_mut().build(&factory, &args);
                match built {
                    Some(actor) => {
                        ctx.spawn(ctx.node(), actor);
                        // The replacement registers itself (SvcRegister),
                        // which updates `local` and broadcasts.
                    }
                    None => ctx.trace(TraceEvent::Milestone {
                        label: "no-factory",
                        value: 0.0,
                    }),
                }
            }
            RestartWhat::Gsd {
                hint,
                members,
                epoch,
                to,
                plan,
            } => self.take_over(ctx, hint, members, epoch, to, plan),
            RestartWhat::GsdRescue { partition, plan } => {
                self.rescuing.remove(&partition);
                let Some(hint) = self.last_known.get(&partition).copied() else {
                    self.retract_takeover(ctx, partition, plan);
                    return;
                };
                // Restart in place if the old host is up, else migrate.
                let to = if ctx.node_is_up(hint.node) {
                    None
                } else {
                    match self.place(ctx, partition, hint.node, Placement::Takeover) {
                        Some(to) => Some(to),
                        None => {
                            self.retract_takeover(ctx, partition, plan);
                            return;
                        }
                    }
                };
                let members = self.members.clone();
                self.take_over(ctx, hint, members, self.epoch, to, plan);
            }
        }
    }

    /// Leader safety net: if a topology partition has no meta-group member
    /// (its takeover plan died with the daemon that scheduled it), the
    /// leader schedules a rescue. Executed with a still-missing guard, so
    /// a concurrent normal takeover wins harmlessly.
    pub(super) fn rescue_sweep(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        if self.role() != "leader" {
            return;
        }
        let missing: Vec<PartitionId> = self
            .topology
            .partitions
            .iter()
            .map(|p| p.id)
            .filter(|p| {
                self.members.iter().all(|m| m.partition != *p) && !self.rescuing.contains(p)
            })
            .collect();
        for partition in missing {
            self.rescuing.insert(partition);
            self.takeover_seq += 1;
            let plan = self.takeover_seq;
            phoenix_telemetry::mark("gsd.takeover", takeover_key(ctx.pid(), partition, plan));
            ctx.trace(TraceEvent::Milestone {
                label: "gsd-rescue-scheduled",
                value: partition.0 as f64,
            });
            self.schedule(
                ctx,
                self.params.ft.gsd_restart_cost,
                DelayedOp::Restart(RestartWhat::GsdRescue { partition, plan }),
            );
        }
    }

    pub(super) fn run_op(&mut self, ctx: &mut Ctx<'_, KernelMsg>, op: DelayedOp) {
        match op {
            DelayedOp::ProbeRound(s) => self.probe_round(ctx, s),
            DelayedOp::ProbeTimeout(s) => self.on_probe_timeout(ctx, s),
            DelayedOp::NicDiag { node, nic } => {
                ctx.trace(TraceEvent::FaultDiagnosed {
                    observer: ctx.pid(),
                    target: FaultTarget::Nic(node, nic),
                    diagnosis: Diagnosis::NetworkFailure,
                });
                // One of several redundant networks: no recovery needed.
                ctx.trace(TraceEvent::Recovered {
                    target: FaultTarget::Nic(node, nic),
                    action: RecoveryAction::NoneNeeded,
                });
                self.publish(
                    ctx,
                    EventType::NetworkFault,
                    node,
                    EventPayload::Nic(node, nic),
                );
            }
            DelayedOp::LocalDiagSvc { pid, kind, factory } => {
                ctx.trace(TraceEvent::FaultDiagnosed {
                    observer: ctx.pid(),
                    target: FaultTarget::Process(pid),
                    diagnosis: Diagnosis::ProcessFailure,
                });
                self.publish(
                    ctx,
                    EventType::ServiceFault,
                    ctx.node(),
                    EventPayload::Service(kind, ctx.node()),
                );
                let cost = match kind {
                    ServiceKind::Event => self.params.ft.es_restart_cost,
                    ServiceKind::DataBulletin => self.params.ft.db_restart_cost,
                    ServiceKind::Checkpoint => self.params.ft.ck_restart_cost,
                    _ => self.params.ft.userenv_restart_cost,
                };
                self.schedule(ctx, cost, DelayedOp::Restart(RestartWhat::Svc { kind, factory }));
            }
            DelayedOp::Restart(what) => self.execute_restart(ctx, what),
        }
    }

    /// Arguments for a factory rebuilding one of this partition's services
    /// on this node.
    pub(super) fn respawn_args(
        &self,
        ctx: &Ctx<'_, KernelMsg>,
        kind: ServiceKind,
        checkpoint: Pid,
        action: RecoveryAction,
    ) -> RespawnArgs {
        RespawnArgs {
            kind,
            partition: self.partition,
            node: ctx.node(),
            gsd: ctx.pid(),
            checkpoint,
            members: self.members.clone(),
            action,
            params: self.params.clone(),
        }
    }
}
