//! Parallel process management (PPM).
//!
//! Paper Sec 4.2: "Parallel process management service performs efficient
//! remote jobs loading, deleting, and resource cleaning up, which is a
//! basic module of Phoenix kernel."
//!
//! A `PpmAgent` runs on every node. Job loads and deletes are forwarded
//! down a binomial tree over the target set, so launching a task on `n`
//! nodes takes `O(log n)` message latency instead of `O(n)` sequential
//! sends — the "efficient remote jobs loading" of the paper. Each agent
//! acknowledges directly to the requester.
//!
//! The agent spawns [`AppProc`] actors: simulated application processes
//! that register with the node's application-state detector, drive their
//! configured resource load, and exit after their run time.

use crate::directory::NodeDirectory;
use crate::rpc::DedupWindow;
use phoenix_proto::{JobId, KernelMsg, TaskSpec};
use phoenix_sim::{Actor, Ctx, NodeId, Pid, SimDuration, TraceEvent};
use std::collections::HashMap;

/// A simulated application process: one task of a job on one node.
pub struct AppProc {
    job: JobId,
    task: TaskSpec,
    detector: Pid,
    agent: Pid,
}

const TOK_DONE: u64 = 1;

impl AppProc {
    pub fn new(job: JobId, task: TaskSpec, detector: Pid, agent: Pid) -> Self {
        AppProc {
            job,
            task,
            detector,
            agent,
        }
    }
}

impl Actor<KernelMsg> for AppProc {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.send(
            self.detector,
            KernelMsg::AppStarted {
                job: self.job,
                pid: ctx.pid(),
                task: self.task.clone(),
            },
        );
        if let Some(d) = self.task.duration_ns {
            ctx.set_timer(SimDuration::from_nanos(d), TOK_DONE);
        }
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, KernelMsg>, _from: Pid, _msg: KernelMsg) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, token: u64) {
        if token == TOK_DONE {
            let exited = KernelMsg::AppExited {
                job: self.job,
                pid: ctx.pid(),
                failed: false,
            };
            ctx.send(self.detector, exited.clone());
            ctx.send(self.agent, exited);
            ctx.kill(ctx.pid());
        }
    }

    fn name(&self) -> &str {
        "app"
    }
}

/// The per-node PPM agent.
pub struct PpmAgent {
    node: NodeId,
    /// Daemons of every node: PPM agents for tree forwarding, and this
    /// node's detector. The boot directory inside is the same `Shared`
    /// payload in every agent, so the table costs one copy per cluster.
    nodes: NodeDirectory,
    /// Local app processes by job.
    jobs: HashMap<JobId, Pid>,
    /// Requests already processed, with the ack sent for them (if this
    /// node was a target). A duplicated tree message replays the ack and
    /// is not re-executed or re-forwarded.
    seen: DedupWindow<(Pid, u64), Option<KernelMsg>>,
}

impl PpmAgent {
    pub fn new(node: NodeId) -> Self {
        PpmAgent {
            node,
            nodes: NodeDirectory::default(),
            jobs: HashMap::new(),
            seen: DedupWindow::new(64),
        }
    }

    /// Forward `targets` (not containing self) down the binomial tree:
    /// repeatedly delegate the far half to its first node.
    fn forward<F>(&self, ctx: &mut Ctx<'_, KernelMsg>, mut targets: Vec<NodeId>, make: F)
    where
        F: Fn(Vec<NodeId>) -> KernelMsg,
    {
        while !targets.is_empty() {
            let take = targets.len().div_ceil(2);
            let sub: Vec<NodeId> = targets.split_off(targets.len() - take);
            if let Some(head) = self.nodes.get(sub[0]) {
                phoenix_telemetry::counter_add("ppm.tree.forwards", 1);
                ctx.send(head.ppm, make(sub));
            }
            // An unknown head silently drops that subtree; the requester's
            // ack count exposes the loss.
        }
    }

    /// This node's application-state detector, per the newest wiring.
    fn detector(&self) -> Pid {
        self.nodes.get(self.node).map_or(Pid(0), |ns| ns.detector)
    }
}

impl Actor<KernelMsg> for PpmAgent {
    fn on_start(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        ctx.trace(TraceEvent::ServiceUp {
            pid: ctx.pid(),
            service: "ppm",
            node: ctx.node(),
        });
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, KernelMsg>, from: Pid, msg: KernelMsg) {
        match msg {
            KernelMsg::Boot(dir) => self.nodes.boot(dir),
            KernelMsg::DirectoryUpdateNode { services } => self.nodes.update(services),
            KernelMsg::ProbeReq { req } => {
                ctx.send(from, KernelMsg::ProbeResp { req });
            }
            KernelMsg::PpmExec {
                req,
                job,
                task,
                targets,
                reply_to,
            } => {
                // Duplicate tree message (network duplication or an
                // upstream retry): replay the recorded ack, never
                // re-execute or re-forward.
                if let Some(cached) = self.seen.replay(&(reply_to, req.0)) {
                    if let Some(ack) = cached.clone() {
                        ctx.send(reply_to, ack);
                    }
                    return;
                }
                let mut rest: Vec<NodeId> = Vec::with_capacity(targets.len());
                let mut mine = false;
                for t in targets {
                    if t == self.node {
                        mine = true;
                    } else {
                        rest.push(t);
                    }
                }
                let mut ack = None;
                if mine {
                    phoenix_telemetry::counter_add("ppm.execs.handled", 1);
                    phoenix_telemetry::measure(
                        "ppm.fanout.flight",
                        "ppm",
                        self.node.0,
                        phoenix_telemetry::key(&[req.0, job.0, self.node.0 as u64]),
                    );
                    let ok = !self.jobs.contains_key(&job);
                    if ok {
                        let app = AppProc::new(job, task.clone(), self.detector(), ctx.pid());
                        let pid = ctx.spawn(self.node, Box::new(app));
                        self.jobs.insert(job, pid);
                    }
                    let msg = KernelMsg::PpmExecAck {
                        req,
                        job,
                        node: self.node,
                        ok,
                    };
                    ctx.send(reply_to, msg.clone());
                    ack = Some(msg);
                }
                self.seen.record((reply_to, req.0), ack);
                let task2 = task;
                self.forward(ctx, rest, move |sub| KernelMsg::PpmExec {
                    req,
                    job,
                    task: task2.clone(),
                    targets: sub,
                    reply_to,
                });
            }
            KernelMsg::PpmDelete {
                req,
                job,
                targets,
                reply_to,
            } => {
                if let Some(cached) = self.seen.replay(&(reply_to, req.0)) {
                    if let Some(ack) = cached.clone() {
                        ctx.send(reply_to, ack);
                    }
                    return;
                }
                let mut rest: Vec<NodeId> = Vec::with_capacity(targets.len());
                let mut mine = false;
                for t in targets {
                    if t == self.node {
                        mine = true;
                    } else {
                        rest.push(t);
                    }
                }
                let mut ack = None;
                if mine {
                    // Kill the task and clean up: the detector is told the
                    // app is gone so resource accounting resets.
                    if let Some(pid) = self.jobs.remove(&job) {
                        ctx.kill(pid);
                        ctx.send(
                            self.detector(),
                            KernelMsg::AppExited {
                                job,
                                pid,
                                failed: false,
                            },
                        );
                    }
                    let msg = KernelMsg::PpmDeleteAck {
                        req,
                        job,
                        node: self.node,
                    };
                    ctx.send(reply_to, msg.clone());
                    ack = Some(msg);
                }
                self.seen.record((reply_to, req.0), ack);
                self.forward(ctx, rest, move |sub| KernelMsg::PpmDelete {
                    req,
                    job,
                    targets: sub,
                    reply_to,
                });
            }
            KernelMsg::AppExited { job, .. } => {
                self.jobs.remove(&job);
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "ppm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientHandle;
    use phoenix_proto::{NodeServices, RequestId, ServiceDirectory};
    use phoenix_sim::{ClusterBuilder, NodeSpec, World};
    use std::collections::BTreeMap;

    /// Directory listing `agents[i]` as node i's PPM agent.
    fn directory(agents: &[Pid], detector: Pid) -> ServiceDirectory {
        ServiceDirectory {
            config: Pid(0),
            security: Pid(0),
            partitions: vec![],
            nodes: (0..agents.len() as u32)
                .map(|i| NodeServices {
                    node: NodeId(i),
                    wd: Pid(0),
                    detector,
                    ppm: agents[i as usize],
                })
                .collect(),
        }
    }

    /// Build n nodes each with a PPM agent and a stub detector (client),
    /// all booted from one directory.
    fn setup(n: u32) -> (World<KernelMsg>, Vec<Pid>, ClientHandle) {
        setup_with(n, |dir| dir)
    }

    /// `setup`, booting the agents from `shape(directory)`.
    fn setup_with(
        n: u32,
        shape: impl FnOnce(ServiceDirectory) -> ServiceDirectory,
    ) -> (World<KernelMsg>, Vec<Pid>, ClientHandle) {
        let mut w = ClusterBuilder::new()
            .nodes(n as usize, NodeSpec::default())
            .build::<KernelMsg>();
        let det = ClientHandle::spawn(&mut w, NodeId(0));
        let agents: Vec<Pid> = (0..n)
            .map(|i| w.spawn(NodeId(i), Box::new(PpmAgent::new(NodeId(i)))))
            .collect();
        let boot = KernelMsg::Boot(shape(directory(&agents, det.pid)).into());
        for &a in &agents {
            w.inject(a, boot.clone());
        }
        w.run_for(SimDuration::from_millis(5));
        (w, agents, det)
    }

    /// Send one exec for `job` to every node via `agents[0]`; return the
    /// pid each node's ack came from.
    fn exec_everywhere(
        w: &mut World<KernelMsg>,
        agents: &[Pid],
        job: u64,
    ) -> BTreeMap<NodeId, Pid> {
        let client = ClientHandle::spawn(w, NodeId(0));
        client.send(
            w,
            agents[0],
            KernelMsg::PpmExec {
                req: RequestId(job),
                job: JobId(job),
                task: TaskSpec::default(),
                targets: (0..agents.len() as u32).map(NodeId).collect(),
                reply_to: client.pid,
            },
        );
        w.run_for(SimDuration::from_millis(50));
        client
            .drain()
            .into_iter()
            .filter_map(|(from, m)| match m {
                KernelMsg::PpmExecAck { node, ok: true, .. } => Some((node, from)),
                _ => None,
            })
            .collect()
    }

    /// Replace node k's PPM agent with a fresh one (booted from `dir`)
    /// and push the `DirectoryUpdateNode` to every agent.
    fn move_agent(w: &mut World<KernelMsg>, agents: &[Pid], dir: &ServiceDirectory, k: u32) -> Pid {
        let moved = w.spawn(NodeId(k), Box::new(PpmAgent::new(NodeId(k))));
        w.inject(moved, KernelMsg::Boot(dir.clone().into()));
        let mut services = *dir.node(NodeId(k)).expect("node k listed");
        services.ppm = moved;
        for &a in agents.iter().chain([&moved]) {
            w.inject(a, KernelMsg::DirectoryUpdateNode { services });
        }
        w.run_for(SimDuration::from_millis(5));
        moved
    }

    #[test]
    fn directory_update_redirects_the_tree() {
        let (mut w, agents, det) = setup(16);
        let dir = directory(&agents, det.pid);
        // Node 8 heads the first delegated half of a 16-node fan-out, so
        // both its own ack and its subtree depend on the update.
        let moved = move_agent(&mut w, &agents, &dir, 8);
        let acks = exec_everywhere(&mut w, &agents, 1);
        assert_eq!(acks.len(), 16, "every node acked");
        assert_eq!(acks[&NodeId(8)], moved, "exec reached the updated agent");
        for i in (0..16).filter(|&i| i != 8) {
            assert_eq!(acks[&NodeId(i)], agents[i as usize]);
        }
    }

    #[test]
    fn later_boot_supersedes_an_update() {
        let (mut w, agents, det) = setup(16);
        let dir = directory(&agents, det.pid);
        let moved = move_agent(&mut w, &agents, &dir, 8);
        // A re-boot with the old wiring is newer than the update.
        for &a in agents.iter().chain([&moved]) {
            w.inject(a, KernelMsg::Boot(dir.clone().into()));
        }
        w.run_for(SimDuration::from_millis(5));
        let acks = exec_everywhere(&mut w, &agents, 2);
        assert_eq!(acks.len(), 16);
        assert_eq!(acks[&NodeId(8)], agents[8], "the later boot won");
        // ... and an update after that boot wins again.
        let again = move_agent(&mut w, &agents, &dir, 8);
        assert_eq!(exec_everywhere(&mut w, &agents, 3)[&NodeId(8)], again);
    }

    #[test]
    fn boot_keeps_routes_it_does_not_cover() {
        let (mut w, agents, det) = setup(8);
        let dir = directory(&agents, det.pid);
        let moved = move_agent(&mut w, &agents, &dir, 5);
        // A partial re-boot that lists only nodes 0..4: node 5 keeps its
        // update, nodes 6 and 7 their first-boot entries.
        let partial = ServiceDirectory {
            nodes: dir.nodes[..4].to_vec(),
            ..dir.clone()
        };
        for &a in &agents {
            w.inject(a, KernelMsg::Boot(partial.clone().into()));
        }
        w.run_for(SimDuration::from_millis(5));
        let acks = exec_everywhere(&mut w, &agents, 4);
        assert_eq!(acks.len(), 8, "no route forgotten");
        assert_eq!(acks[&NodeId(5)], moved);
    }

    #[test]
    fn reordered_directory_still_fans_out() {
        // The config service's retain + push leaves a non-dense list:
        // every lookup off its index takes the scan fallback.
        let (mut w, agents, _det) = setup_with(16, |mut dir| {
            dir.nodes.reverse();
            let first = dir.nodes.remove(3);
            dir.nodes.push(first);
            dir
        });
        let acks = exec_everywhere(&mut w, &agents, 5);
        assert_eq!(acks.len(), 16, "every target reached");
        for (i, agent) in agents.iter().enumerate() {
            assert_eq!(acks[&NodeId(i as u32)], *agent);
        }
    }

    #[test]
    fn exec_fans_out_to_all_targets() {
        let (mut w, agents, _det) = setup(16);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        let targets: Vec<NodeId> = (0..16).map(NodeId).collect();
        client.send(
            &mut w,
            agents[0],
            KernelMsg::PpmExec {
                req: RequestId(1),
                job: JobId(1),
                task: TaskSpec::default(),
                targets,
                reply_to: client.pid,
            },
        );
        w.run_for(SimDuration::from_millis(50));
        let acks = client
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::PpmExecAck { ok: true, .. }))
            .count();
        assert_eq!(acks, 16);
    }

    #[test]
    fn exec_spawns_app_procs_that_register() {
        let (mut w, agents, det) = setup(4);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        client.send(
            &mut w,
            agents[0],
            KernelMsg::PpmExec {
                req: RequestId(2),
                job: JobId(9),
                task: TaskSpec {
                    duration_ns: Some(1_000_000_000),
                    ..TaskSpec::default()
                },
                targets: vec![NodeId(1), NodeId(2)],
                reply_to: client.pid,
            },
        );
        w.run_for(SimDuration::from_millis(50));
        let started = det
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::AppStarted { job: JobId(9), .. }))
            .count();
        assert_eq!(started, 2);
        // After the task duration, both exit on their own.
        w.run_for(SimDuration::from_secs(2));
        let exited = det
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::AppExited { job: JobId(9), .. }))
            .count();
        assert_eq!(exited, 2);
    }

    #[test]
    fn delete_kills_running_tasks() {
        let (mut w, agents, det) = setup(4);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        client.send(
            &mut w,
            agents[0],
            KernelMsg::PpmExec {
                req: RequestId(3),
                job: JobId(5),
                task: TaskSpec {
                    duration_ns: None, // runs until deleted
                    ..TaskSpec::default()
                },
                targets: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
                reply_to: client.pid,
            },
        );
        w.run_for(SimDuration::from_millis(50));
        let live_before = w.live_processes();
        client.send(
            &mut w,
            agents[0],
            KernelMsg::PpmDelete {
                req: RequestId(4),
                job: JobId(5),
                targets: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
                reply_to: client.pid,
            },
        );
        w.run_for(SimDuration::from_millis(50));
        let del_acks = client
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::PpmDeleteAck { .. }))
            .count();
        assert_eq!(del_acks, 4);
        assert_eq!(w.live_processes(), live_before - 4, "app procs killed");
        let _ = det.drain();
    }

    #[test]
    fn duplicate_exec_rejected() {
        let (mut w, agents, _det) = setup(2);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        for req in [5u64, 6] {
            client.send(
                &mut w,
                agents[1],
                KernelMsg::PpmExec {
                    req: RequestId(req),
                    job: JobId(1),
                    task: TaskSpec {
                        duration_ns: None,
                        ..TaskSpec::default()
                    },
                    targets: vec![NodeId(1)],
                    reply_to: client.pid,
                },
            );
        }
        w.run_for(SimDuration::from_millis(50));
        let oks: Vec<bool> = client
            .drain()
            .into_iter()
            .filter_map(|(_, m)| match m {
                KernelMsg::PpmExecAck { ok, .. } => Some(ok),
                _ => None,
            })
            .collect();
        assert_eq!(oks.len(), 2);
        assert!(oks.contains(&true) && oks.contains(&false));
    }

    /// A duplicated tree message (same req, e.g. network duplication or an
    /// upstream retry) replays the recorded ack without re-executing.
    #[test]
    fn duplicate_delivery_replays_ack_once() {
        let (mut w, agents, det) = setup(2);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        let exec = KernelMsg::PpmExec {
            req: RequestId(5),
            job: JobId(1),
            task: TaskSpec {
                duration_ns: None,
                ..TaskSpec::default()
            },
            targets: vec![NodeId(1)],
            reply_to: client.pid,
        };
        client.send(&mut w, agents[1], exec.clone());
        client.send(&mut w, agents[1], exec);
        w.run_for(SimDuration::from_millis(50));
        // Both deliveries are acked (the retry got its answer), but the
        // app process was only spawned once and both acks say ok.
        let oks: Vec<bool> = client
            .drain()
            .into_iter()
            .filter_map(|(_, m)| match m {
                KernelMsg::PpmExecAck { ok, .. } => Some(ok),
                _ => None,
            })
            .collect();
        assert_eq!(oks, vec![true, true]);
        let started = det
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::AppStarted { job: JobId(1), .. }))
            .count();
        assert_eq!(started, 1);
    }

    #[test]
    fn fanout_message_depth_is_logarithmic() {
        // With 64 targets the exec wave should finish well before a
        // sequential 64-hop chain would.
        let (mut w, agents, _det) = setup(64);
        let client = ClientHandle::spawn(&mut w, NodeId(0));
        let t0 = w.now();
        client.send(
            &mut w,
            agents[0],
            KernelMsg::PpmExec {
                req: RequestId(9),
                job: JobId(2),
                task: TaskSpec::default(),
                targets: (0..64).map(NodeId).collect(),
                reply_to: client.pid,
            },
        );
        // Each hop costs ≈150 µs; log2(64)=6 levels ≈ 1 ms; allow 4 ms.
        w.run_for(SimDuration::from_millis(4));
        let acks = client
            .drain()
            .into_iter()
            .filter(|(_, m)| matches!(m, KernelMsg::PpmExecAck { .. }))
            .count();
        assert_eq!(acks, 64, "all acks within logarithmic time");
        assert!(w.now().since(t0) < SimDuration::from_millis(5));
    }
}
