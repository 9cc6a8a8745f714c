//! Evidence layer: heartbeat tracks, suspicion scans and probe sessions.
//!
//! Both kinds of monitored peer — a partition node's watch daemon and the
//! ring predecessor's GSD — keep the same [`PeerTrack`] and run through
//! the same scan, heartbeat-ingestion and probe code, keyed by
//! [`ProbeKind`]. A concluded probe is handed to the verdict layer.

use super::verdict::ProbeEnd;
use super::{DelayedOp, Gsd};
use crate::nic_health::HealthTransition;
use phoenix_proto::{EventPayload, EventType, KernelMsg, PartitionId, RequestId, ServiceKind};
use phoenix_sim::{Ctx, FaultTarget, NicId, NodeId, Pid, SimDuration, SimTime, TraceEvent};

/// A heartbeat seq at or below the last seen one within this window is a
/// duplicate (network-level duplication or reordering) and is dropped. A
/// backward jump of the window or more means the sender restarted and its
/// counter reset — accept and resynchronize.
const SEQ_RESTART_WINDOW: u64 = 64;

/// Duplicate / stale-reorder check shared by WD and meta heartbeats.
fn is_dup_seq(last: u64, seq: u64) -> bool {
    seq <= last && last - seq < SEQ_RESTART_WINDOW
}

/// Per-NIC loss evidence from a heartbeat seq: how many beats on this
/// interface silently died between the previous one and this one. Zero for
/// duplicates, restarts (backward jumps past the window) and absurd
/// forward jumps (a long partition is one fault, not `gap` loss events —
/// the EWMA cap bounds it further, this bounds the loop).
fn seq_gap(last: u64, seq: u64) -> u64 {
    if last == 0 || seq <= last {
        return 0;
    }
    let gap = seq - last - 1;
    if gap >= SEQ_RESTART_WINDOW {
        return 0;
    }
    gap
}

/// Fixed-literal gauge keys (the telemetry registry requires `&'static
/// str`); clusters model up to a handful of parallel networks.
fn nic_health_gauge(nic: NicId) -> &'static str {
    match nic.0 {
        0 => "nic.health.nic0",
        1 => "nic.health.nic1",
        2 => "nic.health.nic2",
        _ => "nic.health.nicN",
    }
}

/// Per-NIC heartbeat evidence about one monitored peer.
pub(super) struct PeerTrack {
    pub(super) last: Vec<SimTime>,
    /// Highest heartbeat seq seen per NIC (duplicate suppression).
    last_seq: Vec<u64>,
    nic_down: Vec<bool>,
    /// The probe session in flight, if suspicion has been raised.
    pub(super) probing: Option<u64>,
    /// Diagnosed dead; cleared by the next heartbeat.
    pub(super) down: bool,
}

/// What one accepted heartbeat changed.
#[derive(Default)]
struct Beat {
    /// Beats lost on this NIC since the previous one; `None` when the NIC
    /// is not tracked (no loss or delivery evidence).
    gap: Option<u64>,
    was_down: bool,
    nic_recovered: bool,
}

impl PeerTrack {
    pub(super) fn new(nics: usize, now: SimTime) -> PeerTrack {
        PeerTrack {
            last: vec![now; nics],
            last_seq: vec![0; nics],
            nic_down: vec![false; nics],
            probing: None,
            down: false,
        }
    }

    /// Fold one heartbeat in; `None` for a duplicate, which must not
    /// refresh liveness. A seq far below the window means the sender
    /// restarted and its counter reset — accept it.
    fn beat(&mut self, nic: NicId, seq: u64, now: SimTime) -> Option<Beat> {
        let i = nic.0 as usize;
        let mut gap = None;
        if let Some(last_seq) = self.last_seq.get_mut(i) {
            if is_dup_seq(*last_seq, seq) {
                return None;
            }
            gap = Some(seq_gap(*last_seq, seq));
            *last_seq = seq;
        }
        if let Some(last) = self.last.get_mut(i) {
            *last = now;
        }
        let nic_recovered = self.nic_down.get(i).copied().unwrap_or(false);
        if nic_recovered {
            self.nic_down[i] = false;
        }
        Some(Beat {
            gap,
            was_down: std::mem::take(&mut self.down),
            nic_recovered,
        })
    }
}

/// A monitored peer: a partition node's watch daemon, or the ring
/// predecessor's GSD.
#[derive(Clone, Copy)]
pub(super) enum ProbeKind {
    Wd(NodeId),
    Meta(PartitionId),
}

impl ProbeKind {
    /// Key of the detect→diagnose mark stamped when suspicion is raised.
    pub(super) fn detect_key(self) -> u64 {
        match self {
            ProbeKind::Wd(node) => phoenix_telemetry::key(&[1, node.0 as u64]),
            ProbeKind::Meta(p) => phoenix_telemetry::key(&[2, p.0 as u64]),
        }
    }
}

/// Who a [`ProbeKind`] points at.
#[derive(Clone, Copy)]
pub(super) struct Peer {
    /// The watched daemon.
    daemon: Pid,
    pub(super) node: NodeId,
    /// The node's PPM agent, which answers liveness probes.
    ppm: Pid,
}

/// An in-flight liveness probe session; removed once it concludes.
pub(super) struct ProbeSession {
    kind: ProbeKind,
    target_ppm: Pid,
    rounds_sent: u32,
    responses: u32,
    /// When the most recent probe round was sent; each response consumes
    /// it as an RTT sample for the fail-slow detector.
    last_round_at: Option<SimTime>,
    /// Telemetry span covering the whole session (open → resolution);
    /// aborted (not closed) if this GSD dies mid-probe.
    span: phoenix_telemetry::SpanId,
}

impl Gsd {
    pub(super) fn stale(&self, now: SimTime, last: SimTime) -> bool {
        // K-of-N suspicion: with `suspect_beats` > 1 a peer is only
        // suspected after that many consecutive intervals of silence, so a
        // single heartbeat lost to the network never starts a diagnosis.
        let window = self.params.ft.hb_interval * self.params.ft.suspect_beats as u64
            + self.params.ft.hb_grace;
        now.since(last) > window
    }

    /// The tracked peer a probe kind points at (a ring kind only while that
    /// partition is still our predecessor).
    pub(super) fn peer(&self, kind: ProbeKind) -> Option<(Peer, &PeerTrack)> {
        let (daemon, node, ppm, track) = match kind {
            ProbeKind::Wd(node) => {
                let (wd, t) = self.wd_tracks.get(&node)?;
                let ppm = self.node_daemons.get(&node).map_or(Pid(0), |n| n.ppm);
                (*wd, node, ppm, t)
            }
            ProbeKind::Meta(p) => {
                let (m, t) = self.pred.as_ref().filter(|(m, _)| m.partition == p)?;
                (m.gsd, m.node, m.host_ppm, t)
            }
        };
        Some((Peer { daemon, node, ppm }, track))
    }

    pub(super) fn track_mut(&mut self, kind: ProbeKind) -> Option<&mut PeerTrack> {
        match kind {
            ProbeKind::Wd(node) => self.wd_tracks.get_mut(&node).map(|(_, t)| t),
            ProbeKind::Meta(p) => self
                .pred
                .as_mut()
                .filter(|(m, _)| m.partition == p)
                .map(|(_, t)| t),
        }
    }

    /// Has any (locally reachable) NIC of the probed peer produced a fresh
    /// heartbeat since the probe started?
    pub(super) fn probe_target_fresh(&self, kind: ProbeKind, now: SimTime) -> bool {
        self.peer(kind)
            .is_some_and(|(_, t)| t.last.iter().any(|&l| !self.stale(now, l)))
    }

    /// Suspicion cleared: beats resumed while the probe was in flight, so
    /// they were lost in the network, not stopped at the source. Ends the
    /// session without a diagnosis (no trace events — the paper pipeline
    /// never reaches this state, so traces stay byte-identical). The
    /// detect→diagnose mark is retracted: the suspicion was false, so
    /// there is no diagnose latency to measure and the mark must not leak.
    pub(super) fn abort_probe(&mut self, kind: ProbeKind) {
        phoenix_telemetry::counter_add("gsd.suspicion.aborted", 1);
        if let Some(t) = self.track_mut(kind) {
            t.probing = None;
        }
        phoenix_telemetry::unmark("gsd.detect_to_diagnose", kind.detect_key());
    }

    // ---- scanning --------------------------------------------------------

    pub(super) fn scan(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let now = ctx.now();
        let nodes: Vec<NodeId> = self.wd_tracks.keys().copied().collect();
        for node in nodes {
            self.scan_peer(ctx, now, ProbeKind::Wd(node));
        }
        if let Some((m, _)) = &self.pred {
            self.scan_peer(ctx, now, ProbeKind::Meta(m.partition));
        }
        self.scan_svcs(ctx, now);
    }

    fn scan_peer(&mut self, ctx: &mut Ctx<'_, KernelMsg>, now: SimTime, kind: ProbeKind) {
        let own_node = ctx.node();
        let Some((peer, t)) = self.peer(kind) else {
            return;
        };
        if t.down || t.probing.is_some() {
            return;
        }
        let mut stale_nics = Vec::new();
        let mut fresh = 0usize;
        for (i, &last) in t.last.iter().enumerate() {
            // Skip NICs already diagnosed down, and NICs down on our own
            // side: the introspection path owns those.
            if t.nic_down[i] || !ctx.nic_is_up(own_node, NicId(i as u8)) {
                continue;
            }
            if self.stale(now, last) {
                stale_nics.push(i);
            } else {
                fresh += 1;
            }
        }
        if stale_nics.is_empty() {
            return;
        }
        if fresh == 0 {
            // Every interface silent: process or node failure; probe the
            // node's PPM agent to find out.
            ctx.trace(TraceEvent::FaultDetected {
                observer: ctx.pid(),
                target: FaultTarget::Process(peer.daemon),
            });
            phoenix_telemetry::counter_add("gsd.faults.detected", 1);
            phoenix_telemetry::counter_add("gsd.suspicion.raised", 1);
            phoenix_telemetry::mark("gsd.detect_to_diagnose", kind.detect_key());
            let timeout = match kind {
                ProbeKind::Wd(_) => self.params.ft.wd_node_probe_timeout,
                ProbeKind::Meta(_) => self.params.ft.meta_node_probe_timeout,
            };
            let session = self.start_probe(ctx, kind, peer.ppm, timeout);
            if let Some(t) = self.track_mut(kind) {
                t.probing = Some(session);
            }
            if let ProbeKind::Meta(_) = kind {
                // A silent ring predecessor is exactly what a partition
                // looks like from here: open a regroup round alongside the
                // probe. The round concludes before the probe pipeline can
                // ripen into a takeover, so the quorum verdict is in first.
                self.start_regroup_round(ctx);
            }
        } else {
            // Partial silence: network failure on those interfaces.
            for i in stale_nics {
                let nic = NicId(i as u8);
                ctx.trace(TraceEvent::FaultDetected {
                    observer: ctx.pid(),
                    target: FaultTarget::Nic(peer.node, nic),
                });
                if let Some(t) = self.track_mut(kind) {
                    t.nic_down[i] = true;
                }
                let delay = self.params.ft.nic_analysis_delay;
                self.schedule(
                    ctx,
                    delay,
                    DelayedOp::NicDiag {
                        node: peer.node,
                        nic,
                    },
                );
            }
        }
    }

    fn scan_svcs(&mut self, ctx: &mut Ctx<'_, KernelMsg>, now: SimTime) {
        let stale: Vec<(Pid, ServiceKind, String)> = self
            .svc_tracks
            .iter()
            .filter(|(_, t)| self.stale(now, t.last))
            .map(|(&pid, t)| (pid, t.kind, t.factory.clone()))
            .collect();
        for (pid, kind, factory) in stale {
            self.svc_tracks.remove(&pid);
            ctx.trace(TraceEvent::FaultDetected {
                observer: ctx.pid(),
                target: FaultTarget::Process(pid),
            });
            self.schedule(
                ctx,
                self.params.ft.local_diag_delay,
                DelayedOp::LocalDiagSvc { pid, kind, factory },
            );
        }
    }

    /// Own-NIC introspection: a local interface going down is diagnosed
    /// locally; one coming back up is a recovery.
    pub(super) fn introspect_own_nics(&mut self, ctx: &mut Ctx<'_, KernelMsg>) {
        let own = ctx.node();
        for i in 0..self.my_nic_known.len() {
            let nic = NicId(i as u8);
            let up = ctx.nic_is_up(own, nic);
            let was = self.my_nic_known[i];
            if was && !up {
                ctx.trace(TraceEvent::FaultDetected {
                    observer: ctx.pid(),
                    target: FaultTarget::Nic(own, nic),
                });
                let delay = self.params.ft.local_diag_delay;
                self.schedule(ctx, delay, DelayedOp::NicDiag { node: own, nic });
            } else if !was && up {
                self.publish(
                    ctx,
                    EventType::NetworkRecovery,
                    own,
                    EventPayload::Nic(own, nic),
                );
            }
            self.my_nic_known[i] = up;
        }
        if self.nic_health.enabled() {
            for i in 0..self.nic_health.nic_count() {
                let nic = NicId(i as u8);
                phoenix_telemetry::gauge_set(nic_health_gauge(nic), self.nic_health.score(nic));
            }
        }
    }

    // ---- probes ----------------------------------------------------------

    fn start_probe(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        kind: ProbeKind,
        target_ppm: Pid,
        timeout: SimDuration,
    ) -> u64 {
        let id = self.fresh_id();
        let span = phoenix_telemetry::span_start("gsd.probe.session", "gsd", ctx.node().0);
        self.probes.insert(
            id,
            ProbeSession {
                kind,
                target_ppm,
                rounds_sent: 0,
                responses: 0,
                last_round_at: None,
                span,
            },
        );
        // First probe round fires after one spacing; the paper's process
        // diagnosing time ≈ rounds × spacing.
        let spacing = self.params.ft.probe_round_interval;
        self.schedule(ctx, spacing, DelayedOp::ProbeRound(id));
        self.schedule(ctx, timeout, DelayedOp::ProbeTimeout(id));
        id
    }

    pub(super) fn probe_round(&mut self, ctx: &mut Ctx<'_, KernelMsg>, session: u64) {
        let Some(s) = self.probes.get_mut(&session) else {
            return;
        };
        if s.rounds_sent >= self.params.ft.probe_rounds {
            return;
        }
        s.rounds_sent += 1;
        s.last_round_at = Some(ctx.now());
        let target = s.target_ppm;
        let kind = s.kind;
        phoenix_telemetry::counter_add("gsd.probes.sent", 1);
        phoenix_telemetry::mark("gsd.probe.rtt", phoenix_telemetry::key(&[session]));
        // Probes are single-path: route them over the healthiest usable
        // interface so a degraded NIC cannot eat the very traffic that
        // decides whether a silent peer is dead.
        let peer = self.peer(kind).map(|(p, _)| p.node);
        let req = KernelMsg::ProbeReq { req: RequestId(session) };
        match peer.and_then(|p| self.best_nic_for(ctx, p)) {
            Some(nic) => ctx.send_via(target, nic, req),
            None => ctx.send(target, req),
        }
        let spacing = self.params.ft.probe_round_interval;
        self.schedule(ctx, spacing, DelayedOp::ProbeRound(session));
    }

    pub(super) fn on_probe_resp(&mut self, ctx: &mut Ctx<'_, KernelMsg>, session: u64) {
        let Some(s) = self.probes.get_mut(&session) else {
            return;
        };
        phoenix_telemetry::measure(
            "gsd.probe.rtt",
            "gsd",
            ctx.node().0,
            phoenix_telemetry::key(&[session]),
        );
        s.responses += 1;
        // One RTT sample per probe round (take() so a duplicate response
        // in the same round cannot double-count).
        let sent_at = s.last_round_at.take();
        let (kind, span) = (s.kind, s.span);
        let done = s.responses >= self.params.ft.probe_rounds;
        if done {
            self.probes.remove(&session);
            phoenix_telemetry::span_end(span);
        }
        if self.slow.enabled() {
            let peer = self.peer(kind).map(|(p, _)| p.node);
            if let (Some(node), Some(at)) = (peer, sent_at) {
                self.observe_peer_rtt(ctx, node, (ctx.now() - at).as_nanos());
            }
        }
        if done {
            self.conclude_probe(ctx, kind, ProbeEnd::Answered);
        }
    }

    pub(super) fn on_probe_timeout(&mut self, ctx: &mut Ctx<'_, KernelMsg>, session: u64) {
        let Some(s) = self.probes.remove(&session) else {
            return;
        };
        phoenix_telemetry::span_end(s.span);
        let end = if s.responses > 0 {
            ProbeEnd::Partial
        } else {
            ProbeEnd::Silent
        };
        self.conclude_probe(ctx, s.kind, end);
    }

    /// Lost quorum: abort every in-flight session in id order — a pending
    /// diagnosis must not ripen into a takeover after the freeze.
    /// `abort_probe` retracts the suspicion marks so they cannot leak.
    pub(super) fn abort_probes(&mut self) {
        for s in std::mem::take(&mut self.probes).into_values() {
            phoenix_telemetry::span_end(s.span);
            self.abort_probe(s.kind);
        }
    }

    /// Probe sessions die with this GSD: abandon their spans with an
    /// `aborted` disposition so `open_spans()` cannot climb across fault
    /// schedules.
    pub(super) fn abandon_probes(&mut self) {
        for s in std::mem::take(&mut self.probes).into_values() {
            phoenix_telemetry::span_abort(s.span);
        }
    }

    // ---- heartbeat ingestion -----------------------------------------------

    /// One heartbeat from a monitored peer on `nic`: duplicate suppression
    /// before any bookkeeping, then per-NIC loss and delivery evidence (WD
    /// and ring beats feed one stream: network `i` is shared
    /// infrastructure), the liveness refresh and the recovery edges.
    pub(super) fn on_heartbeat(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        kind: ProbeKind,
        from: Pid,
        nic: NicId,
        seq: u64,
    ) {
        let now = ctx.now();
        let beat = match self.track_mut(kind).map(|t| t.beat(nic, seq, now)) {
            Some(None) => {
                phoenix_telemetry::counter_add("gsd.dedup.dropped", 1);
                return;
            }
            Some(Some(beat)) => beat,
            None => Beat::default(),
        };
        let mut transitions: Vec<HealthTransition> = Vec::new();
        if let Some(gap) = beat.gap {
            // The seq jump on this interface is per-NIC loss evidence; the
            // arrival itself is delivery evidence.
            if gap > 0 {
                transitions.extend(self.nic_health.observe_misses(nic, gap));
            }
            transitions.extend(self.nic_health.observe_delivery(nic));
        }
        let node = match kind {
            ProbeKind::Wd(node) => {
                if self.nic_health.enabled() {
                    // Echo the beat over the same interface — the WD's only
                    // window onto its per-NIC round trips.
                    ctx.send_via(from, nic, KernelMsg::WdHeartbeatAck { nic, seq });
                }
                self.apply_health_transitions(ctx, transitions);
                phoenix_telemetry::counter_add("gsd.wd_heartbeats.received", 1);
                let key = phoenix_telemetry::key(&[node.0 as u64, nic.0 as u64, seq]);
                phoenix_telemetry::measure("wd.heartbeat.flight", "wd", node.0, key);
                node
            }
            ProbeKind::Meta(p) => {
                self.apply_health_transitions(ctx, transitions);
                let key = phoenix_telemetry::key(&[p.0 as u64, nic.0 as u64, seq]);
                phoenix_telemetry::measure("meta.heartbeat.flight", "gsd", ctx.node().0, key);
                self.peer(kind).map(|(p, _)| p.node).unwrap_or(NodeId(0))
            }
        };
        if beat.was_down {
            self.publish(ctx, EventType::NodeRecovery, node, EventPayload::Node(node));
        }
        if beat.nic_recovered {
            self.publish(
                ctx,
                EventType::NetworkRecovery,
                node,
                EventPayload::Nic(node, nic),
            );
        }
    }

    /// Publish a demotion/promotion edge through the event service. A
    /// demoted interface is *degraded* — lossy but not down: WD heartbeats
    /// still fan out over it (paper semantics), but single-path traffic
    /// avoids it until the hysteresis window of clean deliveries closes.
    fn apply_health_transitions(
        &mut self,
        ctx: &mut Ctx<'_, KernelMsg>,
        transitions: Vec<HealthTransition>,
    ) {
        let own = ctx.node();
        for tr in transitions {
            let (counter, label, etype, nic) = match tr {
                HealthTransition::Demoted(nic) => (
                    "gsd.nic.demotions",
                    "nic-degraded",
                    EventType::NetworkDegraded,
                    nic,
                ),
                HealthTransition::Promoted(nic) => (
                    "gsd.nic.promotions",
                    "nic-repromoted",
                    EventType::NetworkRecovery,
                    nic,
                ),
            };
            phoenix_telemetry::counter_add(counter, 1);
            ctx.trace(TraceEvent::Milestone {
                label,
                value: nic.0 as f64,
            });
            self.publish(ctx, etype, own, EventPayload::Nic(own, nic));
        }
    }
}
