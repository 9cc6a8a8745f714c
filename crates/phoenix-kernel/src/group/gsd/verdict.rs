//! Verdict layer: the GSD's safety rules as pure functions.
//!
//! Evidence (heartbeat tracks, probe outcomes, the regroup and fail-slow
//! detectors, membership messages) is gathered by the actor; every rule
//! that turns it into a takeover, a veto, a freeze or reseed, a placement,
//! an admission, a quarantine or a yield lives here, with no `Ctx` and no
//! telemetry, so each can be checked as a table.

use crate::regroup::{Conclusion, Verdict as QuorumVerdict};
use crate::slow_detect::Verdict as SlowVerdict;
use phoenix_proto::{MemberInfo, PartitionId, PartitionSpec};
use phoenix_sim::{Diagnosis, NodeId, Pid};
use std::collections::BTreeSet;

/// How a probe session of a silent peer ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ProbeEnd {
    /// Every round answered: the node is up, the daemon is silent.
    Answered,
    /// The deadline passed after at least one answer: the node is provably
    /// reachable and the missing rounds are packet loss.
    Partial,
    /// The deadline passed with no answer at all.
    Silent,
}

/// The regroup layer's standing, consulted for ring-peer takeovers only.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Quorum {
    /// This GSD sits on a minority island.
    pub frozen: bool,
    /// The suspect acked the last concluded regroup round.
    pub recently_reachable: bool,
    /// An unbroken chain of majority verdicts has been held long enough.
    pub licensed: bool,
}

/// Everything known about a probed peer when its probe session ends.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Evidence {
    /// The target is the ring predecessor's GSD, not a partition node's WD.
    pub ring_peer: bool,
    pub end: ProbeEnd,
    /// The target beat again on some NIC while the probe was in flight
    /// (and the abort-on-fresh policy is on).
    pub fresh: bool,
    /// The target's node reads Slow with fresh RTT evidence of life.
    pub slow_alive: bool,
    /// `None` when the regroup layer is disabled.
    pub quorum: Option<Quorum>,
}

/// What the GSD does with a concluded probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Action {
    /// Beats resumed: the silence was the network's. End the suspicion.
    Abort,
    /// Frozen on a minority island: no membership change may ripen.
    Suppress,
    /// The suspect answered the last regroup round: a transient.
    Veto,
    /// Quorum not yet held long enough: retry after a fresh round.
    Defer,
    /// Slow is not dead: a degraded-but-answering node keeps its life.
    SlowVeto,
    /// Fail-stop verdict: process or node failure.
    Diagnose(Diagnosis),
}

/// The chain a probe's evidence passes through, in order: a target that
/// is fresh again aborts; any reply makes it a process failure; ring peers
/// then take the quorum gates (frozen, recently reachable, licence); a
/// node verdict on a slow-but-answering peer is vetoed; otherwise the
/// verdict stands. WD targets never take the quorum gates, and a process
/// verdict never takes the slow veto.
pub(crate) fn decide(e: &Evidence) -> Action {
    if e.fresh {
        return Action::Abort;
    }
    let diagnosis = match e.end {
        ProbeEnd::Silent => Diagnosis::NodeFailure,
        ProbeEnd::Answered | ProbeEnd::Partial => Diagnosis::ProcessFailure,
    };
    if let Some(q) = e.quorum.filter(|_| e.ring_peer) {
        if q.frozen {
            return Action::Suppress;
        }
        if q.recently_reachable {
            return Action::Veto;
        }
        if !q.licensed {
            return Action::Defer;
        }
    }
    if diagnosis == Diagnosis::NodeFailure && e.slow_alive {
        return Action::SlowVeto;
    }
    Action::Diagnose(diagnosis)
}

/// This GSD's standing when a regroup round concludes, read after the
/// conclusion was folded into the regroup state.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Standing {
    pub me: PartitionId,
    pub frozen: bool,
    /// Current witness; `None` while the vote table is off.
    pub witness: Option<PartitionId>,
    /// The witness is missing from the round's reachable set.
    pub witness_lost: bool,
    /// An unbroken chain of majority verdicts has been held long enough.
    pub licensed: bool,
}

/// What the GSD does with a concluded regroup round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RegroupAction {
    /// Quorum held: carry on. `mark_stale`: this is the lowest reachable
    /// partition, so it flags the unreachable ones stale in the
    /// directory. `poll`: the witness is lost, so keep rounds going until
    /// the failover licence ripens.
    Hold { mark_stale: bool, poll: bool },
    /// Frozen, and a majority answered: ask this unfrozen acker to take
    /// us back in (the thaw waits for its broadcast naming us).
    Rejoin(Pid),
    /// Frozen, every reachable peer frozen too, and this partition
    /// re-seeds the group as a singleton.
    Reseed,
    /// Frozen with a majority in sight, but another partition re-seeds
    /// (or the licence has not ripened): keep polling.
    Wait,
    /// Minority: freeze.
    Freeze,
}

/// The regroup rule. A minority freezes. An unfrozen majority holds, the
/// lowest reachable partition marking the unreachable ones stale, and
/// polls while the witness is lost. A frozen GSD that sees a majority
/// rejoins via the freshest unfrozen acker; when every reachable peer is
/// frozen one partition re-seeds: the witness if reachable, else the
/// lowest reachable. A majority that leans on dead discounts is
/// testimony, not reachability, so that re-seed also needs the takeover
/// licence.
pub(crate) fn regroup_action(c: &Conclusion, s: Standing) -> RegroupAction {
    let lowest = c.reachable.first().copied();
    match c.verdict {
        QuorumVerdict::Minority => RegroupAction::Freeze,
        QuorumVerdict::Majority if !s.frozen => RegroupAction::Hold {
            mark_stale: lowest == Some(s.me),
            poll: s.witness_lost,
        },
        QuorumVerdict::Majority => match c.rejoin_target {
            Some((gsd, _)) => RegroupAction::Rejoin(gsd),
            None => {
                let seed = s.witness.filter(|w| c.reachable.contains(w)).or(lowest);
                if seed == Some(s.me) && (c.dead.is_empty() || s.licensed) {
                    RegroupAction::Reseed
                } else {
                    RegroupAction::Wait
                }
            }
        },
    }
}

/// Why a partition's GSD needs a new home node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Placement {
    /// A takeover after a node failure: any up node beats no node.
    Takeover,
    /// A slow-drain off a degraded node: only a node without a placement
    /// veto is worth moving to. A gray-self drainer's vetoes are its own
    /// slowness reflected back, so it passes none.
    Drain { gray_self: bool },
}

/// The home-node chooser for takeovers and drains. Walks the partition's
/// backups before its compute nodes, keeps nodes that are up and not
/// `exclude` (the failed or draining node), and takes the first without a
/// placement veto. Only a takeover falls back to the first up node.
pub(crate) fn home_node(
    spec: &PartitionSpec,
    exclude: NodeId,
    up: impl Fn(NodeId) -> bool,
    vetoed: impl Fn(NodeId) -> bool,
    why: Placement,
) -> Option<NodeId> {
    let mut usable = spec
        .backups
        .iter()
        .chain(&spec.compute)
        .copied()
        .filter(|&n| n != exclude && up(n))
        .peekable();
    let first = usable.peek().copied();
    let vetoes = !matches!(why, Placement::Drain { gray_self: true });
    let chosen = usable.find(|&n| !(vetoes && vetoed(n)));
    match why {
        Placement::Takeover => chosen.or(first),
        Placement::Drain { .. } => chosen,
    }
}

/// The canonical-instance rule for two live instances of one role (a
/// partition's GSD, a kernel service): the newer, higher pid is the
/// legitimate one, so `mine` is outranked by a higher `other`.
pub(crate) fn outranked(mine: Pid, other: Pid) -> bool {
    other > mine
}

/// What the GSD does with a `MetaJoin`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum JoinAction {
    /// Frozen: admit nobody, bump no epoch.
    Suppress,
    /// Not the leader: pass the join on to it.
    Forward,
    /// Nothing to change, but under regroup the joiner may be a healed
    /// frozen peer waiting to thaw, or a stale instance the majority
    /// already replaced: answer with the current membership.
    Answer,
    /// Nothing to change and nobody to answer.
    Ignore,
    /// Install the joiner, replacing the entry held for its partition.
    Admit,
}

/// The join rule: suppress while frozen, forward unless leading, and
/// answer (under regroup) an idempotent joiner or one outranked by the
/// instance already held for its partition; otherwise admit. `held` is
/// the membership entry for the joiner's partition.
pub(crate) fn join_action(
    frozen: bool,
    leading: bool,
    regroup: bool,
    held: Option<MemberInfo>,
    joiner: MemberInfo,
) -> JoinAction {
    if frozen {
        return JoinAction::Suppress;
    }
    if !leading {
        return JoinAction::Forward;
    }
    let stale = regroup && held.is_some_and(|h| outranked(joiner.gsd, h.gsd));
    if held == Some(joiner) || stale {
        return if regroup {
            JoinAction::Answer
        } else {
            JoinAction::Ignore
        };
    }
    JoinAction::Admit
}

/// "It's not everyone else — it's me": when a strict majority of the
/// observer's warmed, not-dead peers read Slow, the common element in all
/// those stretched RTTs is the observer. Its verdicts must then not be
/// used against peers. Takes `(verdict, warmed)` per observed peer.
pub(crate) fn gray_self(peers: impl IntoIterator<Item = (SlowVerdict, bool)>) -> bool {
    let (mut warmed, mut slow) = (0u32, 0u32);
    for (v, warm) in peers {
        if v != SlowVerdict::Dead && warm {
            warmed += 1;
            slow += (v == SlowVerdict::Slow) as u32;
        }
    }
    warmed >= 2 && slow * 2 > warmed
}

/// The detector's standing on one member's server node, as quarantine
/// convergence reads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Health {
    Slow,
    /// A *warmed* Healthy verdict: the only one that lifts a quarantine.
    Healthy,
    /// Not yet warmed, or declared dead by the fail-stop pipeline.
    Unknown,
}

/// One leader convergence step of the quarantine set. `members` is the
/// whole membership (the leader included, skipped as `me`: its own health
/// is the princess's call). A Slow member becomes a candidate and is added
/// once it was already a candidate last tick, unless the observer is gray
/// itself; only a warmed Healthy verdict removes an entry; entries for
/// partitions that left the membership are dropped. Returns the next set
/// and the next tick's candidates.
pub(crate) fn converge_quarantine(
    me: PartitionId,
    members: &[(PartitionId, Health)],
    gray_self: bool,
    quarantined: &BTreeSet<PartitionId>,
    pending: &BTreeSet<PartitionId>,
) -> (BTreeSet<PartitionId>, BTreeSet<PartitionId>) {
    let mut next = quarantined.clone();
    let mut cand = BTreeSet::new();
    for &(p, health) in members.iter().filter(|(p, _)| *p != me) {
        match health {
            Health::Slow if !gray_self => {
                cand.insert(p);
                if pending.contains(&p) {
                    next.insert(p);
                }
            }
            Health::Healthy => {
                next.remove(&p);
            }
            _ => {}
        }
    }
    next.retain(|p| members.iter().any(|(m, _)| m == p));
    (next, cand)
}

/// Princess side of the slow-leader handoff: ask the leader to yield when
/// it reads Slow, is not already quarantined, and this observer is not
/// the gray one.
pub(crate) fn princess_requests_yield(
    princess: bool,
    gray_self: bool,
    leader_slow: bool,
    leader_quarantined: bool,
) -> bool {
    princess && !gray_self && leader_slow && !leader_quarantined
}

/// Leader side: honour a yield request only while actually leading and
/// unfrozen, only from the current princess, at most once per degradation
/// (not yet self-quarantined), and only when the leader's own detector
/// corroborates by reading gray-self — a request from a princess that is
/// itself the degraded one must not topple a healthy leader.
pub(crate) fn leader_honours_yield(
    leading: bool,
    frozen: bool,
    from_princess: bool,
    self_quarantined: bool,
    gray_self: bool,
) -> bool {
    leading && !frozen && from_princess && !self_quarantined && gray_self
}

#[cfg(test)]
mod tests {
    use super::*;
    use Action::*;
    use Diagnosis::{NodeFailure as Node, ProcessFailure as Process};
    use ProbeEnd::*;

    const OPEN: Quorum = Quorum {
        frozen: false,
        recently_reachable: false,
        licensed: true,
    };
    const FROZEN: Quorum = Quorum {
        frozen: true,
        ..OPEN
    };
    const REACHABLE: Quorum = Quorum {
        recently_reachable: true,
        ..OPEN
    };
    const UNLICENSED: Quorum = Quorum {
        licensed: false,
        ..OPEN
    };

    /// (ring peer, end, fresh, slow alive, quorum) -> action
    type DecideRow = (bool, ProbeEnd, bool, bool, Option<Quorum>, Action);

    #[test]
    fn decide_table() {
        let rows: &[DecideRow] = &[
            // 1. fresh again aborts, before anything else
            (false, Silent, true, true, None, Abort),
            (true, Answered, true, false, Some(FROZEN), Abort),
            // 2. any reply is a process failure
            (false, Answered, false, false, None, Diagnose(Process)),
            (false, Partial, false, false, None, Diagnose(Process)),
            (true, Partial, false, false, Some(OPEN), Diagnose(Process)),
            // 3. ring peers take the quorum gates, in order
            (true, Answered, false, false, Some(FROZEN), Suppress),
            (true, Silent, false, true, Some(FROZEN), Suppress),
            (true, Silent, false, false, Some(REACHABLE), Veto),
            (true, Partial, false, false, Some(UNLICENSED), Defer),
            (
                true,
                Silent,
                false,
                false,
                Some(Quorum {
                    recently_reachable: true,
                    licensed: false,
                    ..OPEN
                }),
                Veto,
            ),
            // ...WD targets never do
            (false, Silent, false, false, Some(FROZEN), Diagnose(Node)),
            (
                false,
                Answered,
                false,
                false,
                Some(REACHABLE),
                Diagnose(Process),
            ),
            (
                false,
                Silent,
                false,
                false,
                Some(UNLICENSED),
                Diagnose(Node),
            ),
            // ...and with the regroup layer off nobody does
            (true, Silent, false, false, None, Diagnose(Node)),
            // 4. a node verdict on a slow-but-answering peer is vetoed
            (false, Silent, false, true, None, SlowVeto),
            (true, Silent, false, true, Some(OPEN), SlowVeto),
            // ...a process verdict never is
            (false, Answered, false, true, None, Diagnose(Process)),
            (true, Partial, false, true, Some(OPEN), Diagnose(Process)),
            // 5. otherwise the verdict stands
            (false, Silent, false, false, None, Diagnose(Node)),
            (true, Silent, false, false, Some(OPEN), Diagnose(Node)),
        ];
        for (i, &(ring_peer, end, fresh, slow_alive, quorum, want)) in rows.iter().enumerate() {
            let e = Evidence {
                ring_peer,
                end,
                fresh,
                slow_alive,
                quorum,
            };
            assert_eq!(decide(&e), want, "row {i}: {e:?}");
        }
    }

    fn set(ps: &[u32]) -> BTreeSet<PartitionId> {
        ps.iter().map(|&p| PartitionId(p)).collect()
    }

    /// (members' health, gray self, quarantined, pending) -> (next, pending)
    type QuarantineRow = (
        [(PartitionId, Health); 3],
        bool,
        &'static [u32],
        &'static [u32],
        &'static [u32],
        &'static [u32],
    );

    #[test]
    fn quarantine_convergence_table() {
        use Health::*;
        let me = PartitionId(0);
        let m = |h1: Health, h2: Health| [(me, Slow), (PartitionId(1), h1), (PartitionId(2), h2)];
        let rows: &[QuarantineRow] = &[
            // first Slow tick: candidate only
            (m(Slow, Unknown), false, &[], &[], &[], &[1]),
            // second consecutive Slow tick: added
            (m(Slow, Unknown), false, &[], &[1], &[1], &[1]),
            // a candidate that recovered in between is not added
            (m(Unknown, Slow), false, &[], &[1], &[], &[2]),
            // the leader's own Slow reading is never a candidate
            (m(Unknown, Unknown), false, &[], &[0], &[], &[]),
            // removal only on a warmed Healthy verdict
            (m(Unknown, Unknown), false, &[1], &[], &[1], &[]),
            (m(Healthy, Unknown), false, &[1], &[], &[], &[]),
            // a gray-self observer adds nothing, even a ripe candidate...
            (m(Slow, Slow), true, &[], &[1, 2], &[], &[]),
            // ...keeps what it has, and can still lift on Healthy
            (m(Slow, Healthy), true, &[1, 2], &[], &[1], &[]),
            // entries for partitions that left the membership are dropped
            (m(Unknown, Unknown), false, &[0, 7], &[], &[0], &[]),
        ];
        for (i, &(members, gray, q, pending, want_next, want_pending)) in rows.iter().enumerate() {
            let (next, cand) = converge_quarantine(me, &members, gray, &set(q), &set(pending));
            assert_eq!(next, set(want_next), "row {i}: next");
            assert_eq!(cand, set(want_pending), "row {i}: pending");
        }
    }

    #[test]
    fn gray_self_needs_a_warmed_strict_majority() {
        use SlowVerdict::*;
        assert!(
            !gray_self([(Slow, true)]),
            "one warmed peer is not a majority"
        );
        assert!(gray_self([(Slow, true), (Slow, true), (Healthy, true)]));
        assert!(
            !gray_self([(Slow, true), (Healthy, true)]),
            "half is not a majority"
        );
        assert!(
            !gray_self([(Slow, true), (Slow, false), (Healthy, true)]),
            "unwarmed peers do not count"
        );
        assert!(
            gray_self([(Slow, true), (Slow, true), (Dead, true)]),
            "dead peers do not count"
        );
    }

    #[test]
    fn yield_checks() {
        assert!(princess_requests_yield(true, false, true, false));
        assert!(
            !princess_requests_yield(false, false, true, false),
            "only the princess asks"
        );
        assert!(
            !princess_requests_yield(true, true, true, false),
            "a gray princess never asks"
        );
        assert!(!princess_requests_yield(true, false, false, false));
        assert!(
            !princess_requests_yield(true, false, true, true),
            "already quarantined"
        );

        assert!(leader_honours_yield(true, false, true, false, true));
        assert!(
            !leader_honours_yield(false, false, true, false, true),
            "not leading"
        );
        assert!(
            !leader_honours_yield(true, true, true, false, true),
            "frozen"
        );
        assert!(
            !leader_honours_yield(true, false, false, false, true),
            "not from the princess"
        );
        assert!(
            !leader_honours_yield(true, false, true, true, true),
            "already yielded"
        );
        assert!(
            !leader_honours_yield(true, false, true, false, false),
            "no corroboration"
        );
    }

    fn parts(ps: &[u32]) -> Vec<PartitionId> {
        ps.iter().map(|&p| PartitionId(p)).collect()
    }

    /// (verdict, reachable, rejoin target, dead, me, frozen, witness,
    /// licensed) -> action; the witness is lost when it is not reachable
    type RegroupRow = (
        QuorumVerdict,
        &'static [u32],
        Option<u64>,
        &'static [u32],
        u32,
        bool,
        Option<u32>,
        bool,
        RegroupAction,
    );

    #[test]
    fn regroup_action_table() {
        use QuorumVerdict::{Majority as Maj, Minority as Min};
        use RegroupAction::*;
        let hold = |mark_stale, poll| Hold { mark_stale, poll };
        const T: bool = true;
        const F: bool = false;
        let rows: &[RegroupRow] = &[
            // 1. a minority freezes, frozen or not
            (Min, &[2], None, &[], 2, F, None, F, Freeze),
            (Min, &[2], Some(9), &[], 2, T, Some(0), T, Freeze),
            // 2. an unfrozen majority holds; the lowest reachable marks
            // the unreachable stale...
            (Maj, &[0, 1], None, &[], 0, F, None, F, hold(T, F)),
            (Maj, &[0, 1], None, &[], 1, F, Some(0), F, hold(F, F)),
            // ...and polls while the witness is lost
            (Maj, &[1, 2], Some(9), &[], 1, F, Some(0), F, hold(T, T)),
            (Maj, &[1, 2], None, &[0], 2, F, Some(0), T, hold(F, T)),
            // 3. frozen with a majority in sight: rejoin via the acker,
            // even where this partition would otherwise re-seed
            (Maj, &[0, 1], Some(9), &[], 0, T, Some(0), F, Rejoin(Pid(9))),
            // 4. all frozen: the witness re-seeds when reachable...
            (Maj, &[0, 1, 2], None, &[], 1, T, Some(1), F, Reseed),
            (Maj, &[0, 1, 2], None, &[], 0, T, Some(1), F, Wait),
            // ...else the lowest reachable partition does
            (Maj, &[1, 2], None, &[], 1, T, Some(0), F, Reseed),
            (Maj, &[1, 2], None, &[], 2, T, Some(0), F, Wait),
            (Maj, &[0, 1], None, &[], 0, T, None, F, Reseed),
            // ...and leaning on dead discounts needs the licence
            (Maj, &[1, 2], None, &[0], 1, T, Some(0), F, Wait),
            (Maj, &[1, 2], None, &[0], 1, T, Some(0), T, Reseed),
        ];
        for (i, row) in rows.iter().enumerate() {
            let &(verdict, reachable, rejoin, dead, me, frozen, witness, licensed, want) = row;
            let c = Conclusion {
                verdict,
                reachable: parts(reachable),
                rejoin_target: rejoin.map(|g| (Pid(g), 1)),
                witness_failover: None,
                dead: parts(dead),
            };
            let standing = Standing {
                me: PartitionId(me),
                frozen,
                witness: witness.map(PartitionId),
                witness_lost: witness.is_some_and(|w| !reachable.contains(&w)),
                licensed,
            };
            assert_eq!(regroup_action(&c, standing), want, "row {i}");
        }
    }

    /// (up, vetoed, why) -> chosen node, over backups [4, 2] and compute
    /// [3, 1] with node 4 excluded
    type PlacementRow = (&'static [u32], &'static [u32], Placement, Option<u32>);

    #[test]
    fn home_node_table() {
        use Placement::*;
        const DRAIN: Placement = Drain { gray_self: false };
        const GRAY: Placement = Drain { gray_self: true };
        let spec = PartitionSpec {
            id: PartitionId(0),
            server: NodeId(0),
            backups: vec![NodeId(4), NodeId(2)],
            compute: vec![NodeId(3), NodeId(1)],
        };
        let rows: &[PlacementRow] = &[
            // backups before compute, in spec order, the excluded skipped
            (&[1, 2, 3, 4], &[], Takeover, Some(2)),
            (&[1, 2, 3, 4], &[], DRAIN, Some(2)),
            // down nodes skipped
            (&[1, 3, 4], &[], Takeover, Some(3)),
            // the first node without a veto wins
            (&[1, 2, 3, 4], &[2], Takeover, Some(3)),
            (&[1, 2, 3, 4], &[2, 3], DRAIN, Some(1)),
            // all vetoed: a takeover falls back to the first up node...
            (&[2, 3], &[2, 3], Takeover, Some(2)),
            // ...a drain stays put...
            (&[2, 3], &[2, 3], DRAIN, None),
            // ...unless the drainer is gray itself and passes no vetoes
            (&[2, 3], &[2, 3], GRAY, Some(2)),
            // nothing but the excluded node up: nowhere to go
            (&[4], &[], Takeover, None),
            (&[4], &[], GRAY, None),
        ];
        for (i, &(up, vetoed, why, want)) in rows.iter().enumerate() {
            let up = |n: NodeId| up.contains(&n.0);
            let vetoed = |n: NodeId| vetoed.contains(&n.0);
            let got = home_node(&spec, NodeId(4), up, vetoed, why);
            assert_eq!(got, want.map(NodeId), "row {i}");
        }
    }

    fn member(gsd: u64) -> MemberInfo {
        MemberInfo {
            partition: PartitionId(1),
            node: NodeId(1),
            gsd: Pid(gsd),
            event: Pid(0),
            bulletin: Pid(0),
            checkpoint: Pid(0),
            host_ppm: Pid(0),
        }
    }

    /// (frozen, leading, regroup, held gsd, joiner gsd) -> action
    type JoinRow = (bool, bool, bool, Option<u64>, u64, JoinAction);

    #[test]
    fn join_action_table() {
        use JoinAction::*;
        let rows: &[JoinRow] = &[
            // 1. frozen: nothing, not even a forward
            (true, true, true, None, 5, Suppress),
            (true, false, true, Some(5), 5, Suppress),
            // 2. not leading: forward
            (false, false, true, Some(5), 5, Forward),
            (false, false, false, None, 5, Forward),
            // 3. idempotent: answer under regroup, else ignore
            (false, true, true, Some(5), 5, Answer),
            (false, true, false, Some(5), 5, Ignore),
            // 4. outranked by the held instance: answer under regroup...
            (false, true, true, Some(7), 5, Answer),
            // ...without regroup the joiner is admitted regardless
            (false, true, false, Some(7), 5, Admit),
            // 5. a new partition or a newer instance: admit
            (false, true, true, None, 5, Admit),
            (false, true, true, Some(3), 5, Admit),
            (false, true, false, Some(3), 5, Admit),
        ];
        for (i, &(frozen, leading, regroup, held, joiner, want)) in rows.iter().enumerate() {
            let got = join_action(frozen, leading, regroup, held.map(member), member(joiner));
            assert_eq!(got, want, "row {i}");
        }
        assert!(outranked(Pid(3), Pid(5)), "a newer pid outranks");
        assert!(!outranked(Pid(5), Pid(3)));
        assert!(
            !outranked(Pid(5), Pid(5)),
            "an instance never outranks itself"
        );
    }
}
