//! Verdict layer: the GSD's safety rules as pure functions.
//!
//! Evidence (heartbeat tracks, probe outcomes, the regroup and fail-slow
//! detectors) is gathered by the actor; every rule that turns it into a
//! takeover, a veto, a quarantine or a yield lives here, with no `Ctx` and
//! no telemetry, so each can be checked as a table.

use crate::slow_detect::Verdict as SlowVerdict;
use phoenix_proto::PartitionId;
use phoenix_sim::Diagnosis;
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
}
