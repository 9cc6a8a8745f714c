//! Cross-commit sameness pin: the kernel's observable behaviour, hashed.
//!
//! `differential.rs` compares two schedulers inside one build, so it cannot
//! notice a refactor that changes behaviour the same way under both. This
//! suite replays the pinned differential scenarios plus one plain small
//! chaos seed, renders the same four surfaces (event stream, structured
//! trace, flight-recorder dump, telemetry registry), FNV-1a-hashes each,
//! and compares the hashes with `tests/sameness.digests` — a file
//! generated once and committed. A refactor that claims "no behaviour
//! change" must leave every line of it intact.
//!
//! On a mismatch the test prints the line the current build would write,
//! so a change that *means* to alter behaviour can update the file (and
//! must say so in its change log).
//!
//! Scenarios picked to reach a particular GSD branch (a reseed, a witness
//! failover, a drain) also name the telemetry counter that proves the
//! branch ran, so the pin cannot quietly stop covering it.

use phoenix::chaos::{flight_recorder_dump, run_schedule, ChaosConfig};
use phoenix::telemetry::BenchReport;

const DIGESTS: &str = include_str!("sameness.digests");

/// 64-bit FNV-1a over a whole surface.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Replay `seed` (restricted to `mask`) and check each surface's digest
/// line `<scenario> <surface> <fnv1a hex> <lines>` against the pinned file.
/// Every counter in `reaches` must be nonzero after the run.
fn assert_same(scenario: &str, seed: u64, mask: u64, mut cfg: ChaosConfig, reaches: &[&str]) {
    phoenix::telemetry::reset();
    cfg.record_streams = true;
    let outcome = run_schedule(seed, &cfg, mask, false);
    let flight = flight_recorder_dump(usize::MAX);
    let (registry, unreached) = phoenix::telemetry::with(|reg| {
        let unreached: Vec<&str> = reaches
            .iter()
            .copied()
            .filter(|c| reg.counter(c) == 0)
            .collect();
        (
            BenchReport::new("differential").to_json(reg).render(),
            unreached,
        )
    });
    phoenix::telemetry::reset();
    assert!(
        unreached.is_empty(),
        "{scenario}: no longer reaches the branch behind {unreached:?}"
    );
    let streams = outcome.streams.expect("streams recorded");
    assert!(
        !streams.events.is_empty(),
        "{scenario}: event stream is empty"
    );

    let mut drifted = Vec::new();
    for (surface, text) in [
        ("event", &streams.events),
        ("trace", &streams.trace),
        ("flight-recorder", &flight),
        ("telemetry-registry", &registry),
    ] {
        let line = format!(
            "{scenario} {surface} {:016x} {}",
            fnv1a(text),
            text.lines().count()
        );
        let prefix = format!("{scenario} {surface} ");
        let pinned = DIGESTS.lines().find(|l| l.starts_with(&prefix));
        if pinned != Some(line.as_str()) {
            drifted.push(format!("  pinned: {pinned:?}\n  now:    {line}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "{scenario}: behaviour drifted from tests/sameness.digests\n{}",
        drifted.join("\n")
    );
}

#[test]
fn same_lossy_shrunk_mask_8_88() {
    assert_same("lossy-8:88", 8, 0x88, ChaosConfig::small_lossy(20), &[]);
}

#[test]
fn same_lossy_shrunk_mask_15_5ee() {
    assert_same("lossy-15:5ee", 15, 0x5ee, ChaosConfig::small_lossy(20), &[]);
}

#[test]
fn same_partition_island_split_seed_26() {
    assert_same(
        "partition-26",
        26,
        u64::MAX,
        ChaosConfig::small_partition(),
        &[],
    );
}

#[test]
fn same_nic_flap_seed_4() {
    assert_same("nic-flap-4", 4, u64::MAX, ChaosConfig::small_lossy(20), &[]);
}

#[test]
fn same_lossy_seed_178() {
    assert_same(
        "lossy-178",
        178,
        u64::MAX,
        ChaosConfig::small_lossy(20),
        &[],
    );
}

#[test]
fn same_quorum_even_split_seed_21() {
    assert_same("quorum-21", 21, u64::MAX, ChaosConfig::small_quorum(), &[]);
}

#[test]
fn same_slow_double_gray_seed_1() {
    assert_same("slow-1", 1, u64::MAX, ChaosConfig::small_slow(), &[]);
}

#[test]
fn same_small_seed_3() {
    assert_same("small-3", 3, u64::MAX, ChaosConfig::small(), &[]);
}

#[test]
fn same_partition_all_frozen_reseed_seed_63() {
    assert_same(
        "partition-63",
        63,
        u64::MAX,
        ChaosConfig::small_partition(),
        &["gsd.regroup.freezes"],
    );
}

#[test]
fn same_partition_frozen_rejoin_seed_12() {
    assert_same(
        "partition-12",
        12,
        u64::MAX,
        ChaosConfig::small_partition(),
        &["gsd.regroup.freezes"],
    );
}

#[test]
fn same_quorum_dead_discount_reseed_seed_61() {
    assert_same(
        "quorum-61",
        61,
        u64::MAX,
        ChaosConfig::small_quorum(),
        &["gsd.regroup.dead_discounts", "gsd.regroup.freezes"],
    );
}

#[test]
fn same_quorum_witness_failover_seed_45() {
    assert_same(
        "quorum-45",
        45,
        u64::MAX,
        ChaosConfig::small_quorum(),
        &["gsd.regroup.witness_failover"],
    );
}

#[test]
fn same_slow_gray_self_drain_seed_10() {
    assert_same(
        "slow-10",
        10,
        u64::MAX,
        ChaosConfig::small_slow(),
        &["gsd.slow.drains"],
    );
}

#[test]
fn same_quorum_witness_reseed_seed_388() {
    assert_same(
        "quorum-388",
        388,
        u64::MAX,
        ChaosConfig::small_quorum(),
        &["gsd.regroup.freezes"],
    );
}

#[test]
fn same_quorum_stale_joiner_seed_326() {
    assert_same(
        "quorum-326",
        326,
        u64::MAX,
        ChaosConfig::small_quorum(),
        &["gsd.regroup.dead_discounts", "gsd.regroup.freezes"],
    );
}
