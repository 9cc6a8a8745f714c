#!/bin/sh
# Repo verification: tier-1 (build + tests), then every smoke run of the
# bench and chaos binaries, driven by one table.
#
#   sh scripts/verify.sh
#
# Each table row runs one binary and names the report it writes, the
# needles that must appear in it (an `out:` needle is looked for in the
# binary's output instead), and extra gates:
#
#   fresh     the report must come out byte-identical to the committed
#             file (`git diff --exit-code`): every seeded run is
#             deterministic, so any difference is a behaviour change;
#   parallel  re-run without --serial on 4 forced sweep threads; the
#             report must be byte-identical to the serial one (`cmp`);
#   speedup   on a multi-core machine the parallel re-run must be more
#             than 1.5x faster than the serial run;
#   exercise  the service-exercise pass shares one booted world and
#             stays under 10 s;
#   wheel     on a multi-core machine the timer wheel must beat the heap
#             by more than 1.5x, and its events/sec must be at least 1.10x
#             the committed baseline (results/BENCH_events_baseline.json:
#             the wheel throughput of the last change that claimed a
#             scheduler win, so a regression floor, not a ratchet).
#
# Every binary's exit status is a gate too: each exits non-zero on the
# failures it checks (chaos: any invariant violation, printed with a
# shrunk `--replay SEED:MASKHEX` reproducer; the sweeps: spurious
# takeovers, double leaders, false-dead verdicts, ...).
#
# The heap and wheel schedulers are proven to drive whole chaos runs
# identically by tests/differential.rs, part of tier-1.

set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cores=$(nproc 2>/dev/null || echo 1)

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

# run NAME PACKAGE BIN ARGS...: run a release binary with its output in
# $tmp/NAME.out, failing on a non-zero exit.
run() {
    out=$tmp/$1.out run_pkg=$2 run_bin=$3
    shift 3
    status=0
    cargo run --release --offline -q -p "$run_pkg" --bin "$run_bin" -- "$@" \
        > "$out" 2>&1 < /dev/null || status=$?
    cat "$out"
    [ "$status" -eq 0 ] || fail "$run_bin $* exited with status $status"
}

# wall_ms FILE: the wall-clock milliseconds of a sweep's summary line.
wall_ms() {
    sed -n 's/.*sweep: [0-9]* [a-z]* on [0-9]* thread(s), \([0-9]*\) ms wall/\1/p' "$1"
}

# faster_than X A B: does A / B exceed X? (always true on one core)
faster_than() {
    [ "$cores" -lt 2 ] && return 0
    awk "BEGIN { exit !($2 / ($3 + 0.001) > $1) }"
}

gate_parallel() {
    cp "$report" "$tmp/$name.serial.json"
    # shellcheck disable=SC2086 # $args is a word list
    set -- $(echo " $args " | sed 's/ --serial / /')
    export PHOENIX_SWEEP_THREADS=4
    run "$name.parallel" "$pkg" "$bin" "$@"
    unset PHOENIX_SWEEP_THREADS
    cmp "$report" "$tmp/$name.serial.json" ||
        fail "parallel $report differs from serial (determinism gate)"
}

gate_speedup() {
    serial_ms=$(wall_ms "$tmp/$name.out")
    par_ms=$(wall_ms "$tmp/$name.parallel.out")
    [ -n "$serial_ms" ] && [ -n "$par_ms" ] || fail "sweep wall-clock lines missing from $bin output"
    echo "$bin wall-clock: serial $serial_ms ms, parallel $par_ms ms ($cores core(s))"
    faster_than 1.5 "$serial_ms" "$par_ms" ||
        fail "$bin parallel speedup <= 1.5 on a $cores-core machine"
}

gate_exercise() {
    ms=$(sed -n 's/.*exercise pass: 1 world.*, \([0-9]*\) ms wall/\1/p' "$tmp/$name.out")
    [ -n "$ms" ] && [ "$ms" -lt 10000 ] || fail "exercise pass took ${ms:-?} ms (speedup regressed)"
}

gate_wheel() {
    heap_ms=$(sed -n 's/.*event_core wall-clock: heap \([0-9]*\) ms.*/\1/p' "$tmp/$name.out")
    wheel_ms=$(sed -n 's/.*event_core wall-clock: heap [0-9]* ms, wheel \([0-9]*\) ms.*/\1/p' "$tmp/$name.out")
    [ -n "$heap_ms" ] && [ -n "$wheel_ms" ] || fail "event_core wall-clock line missing from output"
    faster_than 1.5 "$heap_ms" "$wheel_ms" ||
        fail "wheel speedup over heap <= 1.5 on a $cores-core machine"
    eps='s/.*"wheel_events_per_sec": \([0-9.]*\).*/\1/p'
    base=$(sed -n "$eps" results/BENCH_events_baseline.json)
    fresh=$(sed -n "$eps" "$report")
    [ -n "$base" ] && [ -n "$fresh" ] || fail "wheel_events_per_sec missing from baseline or fresh results"
    echo "wheel events/sec: fresh $fresh vs baseline $base (need >= 1.10x)"
    awk "BEGIN { exit !($fresh >= 1.10 * $base) }" ||
        fail "wheel events/sec $fresh < 1.10 * baseline $base"
}

# stage NAME PACKAGE BIN ARGS REPORT NEEDLES GATES: one table row.
stage() {
    name=$1 pkg=$2 bin=$3 args=$4 report=$5 needles=$6 gates=$7
    echo "== $bin $args =="
    [ -z "$report" ] || rm -f "$report"
    # shellcheck disable=SC2086 # $args is a word list
    run "$name" "$pkg" "$bin" $args
    [ -z "$report" ] || [ -s "$report" ] || fail "$report missing or empty"
    old_ifs=$IFS
    IFS=';'
    for needle in $needles; do
        case $needle in
        out:*) grep -qF -- "${needle#out:}" "$tmp/$name.out" ||
            fail "'${needle#out:}' not found in $bin output" ;;
        *) grep -qF -- "\"$needle\"" "$report" || fail "\"$needle\" not found in $report" ;;
        esac
    done
    IFS=$old_ifs
    for gate in $gates; do
        case $gate in
        fresh) git --no-pager diff --exit-code --stat -- "$report" ||
            fail "$report differs from the committed file" ;;
        *) "gate_$gate" ;;
        esac
    done
}

echo "== tier-1: cargo build --release =="
cargo build --release --offline

echo "== tier-1: cargo test -q =="
cargo test -q --offline

# name|package|bin|args|report|needles (;-separated)|gates
while IFS='|' read -r name pkg bin args report needles gates; do
    case $name in '' | '#'*) continue ;; esac
    stage "$name" "$pkg" "$bin" "$args" "$report" "$needles" "$gates"
done << 'EOF'
# Telemetry export; trace-mined rows cross-checked against the histograms.
table1|phoenix-bench|table1_wd|--small|results/BENCH_kernel.json|p50_ns;p99_ns;wd.heartbeat.flight;counters;table1;out:telemetry cross-check;out:exercise pass: 1 world|fresh exercise
# 25 seeded fault schedules, each on its own telemetry shard.
chaos|phoenix-chaos|chaos|--seeds 25 --small --report|results/BENCH_chaos.json|schedules_run;faults_injected;violating_schedules;shrink;schedules|fresh
# 2% baseline loss plus generated loss bursts, loss-tolerant kernel.
lossy|phoenix-chaos|chaos|--seeds 25 --lossy 20|||
# Zero spurious takeovers at every loss rate.
loss|phoenix-bench|loss_sweep|--small --serial|results/BENCH_loss.json|loss_curve;spurious_takeovers;detect_ms_mean;net_loss_dropped|fresh parallel speedup
# The pinned flapping-NIC storm, replayed end to end.
flap|phoenix-chaos|chaos|--lossy 20 --replay 4||out:NicDegrade|
# NIC 0 degraded only: zero spurious takeovers, detection within 25%.
nic|phoenix-bench|nic_asymmetry|--small --serial|results/BENCH_nic.json|nic_curve;spurious_takeovers;detect_ratio_vs_clean;worst_detect_ratio;nic0_routed_share|fresh parallel
# Island storms with split-brain invariants sampled during the splits.
partition|phoenix-chaos|chaos|--seeds 25 --partition|||
# Zero double leaders, every minority frozen, every heal converged.
partition_sweep|phoenix-bench|partition_sweep|--small --serial|results/BENCH_partition.json|episodes;double_leader_instants;freeze_ms;dir_converge_ms;unfrozen_minorities|fresh parallel
# Even splits of the 4x3 witness testbed under the weighted invariants.
quorum|phoenix-chaos|chaos|--seeds 25 --quorum|||
# Zero double-leader or both-frozen instants, every split decided.
quorum_sweep|phoenix-bench|quorum_sweep|--small --serial|results/BENCH_quorum.json|double_leader_instants;both_frozen_instants;undecided_splits;availability_mean;takeover_adaptive_ms_mean;takeover_fixed31_ms_mean|fresh parallel
# Slow-node episodes under slow-not-dead and quarantine convergence.
slow|phoenix-chaos|chaos|--seeds 25 --slow|||
# Zero false-dead verdicts; every episode drained, yielded, reinstated.
slow_sweep|phoenix-bench|slow_sweep|--small --serial|results/BENCH_slow.json|false_dead_diagnoses;unyielded_leader_episodes;unreinstated_episodes;suspect_ms_mean;factor_permille;curve|fresh parallel
# Raw scheduler throughput, heap vs timer wheel.
event_core|phoenix-bench|event_core|--small|results/BENCH_events.json|heap_events_per_sec;wheel_events_per_sec;speedup|wheel
EOF

echo "verify: OK"
