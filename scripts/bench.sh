#!/usr/bin/env bash
# bench.sh — run the perf-tracked benchmark set and gate/record results.
#
#   scripts/bench.sh run [count]       # run benchmarks, print + save output
#   scripts/bench.sh check [count]     # run, then gate allocs/op + B/op
#                                      # against BENCH_PR12.json (wall-clock is
#                                      # machine-dependent, so it is NOT gated
#                                      # against the committed baseline)
#   scripts/bench.sh record [count]    # run count>=3 times, rewrite
#                                      # BENCH_PR12.json from the per-benchmark
#                                      # MINIMUM (noise only ever adds time)
#   scripts/bench.sh compare OLD NEW   # diff two saved bench outputs
#                                      # (10% ns/op + allocs/op thresholds,
#                                      # plus a geomean summary row)
#
# The tracked set is the micro-benchmarks plus the end-to-end throughput
# benchmarks on both event engines (BenchmarkSuiteFig11Serial vs
# BenchmarkSuiteFig11PDES8 is the parallel core's single-simulation speedup)
# and on the warmup-checkpoint path (BenchmarkSuiteFig11Warmup vs
# BenchmarkSuiteFig11Checkpointed is the warmup-sharing speedup); see
# BENCH_PR12.json for the committed baseline and DESIGN.md "Engine internals &
# profiling" / "Checkpoint format & forking" for how these numbers are used.
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN='^(BenchmarkEventEngine|BenchmarkIRMBInsertLookup|BenchmarkZipfSampling|BenchmarkSimulatePageRank|BenchmarkSuiteFig11Serial|BenchmarkSuiteFig11PDES8|BenchmarkSuiteFig11Warmup|BenchmarkSuiteFig11Checkpointed)$'
BASELINE=BENCH_PR12.json
OUT=${BENCH_OUT:-/tmp/idyll_bench.txt}

run_bench() {
    local count=${1:-5}
    # -count gives benchdiff repeated runs to collapse (median when
    # comparing, minimum when recording), which is what makes the wall-clock
    # numbers usable on shared machines.
    go test -run '^$' -bench "$PATTERN" -benchmem -count "$count" . | tee "$OUT"
}

case "${1:-run}" in
run)
    run_bench "${2:-5}"
    echo "saved to $OUT"
    ;;
check)
    run_bench "${2:-5}"
    echo
    echo "== gate: allocs/op + B/op vs $BASELINE =="
    go run ./cmd/benchdiff -time -1 -bytes 0.10 -require "$BASELINE" "$OUT"
    ;;
record)
    # A baseline must come from repeated runs: a single sample can freeze a
    # scheduling hiccup into the committed numbers. The PR6 baseline recorded
    # BenchmarkSuiteFig11PDES8 "slower" than Serial exactly this way — noise
    # from a low-core shared runner, not a PDES regression. Collapsing >= 3
    # runs to the per-benchmark minimum keeps that regime out of baselines:
    # interference only ever adds time, so the minimum is the cleanest
    # estimate a shared machine can give.
    count=${2:-5}
    if [ "$count" -lt 3 ]; then
        echo "record: need count >= 3 (got $count) — fewer runs bake scheduler noise into the baseline" >&2
        exit 2
    fi
    run_bench "$count"
    go run ./cmd/benchdiff -min \
        -note "recorded by scripts/bench.sh record: per-benchmark minimum of $count runs. Allocation counts are deterministic and CI-gated; ns/op is machine-specific context only — judge wall-clock with same-machine back-to-back runs (benchdiff -fail-over), never against this file. On a host with few cores SuiteFig11PDES8 can record slower than Serial: its workers have no spare cores to run on (ROADMAP, \"The PDES executor\")." \
        -emit "$BASELINE" "$OUT"
    ;;
compare)
    [ $# -eq 3 ] || { echo "usage: $0 compare OLD NEW" >&2; exit 2; }
    go run ./cmd/benchdiff "$2" "$3"
    ;;
*)
    echo "usage: $0 {run|check|record|compare} ..." >&2
    exit 2
    ;;
esac
