#!/bin/sh
# bench.sh — run the committed benchmark set and snapshot or gate it.
#
#   scripts/bench.sh         # refresh BENCH_duetsim.json from a fresh run
#   scripts/bench.sh check   # fail past +30% ns/op or +16 allocs/op
#
# The set covers the two layers PERF.md tracks: the sim-kernel hot path
# (engine scheduling, clock ticks, same-instant bursts, thread wakeups)
# and the serve studies on both execution backends — the materialized 1M
# runs plus the 100M-job streaming-pipeline capacity run. -benchtime 1x
# on the serve benches: one deterministic run is the measurement,
# iterating it would only multiply CI time. -benchmem records allocs/op,
# which the snapshot gates next to ns/op.
set -eu
cd "$(dirname "$0")/.."

run_benches() {
    go test -run '^$' -bench 'BenchmarkEngineSchedule$|BenchmarkEngineClockTicks$|BenchmarkEngineSameInstantBurst$|BenchmarkThreadPingPong$' -benchtime 200000x -benchmem ./internal/sim
    go test -run '^$' -bench 'BenchmarkServeModel1M$|BenchmarkServeModel100M$|BenchmarkServeStream1M$|BenchmarkServeFaultFree$|BenchmarkServeRecovery$' -benchtime 1x -benchmem -timeout 30m .
}

case "${1:-snapshot}" in
snapshot)
    run_benches | go run ./cmd/benchsnap -out BENCH_duetsim.json
    ;;
check)
    run_benches | go run ./cmd/benchsnap -check BENCH_duetsim.json
    ;;
*)
    echo "usage: scripts/bench.sh [snapshot|check]" >&2
    exit 2
    ;;
esac
