#!/bin/sh
# bench.sh — run the committed benchmark set and snapshot or gate it.
#
#   scripts/bench.sh         # refresh BENCH_duetsim.json from a fresh run
#   scripts/bench.sh check   # fail past +30% ns/op or +16 allocs/op
#
# The set covers the sim-kernel hot path (engine scheduling, clock
# ticks, same-instant bursts, thread wakeups), seven per-layer benches at
# -count 5, of which the gate keeps the fastest — one entry's CDC
# crossing (fast to slow, through a Drain consumer), the stateful front
# ends' producer hand-off on its own (1M arrivals onto two counting
# shards), sched dispatch (1M pre-built requests through Submit on one
# 2-fabric affinity model replica, at a mostly-empty queue and at a
# saturated one), one round of coherence transactions (load miss,
# S→M upgrade, AMO) on a two-cache domain, 200 MCS lock handoffs
# among four cycle-level cores and one MMIO write+read round trip to a
# shadow register — and the serve studies in
# internal/workload on both execution backends — the 1M runs, which
# replay a stream drawn outside the timed region, plus the 100M-job
# streaming-pipeline capacity run. -benchtime 1x on the serve
# benches: one deterministic run is the measurement, iterating it would
# only multiply CI time. -benchmem records allocs/op, which the snapshot
# gates next to ns/op.
set -eu
cd "$(dirname "$0")/.."

run_benches() {
    go test -run '^$' -bench 'BenchmarkEngineSchedule$|BenchmarkEngineClockTicks$|BenchmarkEngineSameInstantBurst$|BenchmarkThreadPingPong$' -benchtime 200000x -benchmem ./internal/sim
    go test -run '^$' -bench 'BenchmarkCDCCrossing$' -count 5 -benchmem ./internal/cdc
    go test -run '^$' -bench 'BenchmarkRunSourceHandoff$' -count 5 -benchmem ./internal/cluster
    go test -run '^$' -bench 'BenchmarkSchedSubmit$|BenchmarkSchedBacklog$' -count 5 -benchmem ./internal/model
    go test -run '^$' -bench 'BenchmarkCoherenceMiss$' -count 5 -benchmem ./internal/coherence
    go test -run '^$' -bench 'BenchmarkMCSContention$' -count 5 -benchmem ./internal/cpu
    go test -run '^$' -bench 'BenchmarkMMIORoundTrip$' -count 5 -benchmem .
    go test -run '^$' -bench 'BenchmarkServeModel1M$|BenchmarkServeModel100M$|BenchmarkServeStream1M$|BenchmarkServeFaultFree$|BenchmarkServeRecovery$' -benchtime 1x -benchmem -timeout 30m ./internal/workload
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
