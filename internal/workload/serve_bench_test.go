package workload

import (
	"runtime"
	"testing"

	"duet/internal/cluster"
	"duet/internal/faults"
	"duet/internal/sched"
	"duet/internal/sim"
)

// serveStream1MConfig is the shared 1M-job cluster study behind
// BenchmarkServeStream1M (cycle backend) and BenchmarkServeModel1M
// (analytic model backend): identical arrival stream, shards, front end
// and streaming digests, differing only in the execution backend —
// PERF.md's model-vs-cycle speedup comparison.
func serveStream1MConfig(be BackendMode) ClusterConfig {
	return ClusterConfig{
		ServeConfig: ServeConfig{
			Policy: sched.FIFO, Jobs: 1_000_000, Seed: 1, MeanGapUS: 30,
			QueueCap: 4096, Stats: sched.StatsStreaming, Backend: be,
		},
		Shards:   4,
		FrontEnd: cluster.RoundRobin,
	}
}

// benchReplay1M replays cfg's 1M-job stream through the cluster once per
// iteration and hands each result to check. The stream (~100 ms to draw)
// is drawn outside the timed region, so the metric isolates replica
// construction and simulation; TestServeClusterStreamingMatchesMaterialized
// pins the replay to ServeCluster's own generator-fed run. The run only
// reads the stream, so one draw serves every iteration, and GC debt is
// flushed off the clock, so the timed region carries only the run's own
// allocation behaviour.
func benchReplay1M(b *testing.B, cfg ClusterConfig, check func(ClusterResult)) {
	stream := drawArrivals(cfg.ServeConfig)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		r, err := serveClusterReplay(cfg, stream)
		if err != nil {
			b.Fatal(err)
		}
		check(r)
	}
}

// benchServe1M runs the 1M-job cluster study at the given backend.
func benchServe1M(b *testing.B, be BackendMode) {
	var digestBytes, p99 float64
	benchReplay1M(b, serveStream1MConfig(be), func(r ClusterResult) {
		if r.Merged.Completed != 1_000_000 {
			b.Fatalf("completed %d of 1M", r.Merged.Completed)
		}
		digestBytes = 0
		for _, s := range r.PerShard {
			if m := float64(s.Digest.MemoryBytes()); m > digestBytes {
				digestBytes = m
			}
		}
		p99 = float64(r.Merged.P99)
	})
	b.ReportMetric(digestBytes, "max-shard-digest-B")
	b.ReportMetric(p99, "p99-ps")
}

// BenchmarkServeStream1M is the streaming-stats acceptance run: one
// million offered jobs through a 4-shard cycle-backend cluster with
// fixed-memory digests. Per-shard stats memory (the digest table) must
// stay in the tens of kilobytes however far the job count grows; the
// exact-mode equivalent would retain 8 MB of raw samples per million
// jobs.
func BenchmarkServeStream1M(b *testing.B) { benchServe1M(b, BackendCycle) }

// BenchmarkServeModel1M is the same 1M-job cluster study on the
// calibrated analytic model backend — statistically identical output
// (see the xval gate) at a fraction of the cost, the fast path for
// capacity-planning sweeps. PERF.md records the measured speedup over
// BenchmarkServeStream1M.
func BenchmarkServeModel1M(b *testing.B) { benchServe1M(b, BackendModel) }

// BenchmarkServeModel100M is the capacity-planning run: one hundred
// million offered jobs through the same 4-shard model-backend cluster,
// through ServeCluster itself with arrival generation inside the timed
// region — the streaming path fuses generation into the run, so there
// is no stream to pre-draw off the clock. Peak memory stays flat at any
// job count (PERF.md records the measured capacity ceiling); the
// snapshot entry gates the fused pipeline's per-job cost end to end.
func BenchmarkServeModel100M(b *testing.B) {
	const jobs = 100_000_000
	cfg := serveStream1MConfig(BackendModel)
	cfg.ServeConfig.Jobs = jobs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := ServeCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.Merged.Completed != jobs {
			b.Fatalf("completed %d of 100M", r.Merged.Completed)
		}
	}
	b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkServeFaultFree is BenchmarkServeModel1M with a fault plan
// that injects nothing wired in: the injection seam installed on every
// worker (wrapper dispatch, scheduler fault checks) but never firing.
// Its snapshot entry gates the seam's fault-free overhead — the wrapped
// hot path may not regress more than the CI bench gate's 30% against
// the baseline recorded in BENCH_duetsim.json.
func BenchmarkServeFaultFree(b *testing.B) {
	cfg := serveStream1MConfig(BackendModel)
	cfg.Faults = &faults.Plan{}
	benchReplay1M(b, cfg, func(r ClusterResult) {
		if r.Merged.Completed != 1_000_000 {
			b.Fatalf("completed %d of 1M", r.Merged.Completed)
		}
		if r.Merged.Wedges != 0 || r.Merged.TimedOut != 0 || r.Merged.Unavailable != 0 {
			b.Fatalf("zero plan injected faults: %+v", r.Merged)
		}
	})
}

// BenchmarkServeRecovery is the repair-path cost run: the 1M-job
// model-backend study under a live wedge/repair cycle — fabrics wedge,
// quarantine, and return on probation throughout the run. Its snapshot
// entry gates the recovery machinery (repair scheduling, scrub,
// probationary reprogram, quarantine bookkeeping) with the same >30%
// regression check the fault-free seam gets.
func BenchmarkServeRecovery(b *testing.B) {
	cfg := serveStream1MConfig(BackendModel)
	cfg.Faults = &faults.Plan{
		Seed: 1, WedgeProb: 0.002, MaxRetries: 2,
		RepairDelay: 500 * sim.US,
	}
	benchReplay1M(b, cfg, func(r ClusterResult) {
		if r.Merged.Wedges == 0 || r.Merged.Repairs == 0 {
			b.Fatalf("recovery plan exercised nothing: %+v", r.Merged)
		}
	})
}
