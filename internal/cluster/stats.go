package cluster

import (
	"fmt"
	"slices"

	"duet/internal/sched"
	"duet/internal/sim"
)

// Merge folds per-shard results into one cluster-wide sched.Stats.
//
// Counters sum; the makespan is the latest completion instant across
// shards (every shard simulates the same global arrival timeline, so the
// axes line up); throughput and means are recomputed from exact totals.
// Latency quantiles are merged exactly: the per-job sojourn samples of
// every shard are pooled and ranked over the full population — merging
// pre-binned per-shard p50/p99 values would be approximate and
// order-dependent, pooling raw samples is neither. Shards harvested in
// streaming-stats mode carry a fixed-memory sched.Digest instead of raw
// samples; digests merge by elementwise bucket addition, which is also
// order-independent, at the digest's documented relative value error.
//
// With a single shard the merge is the identity on its Stats, which is
// what ties the cluster's determinism contract back to workload.Serve.
// Drive builds that Stats from the same samples (sched.Scheduler.Stats),
// so Merge returns it as is rather than pooling and re-sorting a copy.
func Merge(shards []ShardResult) sched.Stats {
	if len(shards) == 1 {
		m := shards[0].Stats
		m.Fabrics = slices.Clone(m.Fabrics)
		return m
	}
	var m sched.Stats
	var sojourns []sim.Time
	var digest *sched.Digest
	var waits, services sim.Time
	for _, s := range shards {
		m.Counters.Add(&s.Stats.Counters)
		m.Makespan = max(m.Makespan, s.Stats.Makespan)
		sojourns = append(sojourns, s.Sojourns...)
		if s.Digest != nil {
			if digest == nil {
				digest = &sched.Digest{}
			}
			digest.Merge(s.Digest)
		}
		waits += s.WaitSum
		services += s.ServiceSum
	}
	if digest != nil {
		// Mixed modes (exact and streaming shards in one cluster) still
		// rank over the whole population: exact shards' raw samples fold
		// into the merged digest, at the digest's precision.
		for _, v := range sojourns {
			digest.Add(v)
		}
	}
	m.Summarize(sojourns, digest, waits, services)
	for si, s := range shards {
		for _, f := range s.Stats.Fabrics {
			// Prefix fabric names with their shard and rebase utilization
			// onto the cluster-wide makespan so every row shares one
			// denominator.
			f.Name = fmt.Sprintf("s%d/%s", si, f.Name)
			if m.Makespan > 0 {
				f.Utilization = float64(f.Busy) / float64(m.Makespan)
			}
			m.Fabrics = append(m.Fabrics, f)
		}
	}
	return m
}
