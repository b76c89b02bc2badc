package workload

import (
	"fmt"

	"duet/internal/cluster"
	"duet/internal/sched"
	"duet/internal/sim"
	"duet/internal/study"
	"duet/internal/telemetry"
)

// This file implements the sharded study behind `duetsim cluster`: the
// Serve arrival stream dispatched across N independent serve replicas by
// a deterministic front end. It is the scale axis past one System: per
// (seed, shards, front end, policy, backend) the merged result is
// byte-identical across runs regardless of goroutine interleaving, and a
// 1-shard cluster reproduces workload.Serve exactly.

// ClusterConfig parameterizes one sharded serve run. The embedded
// ServeConfig describes every replica (eFPGAs, hubs, scheduler policy,
// execution backend) and the shared arrival stream (jobs, seed, mean
// gap).
type ClusterConfig struct {
	ServeConfig
	Shards   int              // independent replicas (default 2)
	FrontEnd cluster.FrontEnd // arrival-routing policy
}

// ClusterResult is the outcome of one sharded serve run.
type ClusterResult struct {
	Policy   sched.Policy
	Backend  BackendMode
	FrontEnd cluster.FrontEnd
	Shards   int
	Offered  int
	Merged   sched.Stats // exact-quantile merge across shards
	PerShard []cluster.ShardResult

	// Rerouted and Hedged count the front end's fault-pass actions
	// (zero without a fault plan; omitted from JSON to keep fault-free
	// study output byte-identical to earlier releases).
	Rerouted int `json:",omitempty"`
	Hedged   int `json:",omitempty"`

	// Windows is the cluster-wide flight-recorder series (nil unless
	// ServeConfig.Windows > 0): per-shard recorders merged exactly in
	// shard order, then snapshotted one row per window.
	Windows []telemetry.WindowRow `json:"Windows,omitempty"`
}

// ServeCluster plays the seeded open-loop workload through a sharded
// serve farm and reports the merged statistics. The arrival stream is
// consumed straight from the generator through cluster.RunSource —
// never materialized — so a billion-job study runs at the same peak
// memory as a million-job one. Results are byte-identical to a replay
// of the same stream drawn up front, which property tests pin.
func ServeCluster(cfg ClusterConfig) (ClusterResult, error) {
	cfg = cfg.normalized()
	src := NewArrivalSource(cfg.ServeConfig)
	var width sim.Time
	if cfg.Windows > 0 {
		// Closed-form span from the generator (one extra O(1)-memory
		// pass), not stream[len-1].At — same value, no stream.
		width = spanWidth(src.Span(), cfg.Windows)
	}
	res, err := cluster.RunSource(cfg.clusterConfig(width), src)
	if err != nil {
		return ClusterResult{}, err
	}
	return cfg.result(res), nil
}

// normalized applies defaults.
func (cfg ClusterConfig) normalized() ClusterConfig {
	cfg.ServeConfig = cfg.ServeConfig.withDefaults()
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	return cfg
}

// clusterConfig renders the cluster-level run config; width is the
// telemetry window width every shard must share.
func (cfg ClusterConfig) clusterConfig(width sim.Time) cluster.Config {
	ccfg := cluster.Config{
		Shards:   cfg.Shards,
		FrontEnd: cfg.FrontEnd,
		Seed:     cfg.Seed,
		Progress: cfg.ServeConfig.Progress,
		// The serve replica draws nothing locally (arrivals come from
		// the shared stream, accelerators are inert stubs), so the derived
		// per-shard seed is accepted but unused.
		NewReplica: func(shard int, seed int64) (cluster.Replica, error) {
			return newServeReplica(cfg.ServeConfig, shard, width)
		},
	}
	if cfg.Faults != nil {
		// The front end routes against each shard's *effective* outage
		// schedule — its own windows merged with its failure domains' — so
		// a domain event reroutes and hedges like any direct shard crash.
		ccfg.Faults = &cluster.FaultSpec{
			ShardDown:   cfg.Faults.EffectiveShardDown(cfg.Shards),
			Hedge:       cfg.Faults.Hedge,
			RecoverHold: cfg.Faults.RecoverHold,
		}
	}
	return ccfg
}

// result maps a cluster-level result onto the study's record shape.
func (cfg ClusterConfig) result(res cluster.Result) ClusterResult {
	cr := ClusterResult{
		Policy:   cfg.Policy,
		Backend:  cfg.Backend,
		FrontEnd: res.FrontEnd,
		Shards:   res.Shards,
		Offered:  res.Offered,
		Merged:   res.Merged,
		PerShard: res.PerShard,
		Rerouted: res.Rerouted,
		Hedged:   res.Hedged,
	}
	if res.Windows != nil {
		cr.Windows = res.Windows.Series()
	}
	return cr
}

// ClusterStudy runs one ServeCluster per config on a parallel-wide study
// pool (<= 0 selects GOMAXPROCS), results in config order. Each point
// spawns its own shard goroutines inside its pool slot; the first error
// by config order wins, matching the sequential run.
func ClusterStudy(parallel int, cfgs []ClusterConfig) ([]ClusterResult, error) {
	type out struct {
		res ClusterResult
		err error
	}
	pts := study.Map(parallel, cfgs, func(c ClusterConfig) out {
		r, err := ServeCluster(c)
		return out{r, err}
	})
	results := make([]ClusterResult, len(pts))
	for i, p := range pts {
		if p.err != nil {
			return nil, fmt.Errorf("cluster study point %d: %w", i, p.err)
		}
		results[i] = p.res
	}
	return results, nil
}
