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
// (seed, shards, front end, policy, backend, shard specs) the merged
// result is byte-identical across runs regardless of goroutine
// interleaving, and a 1-shard cluster reproduces workload.Serve exactly.
//
// Shards need not be replicas of one another: ShardSpecs gives each
// shard its own backend mode, fabric count and soft-CPU pool, and the
// front ends route by each shard's own catalog model — a heterogeneous
// serve farm (e.g. cycle-level shards fronting a model-backend overflow
// tier, or big and small fabric pools side by side).

// ShardSpec overrides one shard's build in a heterogeneous cluster.
// Backend is absolute (its zero value is BackendCycle); the other
// zero-valued fields inherit the cluster's base ServeConfig.
type ShardSpec struct {
	Backend  BackendMode
	EFPGAs   int
	SoftCPUs int
	Policy   sched.Policy // effective only when SetPolicy is true
	// SetPolicy marks Policy as an override (sched.FIFO is a valid
	// policy and the zero value, so presence needs an explicit flag).
	SetPolicy bool
}

// ClusterConfig parameterizes one sharded serve run. The embedded
// ServeConfig describes each replica (eFPGAs, hubs, scheduler policy,
// execution backend) and the shared arrival stream (jobs, seed, mean
// gap); ShardSpecs, when non-empty, overrides per-shard builds.
type ClusterConfig struct {
	ServeConfig
	Shards   int              // independent replicas (default 2)
	FrontEnd cluster.FrontEnd // arrival-routing policy

	// ShardSpecs makes the cluster heterogeneous: spec i overrides shard
	// i's backend/fabric-count/soft-CPU/policy configuration. Must be
	// empty or exactly Shards long.
	ShardSpecs []ShardSpec

	// Handoff bounds the streaming pipeline's per-shard hand-off buffer
	// under the stateful front ends (see cluster.Config.Handoff); <= 0
	// selects cluster.DefaultHandoff. Memory/overlap knob only — results
	// are identical at every bound.
	Handoff int
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

// shardConfig resolves shard i's ServeConfig under cfg's specs.
func (cfg ClusterConfig) shardConfig(shard int) ServeConfig {
	sc := cfg.ServeConfig
	if len(cfg.ShardSpecs) == 0 {
		return sc
	}
	spec := cfg.ShardSpecs[shard]
	sc.Backend = spec.Backend
	if spec.EFPGAs > 0 {
		sc.EFPGAs = spec.EFPGAs
	}
	if spec.SoftCPUs > 0 {
		sc.SoftCPUs = spec.SoftCPUs
	}
	if spec.SetPolicy {
		sc.Policy = spec.Policy
	}
	return sc.withDefaults()
}

// ServeCluster plays the seeded open-loop workload through a sharded
// serve farm and reports the merged statistics. The arrival stream is
// consumed straight from the generator through cluster.RunSource —
// never materialized — so a billion-job study runs at the same peak
// memory as a million-job one. Results are byte-identical to
// ServeClusterOver over the same materialized Arrivals, which property
// tests pin.
func ServeCluster(cfg ClusterConfig) (ClusterResult, error) {
	var err error
	if cfg, err = cfg.normalized(); err != nil {
		return ClusterResult{}, err
	}
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

// ServeClusterOver is ServeCluster over a caller-provided materialized
// arrival stream (see Arrivals), played through cluster.NewSliceSource —
// benchmarks use it to keep stream generation outside their timed
// region. Replicas copy each arrival's job, so the stream is left
// untouched and may be replayed.
func ServeClusterOver(cfg ClusterConfig, stream []cluster.Arrival) (ClusterResult, error) {
	var err error
	if cfg, err = cfg.normalized(); err != nil {
		return ClusterResult{}, err
	}
	// One width for every shard, derived from the shared stream, so the
	// per-shard window series align index for index in the merge.
	width := windowWidth(stream, cfg.Windows)
	res, err := cluster.RunSource(cfg.clusterConfig(width), cluster.NewSliceSource(stream))
	if err != nil {
		return ClusterResult{}, err
	}
	return cfg.result(res), nil
}

// normalized applies defaults and validates the shard-spec shape.
func (cfg ClusterConfig) normalized() (ClusterConfig, error) {
	cfg.ServeConfig = cfg.ServeConfig.withDefaults()
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if len(cfg.ShardSpecs) != 0 && len(cfg.ShardSpecs) != cfg.Shards {
		return cfg, fmt.Errorf("workload: %d shard specs for %d shards", len(cfg.ShardSpecs), cfg.Shards)
	}
	return cfg, nil
}

// clusterConfig renders the cluster-level run config; width is the
// telemetry window width every shard must share.
func (cfg ClusterConfig) clusterConfig(width sim.Time) cluster.Config {
	ccfg := cluster.Config{
		Shards:   cfg.Shards,
		FrontEnd: cfg.FrontEnd,
		Seed:     cfg.Seed,
		Handoff:  cfg.Handoff,
		Progress: cfg.ServeConfig.Progress,
		// The serve replica draws nothing locally (arrivals are
		// pre-generated, accelerators are inert stubs), so the derived
		// per-shard seed is accepted but unused.
		NewReplica: func(shard int, seed int64) (cluster.Replica, error) {
			return newServeReplica(cfg.shardConfig(shard), shard, true, true, width)
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
