package workload

import (
	"fmt"

	"duet/internal/cluster"
	"duet/internal/faults"
	"duet/internal/sched"
	"duet/internal/sim"
	"duet/internal/study"
	"duet/internal/telemetry"
)

// This file is the deterministic chaos harness behind `duetsim chaos`:
// named fault scenarios — a seeded workload plus a seeded fault plan —
// each reducing to a small, fully deterministic outcome record. The
// scenarios are the repo's availability regression surface: their JSON
// outcomes are pinned as golden files, byte-identical at any study-pool
// width and across the cycle and model execution backends (the fault
// plan injects below the Backend seam, so both fail identically).

// ChaosResult is the outcome of one chaos scenario run — the merged
// cluster statistics reduced to the availability story. Field order is
// part of the golden-file contract.
type ChaosResult struct {
	Scenario string
	Shards   int
	Offered  int // arrivals offered, hedged duplicates included

	Completed int
	Failed    int
	Rejected  int

	// Failure sub-classes and fault-path counters (see sched.Stats).
	TimedOut    int
	Unavailable int
	Wedges      int
	Retries     int
	Quarantined int
	// Recovery counters (omitted when zero, so pre-recovery goldens keep
	// their bytes): repairs returning wedged fabrics to service, their
	// probationary failures, and the total time repaired fabrics spent
	// quarantined.
	Repairs        int      `json:",omitempty"`
	ProbationFails int      `json:",omitempty"`
	QuarantineTime sim.Time `json:",omitempty"`

	// Front-end fault-pass actions.
	Rerouted int
	Hedged   int

	DeadlineMisses int
	Goodput        int     // completions that met their deadline
	Availability   float64 // completed / offered

	P50      sim.Time
	P99      sim.Time
	Makespan sim.Time

	// Windows is the scenario's fault-telemetry series: per-window
	// wedge/retry/timeout/quarantine counts, goodput and utilization.
	Windows []telemetry.WindowRow `json:",omitempty"`
}

// ChaosScenarioNames lists the named scenarios in their canonical order.
func ChaosScenarioNames() []string {
	return []string{
		"wedge-storm", "shard-crash-rejoin", "deadline-burst",
		"quarantine-heal", "rack-outage", "flapping-fabric",
	}
}

// chaosConfig materializes a named scenario: workload and fault plan,
// with the execution backend left to the runner.
func chaosConfig(name string) (ClusterConfig, error) {
	switch name {
	case "wedge-storm":
		// Every fourth reprogram wedges its fabric; victims get two
		// retries and the Hybrid policy steers follow-on traffic to the
		// surviving fabrics and the CPU soft path as quarantines mount.
		return ClusterConfig{
			ServeConfig: ServeConfig{
				Policy: sched.Hybrid, EFPGAs: 2, SoftCPUs: 1,
				Jobs: 500, Seed: 7, MeanGapUS: 40, Windows: 6,
				Faults: &faults.Plan{Seed: 7, WedgeProb: 0.08, MaxRetries: 2},
			},
			Shards: 2, FrontEnd: cluster.RoundRobin,
		}, nil
	case "shard-crash-rejoin":
		// Shard 1 crashes mid-run and rejoins: queued jobs die, arrivals
		// reroute to healthy shards, and arrivals just ahead of the crash
		// are hedged onto a backup.
		return ClusterConfig{
			ServeConfig: ServeConfig{
				Policy: sched.Affinity, EFPGAs: 2,
				Jobs: 600, Seed: 11, MeanGapUS: 25, Windows: 6,
				Faults: &faults.Plan{
					Seed:      11,
					ShardDown: [][]sched.Downtime{nil, {{From: 4 * sim.MS, To: 9 * sim.MS}}},
					Hedge:     300 * sim.US,
				},
			},
			Shards: 3, FrontEnd: cluster.RoundRobin,
		}, nil
	case "deadline-burst":
		// An overload burst with deadline enforcement on: the queue
		// backs up and stale jobs are dropped as timed-out instead of
		// serving past their deadline.
		return ClusterConfig{
			ServeConfig: ServeConfig{
				Policy: sched.SJF, EFPGAs: 2,
				Jobs: 400, Seed: 3, MeanGapUS: 4, Windows: 6,
				Faults: &faults.Plan{Seed: 3, EnforceDeadlines: true},
			},
			Shards: 2, FrontEnd: cluster.RoundRobin,
		}, nil
	case "quarantine-heal":
		// Wedged fabrics come back: quarantine is transient under a
		// repair process, so the pool degrades, heals, and keeps serving
		// instead of ratcheting down to permanent losses.
		return ClusterConfig{
			ServeConfig: ServeConfig{
				Policy: sched.Affinity, EFPGAs: 2,
				Jobs: 500, Seed: 13, MeanGapUS: 40, Windows: 6,
				Faults: &faults.Plan{
					Seed: 13, WedgeProb: 0.12, MaxRetries: 2,
					RepairDelay: 500 * sim.US,
				},
			},
			Shards: 2, FrontEnd: cluster.RoundRobin,
		}, nil
	case "rack-outage":
		// A whole rack (shards 0 and 1) goes dark mid-run: the
		// health-weighted front end steers around the domain, and the
		// recovery hold ramps traffic back after the rejoin instead of
		// slamming the returning shards.
		return ClusterConfig{
			ServeConfig: ServeConfig{
				Policy: sched.Affinity, EFPGAs: 2,
				Jobs: 600, Seed: 17, MeanGapUS: 25, Windows: 6,
				Faults: &faults.Plan{
					Seed: 17,
					Domains: []faults.Domain{{
						Name: "rack0", Shards: []int{0, 1},
						Down: []sched.Downtime{{From: 3 * sim.MS, To: 8 * sim.MS}},
					}},
					Hedge:       300 * sim.US,
					RecoverHold: 2 * sim.MS,
				},
			},
			Shards: 4, FrontEnd: cluster.HealthWeighted,
		}, nil
	case "flapping-fabric":
		// One fabric wedges on every reprogram: each repair's probationary
		// re-reprogram wedges again, backoff stretches successive repair
		// delays, and the other fabric carries the shard meanwhile.
		return ClusterConfig{
			ServeConfig: ServeConfig{
				Policy: sched.Affinity, EFPGAs: 2,
				Jobs: 400, Seed: 23, MeanGapUS: 30, Windows: 6,
				Faults: &faults.Plan{
					Seed: 23, WedgeProbs: []float64{0.9, 0}, MaxRetries: 3,
					RepairDelay: 200 * sim.US,
				},
			},
			Shards: 2, FrontEnd: cluster.RoundRobin,
		}, nil
	}
	return ClusterConfig{}, fmt.Errorf("workload: unknown chaos scenario %q (have %v)", name, ChaosScenarioNames())
}

// ChaosOverride adjusts a named scenario's fault plan from the command
// line — the `duetsim chaos -repairdelay/-domains` knobs. The zero
// override changes nothing, so default runs keep their golden outcomes.
type ChaosOverride struct {
	// RepairDelay, when positive, installs (or retunes) the plan's repair
	// process: wedged fabrics return to service after seeded backoff
	// delays derived from it.
	RepairDelay sim.Time
	// Domains, when non-empty, replaces the plan's correlated failure
	// domains (see faults.ParseDomains for the flag syntax).
	Domains []faults.Domain
}

func (ov ChaosOverride) apply(plan *faults.Plan) {
	if ov.RepairDelay > 0 {
		plan.RepairDelay = ov.RepairDelay
	}
	if len(ov.Domains) > 0 {
		plan.Domains = ov.Domains
	}
}

// RunChaos plays one named scenario on the given execution backend, with
// the scenario's fault plan adjusted by ov (the zero ChaosOverride keeps
// it), and reduces it to its outcome record. Cycle-class backends are
// promoted to BackendHybrid when the scenario carries soft-path workers,
// so the worker pool matches the model variant exactly.
func RunChaos(name string, backend BackendMode, ov ChaosOverride) (ChaosResult, error) {
	cfg, err := chaosConfig(name)
	if err != nil {
		return ChaosResult{}, err
	}
	ov.apply(cfg.Faults)
	switch {
	case backend == BackendModel:
		cfg.Backend = BackendModel
	case cfg.SoftCPUs > 0:
		cfg.Backend = BackendHybrid
	default:
		cfg.Backend = BackendCycle
	}
	res, err := ServeCluster(cfg)
	if err != nil {
		return ChaosResult{}, err
	}
	m := res.Merged
	cr := ChaosResult{
		Scenario: name,
		Shards:   res.Shards,
		Offered:  res.Offered,

		Completed: m.Completed,
		Failed:    m.Failed,
		Rejected:  m.Rejected,

		TimedOut:       m.TimedOut,
		Unavailable:    m.Unavailable,
		Wedges:         m.Wedges,
		Retries:        m.Retries,
		Quarantined:    m.Quarantined,
		Repairs:        m.Repairs,
		ProbationFails: m.ProbationFails,
		QuarantineTime: m.QuarantineTime,

		Rerouted: res.Rerouted,
		Hedged:   res.Hedged,

		DeadlineMisses: m.DeadlineMisses,
		Goodput:        m.Completed - m.DeadlineMisses,

		P50:      m.P50,
		P99:      m.P99,
		Makespan: m.Makespan,

		Windows: res.Windows,
	}
	if res.Offered > 0 {
		cr.Availability = float64(m.Completed) / float64(res.Offered)
	}
	return cr, nil
}

// ChaosStudy runs the named scenarios, each with its fault plan adjusted
// by ov, on a parallel-wide study pool (<= 0 selects GOMAXPROCS), results
// in name order — the sweep behind `duetsim chaos -scenario all`. Pool
// width never changes the outcomes: each scenario is an independent
// deterministic cluster run.
func ChaosStudy(parallel int, names []string, backend BackendMode, ov ChaosOverride) ([]ChaosResult, error) {
	type out struct {
		res ChaosResult
		err error
	}
	pts := study.Map(parallel, names, func(n string) out {
		r, err := RunChaos(n, backend, ov)
		return out{r, err}
	})
	results := make([]ChaosResult, len(pts))
	for i, p := range pts {
		if p.err != nil {
			return nil, p.err
		}
		results[i] = p.res
	}
	return results, nil
}
