package sched_test

import (
	"fmt"
	"testing"

	"duet/internal/cluster"
	"duet/internal/faults"
	"duet/internal/sched"
	"duet/internal/sim"
	"duet/internal/workload"
)

// indexObserver cross-checks the scheduler's placement indexes against
// its backends at every dispatch, retirement and repair (residency) and
// at every dispatch and arrival (queue counts). It keeps the first
// failure, since observers cannot fail a test from inside the run.
type indexObserver struct {
	sch    *sched.Scheduler
	events int
	err    error
}

func (o *indexObserver) Observe(e sched.Event) {
	if o.err != nil {
		return
	}
	var err error
	switch e.Kind {
	case sched.EventDispatch, sched.EventRetire, sched.EventRepair:
		o.events++
		err = sched.CheckResidency(o.sch)
		if err == nil && e.Kind == sched.EventDispatch {
			err = sched.CheckQueueCounts(o.sch)
		}
	case sched.EventArrival:
		err = sched.CheckQueueCounts(o.sch)
	}
	if err != nil {
		o.err = fmt.Errorf("at %v, event kind %d: %w", e.At, e.Kind, err)
	}
}

// TestTrackedResidencyMatchesBackends plays saturating serve streams
// through every policy under no faults, wedges with repair, and a
// downtime window, on the cycle backend (alone and with a CPU soft path)
// and the model backend, and checks at every dispatch, retirement and
// repair that the scheduler's tracked residency is what the backends
// report — the one place placement's Resident() cross-check remains.
func TestTrackedResidencyMatchesBackends(t *testing.T) {
	plans := []struct {
		name string
		plan func(seed int64) *faults.Plan
	}{
		{"none", func(int64) *faults.Plan { return nil }},
		{"wedge+repair", func(seed int64) *faults.Plan {
			return &faults.Plan{Seed: seed, WedgeProb: 0.15, MaxRetries: 2, RepairDelay: 100 * sim.US}
		}},
		{"downtime", func(seed int64) *faults.Plan {
			return &faults.Plan{Seed: seed, ShardDown: [][]sched.Downtime{{{From: 2 * sim.MS, To: 3 * sim.MS}}}}
		}},
	}
	for _, mode := range []workload.BackendMode{workload.BackendCycle, workload.BackendModel, workload.BackendHybrid} {
		for p := range sched.NumPolicies {
			for _, pl := range plans {
				for seed := int64(1); seed <= 3; seed++ {
					cfg := workload.ServeConfig{
						Backend: mode, Policy: p, Jobs: 300, Seed: seed, MeanGapUS: 4,
						Faults: pl.plan(seed),
					}
					if mode == workload.BackendModel {
						cfg.SoftCPUs = 1
					}
					name := fmt.Sprintf("%v/%v/%s/seed%d", mode, p, pl.name, seed)
					t.Run(name, func(t *testing.T) { checkIndexesOverRun(t, cfg) })
				}
			}
		}
	}
}

func checkIndexesOverRun(t *testing.T, cfg workload.ServeConfig) {
	pool, err := workload.NewServePool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sch := pool.Scheduler()
	obs := &indexObserver{sch: sch}
	sch.SetObserver(obs)
	src := workload.NewArrivalSource(cfg)
	for a := (cluster.Arrival{}); src.Next(&a); {
		pool.Advance(a.At)
		sch.Submit(&sched.Job{Request: a.Request})
	}
	if err := pool.Drain(); err != nil {
		t.Fatal(err)
	}
	if obs.err != nil {
		t.Fatal(obs.err)
	}
	if obs.events == 0 {
		t.Fatal("no dispatch, retirement or repair observed")
	}
	if cfg.Faults != nil && cfg.Faults.RepairDelay > 0 && sch.Stats().Repairs == 0 {
		t.Fatal("wedge+repair run made no repair")
	}
}
