package workload

import (
	"reflect"
	"testing"

	"duet/internal/cluster"
	"duet/internal/faults"
	"duet/internal/sched"
	"duet/internal/sim"
)

// TestCrossValidateUnderFaults extends the xval gate below the fault
// seam: under an identical fault plan, the cycle-level and analytic
// backends must report the same wedge, quarantine, retry, timeout and
// unavailability decisions exactly — the fault draws are counted hashes
// of the shared dispatch sequence, so any divergence is a seam bug, not
// tolerance noise.
func TestCrossValidateUnderFaults(t *testing.T) {
	cases := []struct {
		name string
		cfg  ServeConfig
		// wants name the counters the scenario must actually move, so a
		// passing comparison can't be vacuous.
		wants func(t *testing.T, s sched.Stats)
	}{
		{
			name: "wedges-and-retries",
			cfg: ServeConfig{
				Policy: sched.Affinity, Jobs: 300, MeanGapUS: 40,
				Faults: &faults.Plan{Seed: 5, WedgeProb: 0.1, MaxRetries: 2},
			},
			wants: func(t *testing.T, s sched.Stats) {
				if s.Wedges == 0 || s.Quarantined == 0 {
					t.Errorf("plan injected no wedges (wedges=%d quarantined=%d)", s.Wedges, s.Quarantined)
				}
			},
		},
		{
			name: "wedges-with-hybrid-spill",
			cfg: ServeConfig{
				Policy: sched.Hybrid, SoftCPUs: 1, Jobs: 300, MeanGapUS: 40, QueueCap: 1024,
				Faults: &faults.Plan{Seed: 9, WedgeProb: 0.15, MaxRetries: 1},
			},
			wants: func(t *testing.T, s sched.Stats) {
				if s.Wedges == 0 {
					t.Errorf("plan injected no wedges")
				}
			},
		},
		{
			name: "deadline-enforcement",
			cfg: ServeConfig{
				Policy: sched.SJF, Jobs: 300, MeanGapUS: 4, QueueCap: 1024,
				Faults: &faults.Plan{Seed: 3, EnforceDeadlines: true},
			},
			wants: func(t *testing.T, s sched.Stats) {
				if s.TimedOut == 0 {
					t.Errorf("overload enforced no deadlines")
				}
			},
		},
		{
			name: "downtime-window",
			cfg: ServeConfig{
				Policy: sched.FIFO, Jobs: 300, MeanGapUS: 10, QueueCap: 1024,
				Faults: &faults.Plan{
					Seed:      4,
					ShardDown: [][]sched.Downtime{{{From: 200 * sim.US, To: 1200 * sim.US}}},
				},
			},
			wants: func(t *testing.T, s sched.Stats) {
				if s.Unavailable == 0 {
					t.Errorf("downtime window refused nothing")
				}
			},
		},
		{
			name: "wedge-repair-cycle",
			cfg: ServeConfig{
				Policy: sched.Affinity, Jobs: 400, MeanGapUS: 40,
				Faults: &faults.Plan{
					Seed: 13, WedgeProb: 0.15, MaxRetries: 2,
					RepairDelay: 400 * sim.US,
				},
			},
			wants: func(t *testing.T, s sched.Stats) {
				if s.Repairs == 0 || s.QuarantineTime == 0 {
					t.Errorf("repair process returned nothing to service (repairs=%d quarantine=%v)", s.Repairs, s.QuarantineTime)
				}
			},
		},
		{
			name: "domain-downtime",
			cfg: ServeConfig{
				Policy: sched.FIFO, Jobs: 300, MeanGapUS: 10, QueueCap: 1024,
				Faults: &faults.Plan{
					Seed: 6,
					Domains: []faults.Domain{{
						Name: "rack", Shards: []int{0},
						Down: []sched.Downtime{{From: 200 * sim.US, To: 1200 * sim.US}},
					}},
				},
			},
			wants: func(t *testing.T, s sched.Stats) {
				if s.Unavailable == 0 {
					t.Errorf("domain window refused nothing")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rows := CrossValidate(0, []ServeConfig{tc.cfg})
			row := rows[0]
			if !row.CountersMatch {
				t.Fatalf("counters diverge under fault plan:\ncycle: %+v\nmodel: %+v", row.Cycle.Stats, row.Model.Stats)
			}
			if row.P50RelErr > XValTolerance || row.P99RelErr > XValTolerance {
				t.Fatalf("quantile error p50=%.4f p99=%.4f exceeds tolerance %.4f",
					row.P50RelErr, row.P99RelErr, XValTolerance)
			}
			tc.wants(t, row.Model.Stats)
		})
	}
}

// TestCountersEveryField pins that a new sched.Counters field needs no
// edit in cluster.Merge or the xval comparison: Merge must sum every
// field, and the match flag must trip on a difference in any one field.
func TestCountersEveryField(t *testing.T) {
	var a, b sched.Stats
	av, bv := reflect.ValueOf(&a.Counters).Elem(), reflect.ValueOf(&b.Counters).Elem()
	for i := range av.NumField() {
		av.Field(i).SetInt(int64(i + 1))
		bv.Field(i).SetInt(int64(100 * (i + 1)))
	}
	m := cluster.Merge([]cluster.ShardResult{{Stats: a}, {Stats: b}})
	mv := reflect.ValueOf(m.Counters)
	for i := range mv.NumField() {
		if got, want := mv.Field(i).Int(), int64(101*(i+1)); got != want {
			t.Errorf("Merge: %s = %d, want %d", mv.Type().Field(i).Name, got, want)
		}
	}

	if !countersMatch(a, a) {
		t.Fatal("identical stats do not match")
	}
	for i := range av.NumField() {
		c := a
		f := reflect.ValueOf(&c.Counters).Elem().Field(i)
		f.SetInt(f.Int() + 1)
		if countersMatch(a, c) {
			t.Errorf("counters match despite differing %s", av.Type().Field(i).Name)
		}
	}
	c := a
	c.Makespan++
	if countersMatch(a, c) {
		t.Error("counters match despite differing makespan")
	}
}
