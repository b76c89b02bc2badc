package workload

import (
	"reflect"
	"testing"

	"duet/internal/cluster"
	"duet/internal/sched"
)

// TestServeDeterministic: two identical seeded runs must be
// indistinguishable — the acceptance bar for `duetsim serve` is
// byte-identical output per seed.
func TestServeDeterministic(t *testing.T) {
	cfg := ServeConfig{Policy: sched.Affinity, Jobs: 80, Seed: 42}
	r1 := Serve(cfg)
	r2 := Serve(cfg)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("identical seeded runs diverged:\n%+v\n%+v", r1, r2)
	}
	if r1.Completed != cfg.Jobs {
		t.Fatalf("completed %d of %d offered jobs", r1.Completed, cfg.Jobs)
	}
}

// TestServePoliciesDiffer: the reuse-aware policy must reprogram less
// than naive FIFO on the same arrival stream, and every policy must
// account for the full offered load.
func TestServePoliciesDiffer(t *testing.T) {
	var results []ServeResult
	for p := sched.Policy(0); p < sched.NumPolicies; p++ {
		r := Serve(ServeConfig{Policy: p, Jobs: 120, Seed: 3})
		results = append(results, r)
		if got := r.Completed + r.Failed + r.Rejected; got != r.Offered {
			t.Fatalf("%v: %d accounted of %d offered", p, got, r.Offered)
		}
		if len(r.Fabrics) != 2 {
			t.Fatalf("%v: %d fabrics, want 2", p, len(r.Fabrics))
		}
		for _, f := range r.Fabrics {
			if f.Utilization < 0 || f.Utilization > 1 {
				t.Fatalf("%v: utilization %v out of range", p, f.Utilization)
			}
		}
	}
	if aff, fifo := results[sched.Affinity].Reconfigs, results[sched.FIFO].Reconfigs; aff >= fifo {
		t.Fatalf("affinity reconfigs (%d) not below fifo (%d)", aff, fifo)
	}
}

// TestServeProgress: a single-replica run with a Progress sink counts
// exactly its offered jobs and ends at the last arrival's instant.
func TestServeProgress(t *testing.T) {
	cfg := ServeConfig{Policy: sched.Affinity, Jobs: 10_000, Seed: 5, Backend: BackendModel}
	stream := drawArrivals(cfg)
	cfg.Progress = &cluster.Progress{}
	Serve(cfg)
	if got, at := cfg.Progress.Jobs(), cfg.Progress.SimAt(); got != int64(cfg.Jobs) || at != stream[len(stream)-1].At {
		t.Fatalf("progress jobs/simAt = %d/%v, want %d/%v", got, at, cfg.Jobs, stream[len(stream)-1].At)
	}
}
