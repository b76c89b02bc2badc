package workload

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"duet/internal/cluster"
	"duet/internal/sched"
	"duet/internal/sim"
)

// TestModelBackendMatchesCycleServe is the backend-equivalence golden:
// the serve study run on the analytic model backend must reproduce the
// cycle-level backend's statistics on the golden config — identical
// throughput, utilization and accounting counters, identical exact
// quantiles — across every classic policy and several seeds. The model
// path shares the scheduler and the cost formulas with the cycle path,
// so agreement is exact, not approximate.
func TestModelBackendMatchesCycleServe(t *testing.T) {
	for p := sched.Policy(0); p < sched.NumPolicies; p++ {
		for _, seed := range []int64{1, 7, 42} {
			cfg := ServeConfig{Policy: p, Jobs: 240, Seed: seed}
			cycle := Serve(cfg)
			cfg.Backend = BackendModel
			mdl := Serve(cfg)
			cycle.Backend = mdl.Backend // the mode tag is the one allowed difference
			if !reflect.DeepEqual(cycle, mdl) {
				t.Fatalf("policy %v seed %d: model backend diverged from cycle:\ncycle: %+v\nmodel: %+v",
					p, seed, cycle.Stats, mdl.Stats)
			}
		}
	}
}

// TestModelBackendStreamingQuantiles runs the same comparison in
// streaming-stats mode: counters still match exactly; p50/p99 come from
// each side's digest and must agree within the digest's documented
// relative error.
func TestModelBackendStreamingQuantiles(t *testing.T) {
	cfg := ServeConfig{Policy: sched.FIFO, Jobs: 2000, Seed: 3, Stats: sched.StatsStreaming}
	cycle := Serve(cfg)
	cfg.Backend = BackendModel
	mdl := Serve(cfg)
	if cycle.Completed != mdl.Completed || cycle.Rejected != mdl.Rejected ||
		cycle.Reconfigs != mdl.Reconfigs || cycle.Makespan != mdl.Makespan {
		t.Fatalf("streaming counters diverged:\ncycle: %+v\nmodel: %+v", cycle.Stats, mdl.Stats)
	}
	for _, q := range []struct {
		name   string
		cy, md sim.Time
	}{{"p50", cycle.P50, mdl.P50}, {"p99", cycle.P99, mdl.P99}} {
		lo := q.cy - sim.Time(float64(q.cy)*sched.DigestRelError) - 1
		hi := q.cy + sim.Time(float64(q.cy)*sched.DigestRelError) + 1
		if q.md < lo || q.md > hi {
			t.Fatalf("%s: model %v outside cycle %v ± digest bound", q.name, q.md, q.cy)
		}
	}
}

// TestModelBackendMatchesCycleCluster extends the equivalence to the
// sharded farm: an all-model cluster reproduces the all-cycle cluster
// exactly under every front end.
func TestModelBackendMatchesCycleCluster(t *testing.T) {
	for fe := cluster.FrontEnd(0); fe < cluster.NumFrontEnds; fe++ {
		cfg := ClusterConfig{
			ServeConfig: ServeConfig{Policy: sched.Affinity, Jobs: 120, Seed: 7},
			Shards:      3,
			FrontEnd:    fe,
		}
		cycle, err := ServeCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Backend = BackendModel
		mdl, err := ServeCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cycle.Backend = mdl.Backend
		if !reflect.DeepEqual(cycle, mdl) {
			t.Fatalf("front end %v: model cluster diverged from cycle:\ncycle: %+v\nmodel: %+v",
				fe, cycle.Merged, mdl.Merged)
		}
	}
}

// TestCrossValidate exercises the duetsim xval study: on the golden
// config every policy must agree within the documented tolerance (the
// shared-code design makes the observed error 0).
func TestCrossValidate(t *testing.T) {
	var cfgs []ServeConfig
	for p := sched.Policy(0); p < sched.NumPolicies; p++ {
		cfgs = append(cfgs, ServeConfig{Policy: p})
	}
	// A hybrid row with a real soft-path pool on both sides (hybrid
	// Dolly vs analytic replica) cross-validates the CPU spill path.
	cfgs = append(cfgs, ServeConfig{Policy: sched.Hybrid, EFPGAs: 1, SoftCPUs: 1, MeanGapUS: 8, QueueCap: 1024})
	for _, row := range CrossValidate(0, cfgs) {
		if !row.CountersMatch {
			t.Fatalf("policy %v: counters diverge:\ncycle: %+v\nmodel: %+v", row.Policy, row.Cycle.Stats, row.Model.Stats)
		}
		if row.P50RelErr > XValTolerance || row.P99RelErr > XValTolerance {
			t.Fatalf("policy %v: quantile error p50=%.4f p99=%.4f exceeds tolerance %.4f",
				row.Policy, row.P50RelErr, row.P99RelErr, XValTolerance)
		}
	}
}

// TestHybridServeSpills: the hybrid backend under the Hybrid policy on a
// saturating load completes everything, uses the soft path, and clears
// the offered jobs faster than the fabric-only run that would otherwise
// queue unboundedly.
func TestHybridServeSpills(t *testing.T) {
	base := ServeConfig{Policy: sched.Affinity, Jobs: 320, Seed: 1, MeanGapUS: 5, QueueCap: 1024}
	fabricOnly := Serve(base)

	hybrid := base
	hybrid.Policy = sched.Hybrid
	hybrid.Backend = BackendHybrid
	hybrid.SoftCPUs = 2
	r := Serve(hybrid)
	if r.Completed != hybrid.Jobs {
		t.Fatalf("hybrid completed %d of %d", r.Completed, hybrid.Jobs)
	}
	soft := 0
	for _, f := range r.Fabrics[len(r.Fabrics)-hybrid.SoftCPUs:] {
		soft += f.Jobs
	}
	if soft == 0 {
		t.Fatal("saturating load never used the soft path")
	}
	if r.Makespan >= fabricOnly.Makespan {
		t.Fatalf("soft-path spill did not help: hybrid makespan %v vs fabric-only %v",
			r.Makespan, fabricOnly.Makespan)
	}
	t.Logf("hybrid: %d of %d jobs on the soft path, makespan %v vs fabric-only %v",
		soft, hybrid.Jobs, r.Makespan, fabricOnly.Makespan)
}

// TestServeReplicaCatalogOrder: arrivals carry ServeApps indices, so
// every serve replica — model, cycle or hybrid — must list ServeApps in
// index order: AppID i is ServeApps[i] on every shard.
func TestServeReplicaCatalogOrder(t *testing.T) {
	want := make([]string, len(ServeApps))
	for i, a := range ServeApps {
		want[i] = a.Name
	}
	for m := BackendMode(0); m < NumBackendModes; m++ {
		rep, err := newServeReplica(ServeConfig{Backend: m}.withDefaults(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Apps(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v replica catalog %q, want ServeApps order %q", m, got, want)
		}
		if err := rep.Drain(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBackendModeNames pins the flag surface of -backend and the mode's
// JSON form, a quoted name.
func TestBackendModeNames(t *testing.T) {
	for m := BackendMode(0); m < NumBackendModes; m++ {
		text, err := m.MarshalText()
		var got BackendMode
		if err != nil || string(text) != m.String() || got.UnmarshalText(text) != nil || got != m {
			t.Fatalf("round trip %v: text %q err %v, got %v", m, text, err, got)
		}
		if b, err := json.Marshal(m); err != nil || string(b) != `"`+m.String()+`"` {
			t.Fatalf("JSON of %v = %s, %v", m, b, err)
		}
	}
	got := BackendHybrid
	if err := got.UnmarshalText([]byte("quantum")); err == nil || got != BackendHybrid {
		t.Fatalf("bogus backend name parsed: err %v, mode now %v", err, got)
	}
}

// TestUnknownBackendRejected: the shared replica builder refuses a mode
// it does not know instead of quietly building a cycle pool.
func TestUnknownBackendRejected(t *testing.T) {
	for _, cfg := range []ClusterConfig{
		{ServeConfig: ServeConfig{Backend: NumBackendModes, Jobs: 8}, Shards: 1},
		{ServeConfig: ServeConfig{Backend: -1, Jobs: 8}, Shards: 2},
	} {
		if _, err := ServeCluster(cfg); err == nil || !strings.Contains(err.Error(), "unknown backend mode") {
			t.Fatalf("%+v: err %v, want unknown backend mode", cfg, err)
		}
	}
}
