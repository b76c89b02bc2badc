package workload

import (
	"reflect"
	"testing"

	"duet/internal/cluster"
	"duet/internal/sim"
)

// TestWindowWidth: the derived width must put the last arrival inside
// window n-1 (n windows cover the stream) and be the smallest such
// width, with 0 disabling telemetry.
func TestWindowWidth(t *testing.T) {
	const last = 999
	if w := spanWidth(last, 0); w != 0 {
		t.Fatalf("width(n=0) = %v, want 0", w)
	}
	for _, n := range []int{1, 2, 7, 64, 1000, 5000} {
		w := spanWidth(last, n)
		if w < 1 {
			t.Fatalf("width(n=%d) = %v", n, w)
		}
		if last/int64(w) >= int64(n) {
			t.Fatalf("n=%d width=%v: last arrival lands in window %d", n, w, last/int64(w))
		}
		// Smallest such width: one unit narrower must overflow window n-1
		// (until the width floors at 1).
		if w > 1 && last/(int64(w)-1) < int64(n) {
			t.Fatalf("n=%d width=%v is not minimal", n, w)
		}
	}
}

// TestServeWindowsOffByDefault: without cfg.Windows the serve result
// must not carry a series (and pays no recorder cost).
func TestServeWindowsOffByDefault(t *testing.T) {
	if res := Serve(ServeConfig{Jobs: 40}); res.Windows != nil {
		t.Fatalf("Windows = %v without cfg.Windows", res.Windows)
	}
}

// TestServeWindowsMatchStats: the window series is a decomposition of
// the run — summed over windows it must reproduce the end-of-run
// counters exactly, and the series must cover the configured window
// count (completions may trail into a few extra windows).
func TestServeWindowsMatchStats(t *testing.T) {
	for _, be := range []BackendMode{BackendCycle, BackendModel, BackendHybrid} {
		cfg := ServeConfig{Jobs: 120, Windows: 16, Backend: be, QueueCap: 8}
		res := Serve(cfg)
		if len(res.Windows) < 16 {
			t.Fatalf("%v: %d windows, want >= 16", be, len(res.Windows))
		}
		var arrivals, completions, failures, rejects, reprograms int
		var busy sim.Time
		for _, w := range res.Windows {
			arrivals += w.Arrivals
			completions += w.Completions
			failures += w.Failures
			rejects += w.Rejects
			reprograms += w.Reprograms
			busy += w.BusyTotal
		}
		if arrivals != res.Offered {
			t.Errorf("%v: window arrivals %d != offered %d", be, arrivals, res.Offered)
		}
		if completions != res.Completed {
			t.Errorf("%v: window completions %d != completed %d", be, completions, res.Completed)
		}
		if failures != res.Failed {
			t.Errorf("%v: window failures %d != failed %d", be, failures, res.Failed)
		}
		if rejects != res.Rejected {
			t.Errorf("%v: window rejects %d != rejected %d", be, rejects, res.Rejected)
		}
		if reprograms != res.Reconfigs {
			t.Errorf("%v: window reprograms %d != reconfigs %d", be, reprograms, res.Reconfigs)
		}
		if completions > 0 && busy == 0 {
			t.Errorf("%v: no busy time recorded across %d completions", be, completions)
		}
	}
}

// TestClusterWindowsDeterministic: the merged cluster window series must
// be identical at every study-pool width and across repeated runs — the
// telemetry extension of the cluster determinism contract.
func TestClusterWindowsDeterministic(t *testing.T) {
	cfgs := []ClusterConfig{{
		ServeConfig: ServeConfig{Jobs: 160, Windows: 24},
		Shards:      4,
		FrontEnd:    cluster.LeastOutstanding,
	}}
	seq, err := ClusterStudy(1, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if seq[0].Windows == nil {
		t.Fatal("no window series recorded")
	}
	for run := 0; run < 3; run++ {
		par, err := ClusterStudy(8, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par[0].Windows, seq[0].Windows) {
			t.Fatalf("run %d: window series diverged from the sequential run", run)
		}
	}
}

// TestClusterWindowsMergeShards: the cluster's merged series must carry
// one busy column per worker across all shards, and its per-window
// counters must equal the shard recorders' sum.
func TestClusterWindowsMergeShards(t *testing.T) {
	res, err := ServeCluster(ClusterConfig{
		ServeConfig: ServeConfig{Jobs: 120, Windows: 12, EFPGAs: 2},
		Shards:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows == nil {
		t.Fatal("no merged window series")
	}
	if got := len(res.Windows[0].Busy); got != 3*2 {
		t.Fatalf("merged busy columns = %d, want shards x efpgas = 6", got)
	}
	var merged, perShard int
	for _, w := range res.Windows {
		merged += w.Completions
	}
	for _, s := range res.PerShard {
		if s.Windows == nil {
			t.Fatal("shard missing its recorder")
		}
		for _, w := range s.Windows.Series() {
			perShard += w.Completions
		}
	}
	if merged != perShard || merged != res.Merged.Completed {
		t.Fatalf("completions: merged series %d, shard series %d, stats %d", merged, perShard, res.Merged.Completed)
	}
}

// TestWindowQuantilesModelVsCycle: the per-window p50/p99 cross-check —
// the analytic model backend must reproduce the cycle-level backend's
// per-window quantiles within the xval tolerance, window for window
// (windows whose sojourns sit at the scale of the per-job cycle/model
// skew are compared with the same absolute allowance xval grants the
// whole-run quantiles).
func TestWindowQuantilesModelVsCycle(t *testing.T) {
	base := ServeConfig{Jobs: 240, Windows: 16}
	cycleRes := Serve(base)
	modelCfg := base
	modelCfg.Backend = BackendModel
	modelRes := Serve(modelCfg)
	if len(cycleRes.Windows) != len(modelRes.Windows) {
		t.Fatalf("window counts diverge: cycle %d, model %d", len(cycleRes.Windows), len(modelRes.Windows))
	}
	check := func(win int, name string, c, m sim.Time) {
		diff := float64(c - m)
		if diff < 0 {
			diff = -diff
		}
		if c > 0 && diff/float64(c) > XValTolerance {
			t.Errorf("window %d %s: cycle %v vs model %v (%.2f%% > %.2f%%)",
				win, name, c, m, 100*diff/float64(c), 100*XValTolerance)
		}
	}
	for i := range cycleRes.Windows {
		cw, mw := cycleRes.Windows[i], modelRes.Windows[i]
		if cw.Arrivals != mw.Arrivals {
			t.Errorf("window %d arrivals: cycle %d vs model %d", i, cw.Arrivals, mw.Arrivals)
		}
		check(i, "p50", cw.P50, mw.P50)
		check(i, "p99", cw.P99, mw.P99)
	}
}
