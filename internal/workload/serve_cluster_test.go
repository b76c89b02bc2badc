package workload

import (
	"fmt"
	"reflect"
	"testing"

	"duet/internal/cluster"
	"duet/internal/sched"
)

// statsTable renders a stats summary the way the duetsim tables do —
// the byte-identity contract is on formatted output, not just struct
// equality, so the golden tests compare both.
func statsTable(st sched.Stats) string {
	s := fmt.Sprintf("%d/%d/%d tput=%.4f p50=%v p99=%v wait=%v svc=%v rc=%d dl=%d",
		st.Completed, st.Failed, st.Rejected, st.ThroughputPerMS,
		st.P50, st.P99, st.MeanWait, st.MeanService, st.Reconfigs, st.DeadlineMisses)
	for _, f := range st.Fabrics {
		s += fmt.Sprintf(" %s=%d/%d/%.4f", f.Name, f.Jobs, f.Reconfigs, f.Utilization)
	}
	return s
}

// TestServeClusterDeterministic: repeated multi-shard runs at one seed
// must be byte-identical — merged stats, per-shard stats, and raw sojourn
// samples — despite the goroutine-per-replica execution.
func TestServeClusterDeterministic(t *testing.T) {
	for fe := cluster.FrontEnd(0); fe < cluster.NumFrontEnds; fe++ {
		t.Run(fe.String(), func(t *testing.T) {
			cfg := ClusterConfig{
				ServeConfig: ServeConfig{Policy: sched.Affinity, Jobs: 90, Seed: 7},
				Shards:      3,
				FrontEnd:    fe,
			}
			r1, err1 := ServeCluster(cfg)
			r2, err2 := ServeCluster(cfg)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("identical seeded cluster runs diverged:\n%+v\n%+v", r1, r2)
			}
			if got, want := statsTable(r1.Merged), statsTable(r2.Merged); got != want {
				t.Fatalf("stats tables differ:\n%s\n%s", got, want)
			}
			if got := r1.Merged.Completed + r1.Merged.Failed + r1.Merged.Rejected; got != r1.Offered {
				t.Fatalf("accounted %d of %d offered", got, r1.Offered)
			}
		})
	}
}

// TestServeClusterSingleShardMatchesServe guards the "identical per
// seed" contract in serve.go from the other side: a 1-shard cluster must
// reproduce the single-System Serve run exactly — same merged stats,
// byte-identical table, same flight-recorder series — under every front
// end (with one shard they all route identically), on every backend and
// in both stats modes.
func TestServeClusterSingleShardMatchesServe(t *testing.T) {
	for b := BackendMode(0); b < NumBackendModes; b++ {
		for _, mode := range []sched.StatsMode{sched.StatsExact, sched.StatsStreaming} {
			t.Run(b.String()+"/"+mode.String(), func(t *testing.T) {
				base := ServeConfig{Policy: sched.SJF, Jobs: 80, Seed: 42, Backend: b, Stats: mode, Windows: 5}
				want := Serve(base)
				if len(want.Windows) == 0 {
					t.Fatal("Serve recorded no windows")
				}
				for fe := cluster.FrontEnd(0); fe < cluster.NumFrontEnds; fe++ {
					r, err := ServeCluster(ClusterConfig{ServeConfig: base, Shards: 1, FrontEnd: fe})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(r.Merged, want.Stats) {
						t.Fatalf("%v: 1-shard cluster diverged from Serve:\n%+v\n%+v", fe, r.Merged, want.Stats)
					}
					if got, wantS := statsTable(r.Merged), statsTable(want.Stats); got != wantS {
						t.Fatalf("%v: tables differ:\n%s\n%s", fe, got, wantS)
					}
					if !reflect.DeepEqual(r.Windows, want.Windows) {
						t.Fatalf("%v: window series differ:\n%+v\n%+v", fe, r.Windows, want.Windows)
					}
					if r.PerShard[0].Assigned != base.Jobs {
						t.Fatalf("%v: shard 0 assigned %d of %d", fe, r.PerShard[0].Assigned, base.Jobs)
					}
				}
			})
		}
	}
}

// TestServeArrivalsGolden pins the arrival generator: the stream for the
// default seed is part of the serve/cluster determinism contract, so an
// accidental change to draw order or distribution parameters must fail
// loudly, not shift every downstream number silently.
func TestServeArrivalsGolden(t *testing.T) {
	arrivals := drawArrivals(ServeConfig{})
	if len(arrivals) != 240 {
		t.Fatalf("default stream has %d arrivals", len(arrivals))
	}
	const golden = uint64(0x9e2f398c9687650c) // seed 1, 240 jobs, 25us mean gap
	if got := arrivalStreamHash(arrivals); got != golden {
		t.Fatalf("arrival stream hash = %#x, want %#x (generator behaviour changed)", got, golden)
	}
}

// TestServeClusterThroughputScaling: on an offered load that saturates
// one System, four shards must deliver more than twice the job
// throughput — the acceptance bar for the sharded serve farm.
func TestServeClusterThroughputScaling(t *testing.T) {
	cfg := ServeConfig{Policy: sched.Affinity, Jobs: 320, Seed: 1, MeanGapUS: 5, QueueCap: 1024}
	base := Serve(cfg)
	r, err := ServeCluster(ClusterConfig{ServeConfig: cfg, Shards: 4, FrontEnd: cluster.LeastOutstanding})
	if err != nil {
		t.Fatal(err)
	}
	if base.Completed != cfg.Jobs || r.Merged.Completed != cfg.Jobs {
		t.Fatalf("completed: 1-shard %d, 4-shard %d of %d", base.Completed, r.Merged.Completed, cfg.Jobs)
	}
	scale := r.Merged.ThroughputPerMS / base.ThroughputPerMS
	if scale <= 2 {
		t.Fatalf("4-shard throughput %.2f jobs/ms is only %.2fx the 1-shard %.2f jobs/ms",
			r.Merged.ThroughputPerMS, scale, base.ThroughputPerMS)
	}
	t.Logf("throughput: 1 shard %.2f jobs/ms, 4 shards %.2f jobs/ms (%.2fx)",
		base.ThroughputPerMS, r.Merged.ThroughputPerMS, scale)
}
