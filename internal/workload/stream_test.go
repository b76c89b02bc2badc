package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"duet/internal/cluster"
	"duet/internal/faults"
	"duet/internal/sched"
	"duet/internal/sim"
)

// referenceArrivals is an independent re-implementation of the serve
// arrival process — the draw order and distributions written out by
// hand, not routed through ArrivalSource — so the property test below
// checks the generator against a second implementation rather than
// against itself.
func referenceArrivals(cfg ServeConfig) []cluster.Arrival {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var at sim.Time
	out := make([]cluster.Arrival, 0, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		at += sim.Time(rng.ExpFloat64() * cfg.MeanGapUS * float64(sim.US))
		r := sched.Request{
			App:       sched.AppID(rng.Intn(len(ServeApps))),
			InputSize: 64 + rng.Intn(2048),
			Priority:  rng.Intn(4),
		}
		r.Deadline = at + sim.Time((0.2+0.6*rng.ExpFloat64())*float64(sim.MS))
		out = append(out, cluster.Arrival{At: at, Request: r})
	}
	return out
}

// arrivalStreamHash is the FNV-1a stream digest the golden test pins
// (TestServeArrivalsGolden) applied to an arbitrary stream.
func arrivalStreamHash(arrivals []cluster.Arrival) uint64 {
	h := fnv.New64a()
	for _, a := range arrivals {
		binary.Write(h, binary.LittleEndian, int64(a.At))
		h.Write([]byte(ServeApps[a.App].Name))
		binary.Write(h, binary.LittleEndian, int64(a.InputSize))
		binary.Write(h, binary.LittleEndian, int64(a.Priority))
		binary.Write(h, binary.LittleEndian, int64(a.Deadline))
	}
	return h.Sum64()
}

// TestArrivalSourceMatchesMaterialized is the streaming generator's
// property test: across a (seed, jobs, mean gap) grid the O(1)-memory
// ArrivalSource must yield exactly the stream referenceArrivals
// materializes — per-arrival equality and equal FNV-1a stream hashes —
// with Len, Span and Clone agreeing on the same stream.
func TestArrivalSourceMatchesMaterialized(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1 << 40} {
		for _, jobs := range []int{1, 13, 240, 1500} {
			for _, gap := range []float64{5, 25, 400} {
				t.Run(fmt.Sprintf("seed=%d/jobs=%d/gap=%g", seed, jobs, gap), func(t *testing.T) {
					cfg := ServeConfig{Seed: seed, Jobs: jobs, MeanGapUS: gap}
					want := referenceArrivals(cfg)
					src := NewArrivalSource(cfg)
					if src.Len() != jobs {
						t.Fatalf("Len = %d, want %d", src.Len(), jobs)
					}
					got := make([]cluster.Arrival, 0, jobs)
					var a cluster.Arrival
					for src.Next(&a) {
						got = append(got, a)
					}
					if src.Next(&a) {
						t.Fatal("Next yielded an arrival past exhaustion")
					}
					if len(got) != len(want) {
						t.Fatalf("source yielded %d arrivals, want %d", len(got), len(want))
					}
					for i := range want {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("arrival %d: got %+v, want %+v", i, got[i], want[i])
						}
					}
					if gh, wh := arrivalStreamHash(got), arrivalStreamHash(want); gh != wh {
						t.Fatalf("stream hash %#x, want %#x", gh, wh)
					}
					if span := NewArrivalSource(cfg).Span(); span != want[len(want)-1].At {
						t.Fatalf("Span = %v, want last arrival %v", span, want[len(want)-1].At)
					}
					// Clone must restart from the first arrival even when the
					// original is mid-stream, as the cluster.Source contract
					// requires.
					half := NewArrivalSource(cfg)
					for i := 0; i < jobs/2; i++ {
						half.Next(&a)
					}
					clone := half.Clone()
					for i := range want {
						if !clone.Next(&a) || !reflect.DeepEqual(a, want[i]) {
							t.Fatalf("clone arrival %d diverged", i)
						}
					}
				})
			}
		}
	}
}

// recycledJobs is a stream that, at a 5us mean gap, least-outstanding
// spreads evenly enough over 3 shards that each one cycles its fixed set
// of 6 hand-off buffers (4 queued, one filling, one playing) some 50
// times: about 310 batches of 64 arrivals per shard.
const recycledJobs = 60_000

// TestServeClusterStreamingMatchesMaterialized pins generator-fed runs
// to slice-fed ones end to end: ServeCluster (arrivals drawn online)
// must reproduce serveClusterReplay over the pre-drawn stream exactly
// — full ClusterResult DeepEqual, including per-shard samples,
// fault-pass counts and telemetry — across front ends, stats modes,
// backends and fault plans. It is what licenses the serve benches to
// draw their stream outside the timed region.
func TestServeClusterStreamingMatchesMaterialized(t *testing.T) {
	crash := &faults.Plan{
		Seed:      11,
		ShardDown: [][]sched.Downtime{nil, {{From: 1 * sim.MS, To: 4 * sim.MS}}},
		Hedge:     300 * sim.US,
	}
	rack := &faults.Plan{
		Seed: 17,
		Domains: []faults.Domain{{
			Name: "rack0", Shards: []int{0, 1},
			Down: []sched.Downtime{{From: 1 * sim.MS, To: 3 * sim.MS}},
		}},
		Hedge:       300 * sim.US,
		RecoverHold: 1 * sim.MS,
	}
	var cases []ClusterConfig
	for fe := cluster.FrontEnd(0); fe < cluster.NumFrontEnds; fe++ {
		for _, stats := range []sched.StatsMode{sched.StatsExact, sched.StatsStreaming} {
			cases = append(cases, ClusterConfig{
				ServeConfig: ServeConfig{
					Policy: sched.Affinity, Jobs: 150, Seed: 7, Stats: stats,
					Backend: BackendModel,
				},
				Shards: 3, FrontEnd: fe,
			})
		}
		// Reroute + hedge under every front end, with telemetry on.
		cases = append(cases, ClusterConfig{
			ServeConfig: ServeConfig{
				Policy: sched.SJF, Jobs: 200, Seed: 11, Windows: 4,
				Backend: BackendModel, Faults: crash,
			},
			Shards: 3, FrontEnd: fe,
		})
	}
	cases = append(cases,
		// Correlated-domain outage on the health-weighted front end.
		ClusterConfig{
			ServeConfig: ServeConfig{
				Policy: sched.Affinity, Jobs: 200, Seed: 17,
				Backend: BackendModel, Faults: rack,
			},
			Shards: 4, FrontEnd: cluster.HealthWeighted,
		},
		// Cycle-level and hybrid backends through the engine replica.
		ClusterConfig{
			ServeConfig: ServeConfig{Policy: sched.FIFO, Jobs: 90, Seed: 42},
			Shards:      2, FrontEnd: cluster.HashApp,
		},
		ClusterConfig{
			ServeConfig: ServeConfig{
				Policy: sched.Hybrid, Jobs: 90, Seed: 42,
				Backend: BackendHybrid, SoftCPUs: 1,
			},
			Shards: 2, FrontEnd: cluster.LeastOutstanding,
		},
		// Long enough that each shard's hand-off buffers cycle many times.
		ClusterConfig{
			ServeConfig: ServeConfig{
				Policy: sched.Affinity, Jobs: recycledJobs, Seed: 7, MeanGapUS: 5,
				Stats: sched.StatsStreaming, Backend: BackendModel,
			},
			Shards: 3, FrontEnd: cluster.LeastOutstanding,
		},
	)
	for _, cfg := range cases {
		name := fmt.Sprintf("%v/%v/%v", cfg.FrontEnd, cfg.Backend, cfg.Stats)
		if cfg.Faults != nil {
			name += "/faults"
		}
		if cfg.Jobs == recycledJobs {
			name += "/recycled"
		}
		t.Run(name, func(t *testing.T) {
			want, err := serveClusterReplay(cfg, drawArrivals(cfg.ServeConfig))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ServeCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("streaming result diverged from materialized:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestStreamingClusterFlatHeap is the capacity regression gate: a
// 10M-job model-backend streaming-stats cluster run must hold its peak
// live heap under a flat bound — far below the 480 MB a materialized
// []Arrival stream of that length would pin — proving peak memory no
// longer scales with the job count.
func TestStreamingClusterFlatHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-job capacity run; skipped with -short")
	}
	if raceEnabled {
		t.Skip("memory bound is meaningless under the race detector's shadow heap")
	}
	const jobs = 10_000_000
	runtime.GC()
	var peak atomic.Uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			cur := peak.Load()
			if ms.HeapAlloc <= cur || peak.CompareAndSwap(cur, ms.HeapAlloc) {
				return
			}
		}
	}
	done := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				sample()
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	res, err := ServeCluster(ClusterConfig{
		ServeConfig: ServeConfig{
			Policy: sched.FIFO, Jobs: jobs, Seed: 1, MeanGapUS: 30,
			QueueCap: 4096, Stats: sched.StatsStreaming, Backend: BackendModel,
		},
		Shards: 4, FrontEnd: cluster.RoundRobin,
	})
	close(done)
	<-sampled
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Merged.Completed + res.Merged.Failed + res.Merged.Rejected; got != jobs {
		t.Fatalf("accounted %d of %d offered", got, jobs)
	}
	const bound = 64 << 20
	if p := peak.Load(); p > bound {
		t.Fatalf("peak heap %d MB exceeds the flat %d MB bound", p>>20, bound>>20)
	}
	t.Logf("10M jobs: peak heap %.1f MB (bound %d MB), completed %d",
		float64(peak.Load())/(1<<20), bound>>20, res.Merged.Completed)
}
