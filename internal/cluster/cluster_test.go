package cluster_test

import (
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"duet"
	"duet/internal/accel"
	"duet/internal/cluster"
	"duet/internal/efpga"
	"duet/internal/model"
	"duet/internal/sched"
	"duet/internal/sim"
)

// stub is an inert fabric-side model: the scheduler charges service time
// analytically, so the accelerator spawns no behavioural threads.
type stub struct{}

func (stub) Start(*efpga.Env) {}

var testApps = []struct {
	name       string
	fixed, per int64
}{
	{"Tangent", 32, 1},
	{"Popcount", 64, 4},
	{"BFS", 64, 3},
}

// newReplica builds real Dolly replicas with the test catalog
// registered. failShard, when >= 0, injects a Run error on that shard to
// exercise the errgroup-style join; efpgas sets the per-shard fabric
// count (heterogeneous when callers vary it by shard).
func newReplicaN(policy sched.Policy, failShard, efpgas int) func(int, int64) (cluster.Replica, error) {
	return func(shard int, seed int64) (cluster.Replica, error) {
		sys := duet.New(duet.Config{Cores: 1, MemHubs: 1, EFPGAs: efpgas, Style: duet.StyleDuet})
		sch := sys.SchedulerWrapped(sched.Config{Policy: policy}, nil)
		for _, a := range testApps {
			bs := accel.Synthesize(a.name, func() efpga.Accelerator { return stub{} })
			if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: a.fixed, CyclesPerItem: a.per}); err != nil {
				return nil, err
			}
		}
		return &cluster.EngineReplica{Eng: sys.Eng, Sch: sch, Run: func() error {
			sys.Run()
			if shard == failShard {
				return errors.New("injected replica failure")
			}
			return nil
		}}, nil
	}
}

func newReplica(policy sched.Policy, failShard int) func(int, int64) (cluster.Replica, error) {
	return newReplicaN(policy, failShard, 2)
}

// stream builds a deterministic synthetic arrival stream (no rng: the
// cluster's determinism must not depend on how the stream was drawn).
// Gaps are shorter than typical service times, so backlog builds and the
// least-outstanding policy has real load imbalances to react to.
func stream(n int) []cluster.Arrival {
	arr := make([]cluster.Arrival, 0, n)
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		at += sim.Time(1+i%7) * sim.US
		arr = append(arr, cluster.Arrival{At: at, Request: sched.Request{
			App:       sched.AppID(i % len(testApps)),
			InputSize: 64 + (i*37)%1500,
			Priority:  i % 4,
		}})
	}
	return arr
}

// runSlice plays a materialized stream through RunSource.
func runSlice(cfg cluster.Config, arr []cluster.Arrival) (cluster.Result, error) {
	return cluster.RunSource(cfg, cluster.NewSliceSource(arr))
}

// TestRunDeterministic: per (seed, shards, front end) the whole result —
// merged stats, per-shard stats, and raw sojourn samples — must be
// byte-identical across runs despite one-goroutine-per-shard execution.
func TestRunDeterministic(t *testing.T) {
	for fe := cluster.FrontEnd(0); fe < cluster.NumFrontEnds; fe++ {
		t.Run(fe.String(), func(t *testing.T) {
			cfg := cluster.Config{Shards: 3, FrontEnd: fe, Seed: 9, NewReplica: newReplica(sched.Affinity, -1)}
			r1, err1 := runSlice(cfg, stream(120))
			r2, err2 := runSlice(cfg, stream(120))
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("identical cluster runs diverged:\n%+v\n%+v", r1, r2)
			}
			assigned := 0
			for _, s := range r1.PerShard {
				assigned += s.Assigned
				if s.Stats.Completed != s.Assigned {
					t.Fatalf("shard %d completed %d of %d assigned", s.Shard, s.Stats.Completed, s.Assigned)
				}
			}
			if assigned != r1.Offered {
				t.Fatalf("front end %v assigned %d of %d offered", fe, assigned, r1.Offered)
			}
			if got := r1.Merged.Completed + r1.Merged.Failed + r1.Merged.Rejected; got != r1.Offered {
				t.Fatalf("merged accounting %d of %d offered", got, r1.Offered)
			}
		})
	}
}

// TestFrontEndRouting checks each policy's characteristic split shape.
func TestFrontEndRouting(t *testing.T) {
	run := func(fe cluster.FrontEnd, shards int) *cluster.Result {
		r, err := runSlice(cluster.Config{
			Shards: shards, FrontEnd: fe, Seed: 4, NewReplica: newReplica(sched.FIFO, -1),
		}, stream(90))
		if err != nil {
			t.Fatal(err)
		}
		return &r
	}

	// Round-robin deals evenly: shard loads differ by at most one job.
	rr := run(cluster.RoundRobin, 4)
	for _, s := range rr.PerShard {
		if s.Assigned < 90/4 || s.Assigned > 90/4+1 {
			t.Fatalf("round-robin shard %d got %d jobs", s.Shard, s.Assigned)
		}
	}

	// Hash-by-app confines each app to one shard: with 3 distinct apps at
	// most 3 of the 4 shards can receive work.
	ha := run(cluster.HashApp, 4)
	loaded := 0
	for _, s := range ha.PerShard {
		if s.Assigned > 0 {
			loaded++
		}
	}
	if loaded == 0 || loaded > len(testApps) {
		t.Fatalf("hash-app loaded %d shards with %d apps", loaded, len(testApps))
	}

	// Least-outstanding balances: every shard serves, and no shard hoards
	// the stream.
	lo := run(cluster.LeastOutstanding, 3)
	for _, s := range lo.PerShard {
		if s.Assigned == 0 {
			t.Fatalf("least-outstanding starved shard %d", s.Shard)
		}
		if s.Assigned == lo.Offered {
			t.Fatalf("least-outstanding sent everything to shard %d", s.Shard)
		}
	}
}

// TestLeastOutstandingTieBreak pins the front end's tie-break: on equal
// outstanding counts the lowest shard index wins. Arrivals spaced far
// apart always observe every shard at zero outstanding, so every job
// must land on shard 0 — any other placement means the tie-break
// drifted (e.g. to round-robin or last-seen).
func TestLeastOutstandingTieBreak(t *testing.T) {
	arr := make([]cluster.Arrival, 12)
	for i := range arr {
		// 1s gaps dwarf any service time: all shards idle at each arrival.
		arr[i] = cluster.Arrival{At: sim.Time(i+1) * sim.Time(1e12), Request: sched.Request{
			App: sched.AppID(i % len(testApps)), InputSize: 64,
		}}
	}
	r, err := runSlice(cluster.Config{
		Shards: 3, FrontEnd: cluster.LeastOutstanding, Seed: 1,
		NewReplica: newReplica(sched.FIFO, -1),
	}, arr)
	if err != nil {
		t.Fatal(err)
	}
	if r.PerShard[0].Assigned != len(arr) {
		t.Fatalf("tie-break drifted: shard 0 got %d of %d (want all on the lowest index)",
			r.PerShard[0].Assigned, len(arr))
	}
	for _, s := range r.PerShard[1:] {
		if s.Assigned != 0 {
			t.Fatalf("tie-break drifted: shard %d got %d jobs", s.Shard, s.Assigned)
		}
	}
}

// newModelReplicaN builds analytic model replicas of efpgas fabrics
// with the test catalog registered.
func newModelReplicaN(efpgas int) func(int, int64) (cluster.Replica, error) {
	return func(int, int64) (cluster.Replica, error) {
		rep := model.NewReplica(model.Config{EFPGAs: efpgas, MemHubs: 1, Policy: sched.FIFO})
		for _, a := range testApps {
			bs := accel.Synthesize(a.name, func() efpga.Accelerator { return stub{} })
			if err := rep.Scheduler().RegisterApp(sched.App{BS: bs, FixedCycles: a.fixed, CyclesPerItem: a.per}); err != nil {
				return nil, err
			}
		}
		return rep, nil
	}
}

// TestHeterogeneousShardRouting: the least-outstanding front end must
// plan with each shard's own catalog model. A 4-fabric shard behind a
// 1-fabric shard absorbs most of a saturating stream, even from the
// higher shard index (which loses ties but wins on capacity), whether
// the shards are cycle-level or analytic model replicas.
func TestHeterogeneousShardRouting(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(efpgas int) func(int, int64) (cluster.Replica, error)
	}{
		{"cycle", func(n int) func(int, int64) (cluster.Replica, error) { return newReplicaN(sched.FIFO, -1, n) }},
		{"model", newModelReplicaN},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk, big := tc.build(1), tc.build(4)
			r, err := runSlice(cluster.Config{
				Shards: 2, FrontEnd: cluster.LeastOutstanding, Seed: 1,
				NewReplica: func(shard int, seed int64) (cluster.Replica, error) {
					if shard == 1 {
						return big(shard, seed)
					}
					return mk(shard, seed)
				},
			}, stream(120))
			if err != nil {
				t.Fatal(err)
			}
			small, wide := r.PerShard[0].Assigned, r.PerShard[1].Assigned
			if wide <= small {
				t.Fatalf("4-fabric shard got %d jobs vs 1-fabric shard's %d: front end ignored per-shard capacity", wide, small)
			}
			if small == 0 {
				t.Fatal("least-outstanding starved the small shard entirely")
			}
		})
	}
}

// percentile is the nearest-rank p-th percentile of an unsorted
// population, which it leaves untouched.
func percentile(durs []sim.Time, p float64) sim.Time {
	return sched.PercentileSorted(slices.Sorted(slices.Values(durs)), p)
}

// TestMergeExactQuantiles: merged percentiles must rank the pooled
// per-job samples, not recombine per-shard percentiles.
func TestMergeExactQuantiles(t *testing.T) {
	mk := func(sojourns ...sim.Time) cluster.ShardResult {
		sr := cluster.ShardResult{Sojourns: sojourns}
		sr.Stats.Completed = len(sojourns)
		sr.Stats.P50 = percentile(sojourns, 50)
		sr.Stats.P99 = percentile(sojourns, 99)
		return sr
	}
	// Shard 0 holds the slow tail; shard 1 is uniformly fast. Any
	// percentile-of-percentiles scheme underweights shard 0's tail.
	s0 := mk(900*sim.US, 950*sim.US, 1000*sim.US)
	s1 := mk(10*sim.US, 20*sim.US, 30*sim.US, 40*sim.US, 50*sim.US, 60*sim.US, 70*sim.US)
	m := cluster.Merge([]cluster.ShardResult{s0, s1})
	pooled := []sim.Time{900 * sim.US, 950 * sim.US, 1000 * sim.US,
		10 * sim.US, 20 * sim.US, 30 * sim.US, 40 * sim.US, 50 * sim.US, 60 * sim.US, 70 * sim.US}
	if want := percentile(pooled, 99); m.P99 != want {
		t.Fatalf("merged p99 = %v, want pooled %v", m.P99, want)
	}
	if want := percentile(pooled, 50); m.P50 != want {
		t.Fatalf("merged p50 = %v, want pooled %v", m.P50, want)
	}
	if m.Completed != 10 {
		t.Fatalf("merged completed = %d", m.Completed)
	}
}

// TestMergeSingleExactShard: a one-shard merge returns the shard's own
// Stats, and that Stats is what pooling and ranking its exact-mode
// samples would give, so skipping the pooled copy changes nothing.
func TestMergeSingleExactShard(t *testing.T) {
	r, err := runSlice(cluster.Config{Shards: 1, Seed: 9, NewReplica: newReplica(sched.Affinity, -1)}, stream(120))
	if err != nil {
		t.Fatal(err)
	}
	sr := r.PerShard[0]
	if sr.Digest != nil || len(sr.Sojourns) != sr.Stats.Completed || sr.Stats.Completed == 0 {
		t.Fatalf("want an exact-mode shard with samples: %d samples, %d completed", len(sr.Sojourns), sr.Stats.Completed)
	}
	if !reflect.DeepEqual(r.Merged, sr.Stats) {
		t.Fatalf("1-shard merge is not the shard's Stats:\n%+v\n%+v", r.Merged, sr.Stats)
	}
	want := sched.Stats{Counters: sr.Stats.Counters, Makespan: sr.Stats.Makespan, Fabrics: sr.Stats.Fabrics}
	want.Summarize(slices.Clone(sr.Sojourns), nil, sr.WaitSum, sr.ServiceSum)
	if !reflect.DeepEqual(r.Merged, want) {
		t.Fatalf("1-shard merge differs from its pooled samples:\n%+v\n%+v", r.Merged, want)
	}
}

// TestMergeSingleShardAllocs: merging one exact shard costs O(1) heap
// objects however many samples it holds; it used to copy and sort them.
func TestMergeSingleShardAllocs(t *testing.T) {
	sr := cluster.ShardResult{Sojourns: make([]sim.Time, 100_000)}
	for i := range sr.Sojourns {
		sr.Sojourns[i] = sim.Time((i * 7919) % 100_000)
	}
	sr.Stats.Completed = len(sr.Sojourns)
	sr.Stats.Fabrics = []sched.FabricStats{{Name: "f0"}, {Name: "f1"}}
	shards := []cluster.ShardResult{sr}
	if n := testing.AllocsPerRun(10, func() { cluster.Merge(shards) }); n > 1 {
		t.Fatalf("1-shard merge of %d samples allocated %v objects per run, want at most 1", len(sr.Sojourns), n)
	}
}

// TestMergeMixedModeQuantiles: when exact and streaming shards meet in
// one merge (nothing forbids a caller mixing modes per shard), the
// quantiles must still rank the whole population — exact shards' raw
// samples fold into the merged digest at the digest's precision rather
// than being silently dropped.
func TestMergeMixedModeQuantiles(t *testing.T) {
	exact := cluster.ShardResult{Sojourns: []sim.Time{900 * sim.US, 950 * sim.US, 1000 * sim.US}}
	exact.Stats.Completed = 3
	streaming := cluster.ShardResult{Digest: &sched.Digest{}}
	fast := []sim.Time{10 * sim.US, 20 * sim.US, 30 * sim.US, 40 * sim.US, 50 * sim.US, 60 * sim.US, 70 * sim.US}
	for _, v := range fast {
		streaming.Digest.Add(v)
	}
	streaming.Stats.Completed = len(fast)

	m := cluster.Merge([]cluster.ShardResult{exact, streaming})
	pooled := append(append([]sim.Time(nil), exact.Sojourns...), fast...)
	for _, q := range []struct {
		p    float64
		got  sim.Time
		want sim.Time
	}{{50, m.P50, percentile(pooled, 50)}, {99, m.P99, percentile(pooled, 99)}} {
		if q.got < q.want || q.got > q.want+sim.Time(float64(q.want)*sched.DigestRelError)+1 {
			t.Fatalf("mixed-mode p%v = %v, want pooled %v within the digest bound", q.p, q.got, q.want)
		}
	}
	if m.Completed != 10 {
		t.Fatalf("merged completed = %d", m.Completed)
	}
}

// TestRunErrors: configuration and replica failures surface with their
// shard attribution; all goroutines are still joined.
func TestRunErrors(t *testing.T) {
	if _, err := runSlice(cluster.Config{Shards: 2}, stream(4)); err == nil {
		t.Fatal("missing NewReplica not rejected")
	}
	if _, err := runSlice(cluster.Config{
		Shards: 2, FrontEnd: cluster.NumFrontEnds, NewReplica: newReplica(sched.FIFO, -1),
	}, stream(4)); err == nil {
		t.Fatal("bogus front end not rejected")
	}
	factoryErr := func(shard int, seed int64) (cluster.Replica, error) {
		return nil, errors.New("no fabric")
	}
	if _, err := runSlice(cluster.Config{Shards: 2, NewReplica: factoryErr}, stream(4)); err == nil {
		t.Fatal("factory error not propagated")
	}
	_, err := runSlice(cluster.Config{
		Shards: 3, FrontEnd: cluster.RoundRobin, Seed: 1, NewReplica: newReplica(sched.FIFO, 1),
	}, stream(30))
	if err == nil || !strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("replica failure not attributed to its shard: %v", err)
	}
}

// TestRunCatalogMismatch: arrivals name apps by catalog index, so a
// shard listing a different catalog — another order, or an extra app —
// would serve the wrong app for every job; RunSource refuses the run.
func TestRunCatalogMismatch(t *testing.T) {
	reversed := func(_ int, _ int64) (cluster.Replica, error) {
		sys := duet.New(duet.Config{Cores: 1, MemHubs: 1, EFPGAs: 1, Style: duet.StyleDuet})
		sch := sys.SchedulerWrapped(sched.Config{}, nil)
		for i := len(testApps) - 1; i >= 0; i-- {
			a := testApps[i]
			bs := accel.Synthesize(a.name, func() efpga.Accelerator { return stub{} })
			if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: a.fixed, CyclesPerItem: a.per}); err != nil {
				return nil, err
			}
		}
		return &cluster.EngineReplica{Eng: sys.Eng, Sch: sch, Run: func() error { sys.Run(); return nil }}, nil
	}
	extra := func(shard int, seed int64) (cluster.Replica, error) {
		r, err := newReplica(sched.FIFO, -1)(shard, seed)
		if err != nil {
			return nil, err
		}
		bs := accel.Synthesize("Dijkstra", func() efpga.Accelerator { return stub{} })
		return r, r.(*cluster.EngineReplica).Sch.RegisterApp(sched.App{BS: bs, FixedCycles: 8})
	}
	for name, odd := range map[string]func(int, int64) (cluster.Replica, error){"reversed": reversed, "extra": extra} {
		for fe := cluster.FrontEnd(0); fe < cluster.NumFrontEnds; fe++ {
			_, err := runSlice(cluster.Config{
				Shards: 3, FrontEnd: fe,
				NewReplica: func(shard int, seed int64) (cluster.Replica, error) {
					if shard == 2 {
						return odd(shard, seed)
					}
					return newReplica(sched.FIFO, -1)(shard, seed)
				},
			}, stream(4))
			if err == nil || !strings.Contains(err.Error(), "shard 2") || !strings.Contains(err.Error(), "catalog") {
				t.Fatalf("%s catalog on shard 2 under %v: err %v, want a catalog mismatch", name, fe, err)
			}
		}
	}
}

// TestShardSeed: derived seeds are stable and pairwise distinct.
func TestShardSeed(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 16; i++ {
		s := cluster.ShardSeed(1, i)
		if s != cluster.ShardSeed(1, i) {
			t.Fatalf("shard %d seed unstable", i)
		}
		if seen[s] {
			t.Fatalf("shard %d seed collides", i)
		}
		seen[s] = true
	}
}

// TestFrontEndNames pins the front end's text form: JSON output carries
// it as a quoted name, and parsing rejects names String never prints.
func TestFrontEndNames(t *testing.T) {
	for f := cluster.FrontEnd(0); f < cluster.NumFrontEnds; f++ {
		text, err := f.MarshalText()
		var got cluster.FrontEnd
		if err != nil || string(text) != f.String() || got.UnmarshalText(text) != nil || got != f {
			t.Fatalf("round trip %v: text %q err %v, got %v", f, text, err, got)
		}
		if b, err := json.Marshal(f); err != nil || string(b) != `"`+f.String()+`"` {
			t.Fatalf("JSON of %v = %s, %v", f, b, err)
		}
	}
	if cluster.FrontEnd(-1).String() != "unknown" || cluster.NumFrontEnds.String() != "unknown" {
		t.Fatal("out-of-range FrontEnd.String not bounded")
	}
	got := cluster.RoundRobin
	if err := got.UnmarshalText([]byte("fastest")); err == nil || got != cluster.RoundRobin {
		t.Fatalf("unknown front-end name parsed: err %v, front end now %v", err, got)
	}
}
