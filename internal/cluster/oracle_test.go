package cluster

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"duet/internal/faults"
	"duet/internal/sched"
	"duet/internal/sim"
)

// oracle is the sequential reference front end: route the whole stream
// in order, then reroute arrivals aimed at a down shard, then duplicate
// each arrival whose shard is about to crash onto a healthy backup,
// directly behind its source. It returns each shard's arrival sequence.
func oracle(cfg Config, reps []Replica, stream []Arrival) (perShard [][]Arrival, rerouted, hedged int) {
	n, f := cfg.Shards, cfg.Faults
	assign := make([]int, len(stream))
	lo := newLoadModel(reps)
	for i := range stream {
		switch cfg.FrontEnd {
		case RoundRobin:
			assign[i] = i % n
		case LeastOutstanding:
			assign[i] = lo.route(&stream[i], nil)
		case HealthWeighted:
			assign[i] = lo.route(&stream[i], f)
		default: // HashApp
			assign[i] = int(hashApp(oracleApps[stream[i].App]) % uint32(n))
		}
	}
	if !f.active() {
		f = &FaultSpec{}
	}
	for i, a := range stream {
		if f.downAt(assign[i], a.At) {
			if alt, ok := f.nextHealthy(n, assign[i], a.At); ok {
				assign[i] = alt
				rerouted++
			}
		}
	}
	perShard = make([][]Arrival, n)
	for i, a := range stream {
		perShard[assign[i]] = append(perShard[assign[i]], a)
		if f.Hedge > 0 && f.crashesWithin(assign[i], a.At) {
			if alt, ok := f.nextHealthy(n, assign[i], a.At); ok {
				perShard[alt] = append(perShard[alt], a)
				hedged++
			}
		}
	}
	return perShard, rerouted, hedged
}

// recordingReplica is a routing-only shard: a fixed catalog model and a
// PlayStream that records what its feed delivers. failAfter > 0 makes it
// stop consuming and fail after that many arrivals.
type recordingReplica struct {
	workers   int
	failAfter int
	got       []Arrival
}

// oracleApps is every routing-only shard's catalog, in AppID order.
var oracleApps = []string{"Tangent", "Popcount", "BFS", "Sort"}

func (r *recordingReplica) Apps() []string { return oracleApps }

func (r *recordingReplica) Predict(app sched.AppID, inputSize int) (sim.Time, bool) {
	return sim.Time(len(oracleApps[app])*400+inputSize*9) * sim.NS, true
}

func (r *recordingReplica) Workers() int { return r.workers }

func (r *recordingReplica) PlayStream(feed ArrivalFeed) (ShardResult, error) {
	var a Arrival
	for feed.Next(&a) {
		r.got = append(r.got, a)
		if len(r.got) == r.failAfter {
			return ShardResult{}, errors.New("injected replica failure")
		}
	}
	return ShardResult{}, nil
}

// countingReplica is a recordingReplica that counts its deliveries
// instead of keeping them, so playing a feed allocates nothing and the
// hand-off is all a run costs.
type countingReplica struct {
	recordingReplica
	n int
}

func (r *countingReplica) PlayStream(feed ArrivalFeed) (ShardResult, error) {
	var a Arrival
	for feed.Next(&a) {
		r.n++
	}
	return ShardResult{}, nil
}

// countingConfig is a least-outstanding run over two counting shards.
func countingConfig() Config {
	return Config{
		Shards: 2, FrontEnd: LeastOutstanding,
		NewReplica: func(int, int64) (Replica, error) {
			return &countingReplica{recordingReplica: recordingReplica{workers: 1}}, nil
		},
	}
}

// oracleStream is a deterministic stream dense enough to build backlog.
func oracleStream(n int) []Arrival {
	arr := make([]Arrival, n)
	at := sim.Time(0)
	for i := range arr {
		at += sim.Time(1+i%5) * sim.US
		arr[i] = Arrival{At: at, Request: sched.Request{App: sched.AppID(i * 7 % len(oracleApps)), InputSize: 16 + i*37%300}}
	}
	return arr
}

// TestRunSourceMatchesOracle holds both RunSource branches — the
// parallel filtered clones and the producer hand-off — to the sequential
// reference, per-shard arrival sequence for arrival sequence. On the
// handoff axis, 0 keeps RunSource's fixed bound and 1 shrinks it to a
// single batch per shard, so the producer blocks on each one.
func TestRunSourceMatchesOracle(t *testing.T) {
	us := func(n int) sim.Time { return sim.Time(n) * sim.US }
	rack := &faults.Plan{
		Domains:   []faults.Domain{{Name: "rack0", Shards: []int{0, 1}, Down: []sched.Downtime{{From: us(300), To: us(700)}}}},
		ShardDown: [][]sched.Downtime{nil, nil, {{From: us(900), To: us(1000)}}},
	}
	specs := map[string]*FaultSpec{
		"none":        nil,
		"crash+hedge": {ShardDown: [][]sched.Downtime{nil, {{From: us(200), To: us(600)}}}, Hedge: us(80)},
		"domain+hold": {ShardDown: rack.EffectiveShardDown(3), Hedge: us(60), RecoverHold: us(200)},
	}
	stream := oracleStream(4 * 3 * handoffBatch) // several batches per shard at shards=3
	for fe := FrontEnd(0); fe < NumFrontEnds; fe++ {
		for name, spec := range specs {
			for _, h := range []int{0, 1} {
				for _, shards := range []int{1, 3} {
					t.Run(fmt.Sprintf("%v/%s/handoff=%d/shards=%d", fe, name, h, shards), func(t *testing.T) {
						reps := make([]Replica, shards)
						for i := range reps {
							reps[i] = &recordingReplica{workers: 1 + i%2}
						}
						cfg := Config{
							Shards: shards, FrontEnd: fe, Faults: spec,
							NewReplica: func(i int, _ int64) (Replica, error) { return reps[i], nil },
						}
						bound := handoff
						if h > 0 {
							bound = h
						}
						res, err := runSource(cfg, NewSliceSource(stream), bound)
						if err != nil {
							t.Fatal(err)
						}
						want, rerouted, hedged := oracle(cfg, reps, stream)
						offered := 0
						for i, r := range reps {
							got := r.(*recordingReplica).got
							if !reflect.DeepEqual(got, want[i]) || res.PerShard[i].Assigned != len(want[i]) {
								t.Fatalf("shard %d: got %d arrivals (Assigned %d), oracle %d; sequences differ",
									i, len(got), res.PerShard[i].Assigned, len(want[i]))
							}
							offered += len(want[i])
						}
						if res.Rerouted != rerouted || res.Hedged != hedged || res.Offered != offered {
							t.Fatalf("rerouted/hedged/offered = %d/%d/%d, oracle %d/%d/%d",
								res.Rerouted, res.Hedged, res.Offered, rerouted, hedged, offered)
						}
					})
				}
			}
		}
	}
}

// TestProducerSurvivesShardError: under a stateful front end, a shard
// that fails after pulling a few arrivals must neither block the
// producer (its feed is drained) nor lose its shard attribution. The
// stream is long enough to overfill the failed shard's hand-off channel.
func TestProducerSurvivesShardError(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := RunSource(Config{
			Shards: 3, FrontEnd: LeastOutstanding,
			NewReplica: func(i int, _ int64) (Replica, error) {
				return &recordingReplica{workers: 1, failAfter: 3 * (i % 2)}, nil // shard 1 fails
			},
		}, NewSliceSource(oracleStream(4*3*handoff)))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "shard 1") {
			t.Fatalf("shard failure not attributed to shard 1: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("producer deadlocked on a shard that stopped consuming")
	}
}

// TestProducerRecyclesBatches: the producer's hand-off buffers are a
// fixed set per shard that cycles between producer and shard, so a
// stateful-front-end run allocates the same heap objects at 16 and at
// 128 hand-off bounds' worth of arrivals. The streams are materialized
// before the measured region. The runtime's own goroutine and
// channel-waiter caches add a few objects when goroutines land on fresh
// Ps, so the runs go on one P and each size keeps its fewest of three.
func TestProducerRecyclesBatches(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(stream []Arrival) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			src := NewSliceSource(stream)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := RunSource(countingConfig(), src)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	short, long := oracleStream(16*handoff), oracleStream(128*handoff)
	if s, l := mallocs(short), mallocs(long); s != l {
		t.Fatalf("run allocated %d objects at %d arrivals but %d at %d: the hand-off allocates per batch",
			s, len(short), l, len(long))
	}
}

// BenchmarkRunSourceHandoff times the stateful front ends' hand-off on
// its own: least-outstanding routing of a 1M-arrival materialized stream
// onto two shards that only count what they receive.
func BenchmarkRunSourceHandoff(b *testing.B) {
	stream := oracleStream(1_000_000)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RunSource(countingConfig(), NewSliceSource(stream)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProgressCountsDeliveries: a tapped run counts every arrival a
// shard consumes, hedged duplicates included, and its high-water mark is
// the last delivered instant. Each shard receives more than one flush
// batch, so both the mid-stream and the final flush are exercised.
func TestProgressCountsDeliveries(t *testing.T) {
	spec := &FaultSpec{ShardDown: [][]sched.Downtime{nil, {{From: 200 * sim.US, To: 600 * sim.US}}}, Hedge: 80 * sim.US} // the oracle's crash+hedge
	stream := oracleStream(4 * progressBatch)
	for fe := FrontEnd(0); fe < NumFrontEnds; fe++ {
		t.Run(fe.String(), func(t *testing.T) {
			reps := make([]*recordingReplica, 3)
			p := &Progress{}
			res, err := RunSource(Config{
				Shards: len(reps), FrontEnd: fe, Faults: spec, Progress: p,
				NewReplica: func(i int, _ int64) (Replica, error) {
					reps[i] = &recordingReplica{workers: 1 + i%2}
					return reps[i], nil
				},
			}, NewSliceSource(stream))
			if err != nil {
				t.Fatal(err)
			}
			if res.Hedged == 0 {
				t.Fatal("spec hedged nothing; the test would not count duplicates")
			}
			var last sim.Time
			for _, r := range reps {
				if n := len(r.got); n > 0 && r.got[n-1].At > last {
					last = r.got[n-1].At
				}
			}
			if p.Jobs() != int64(res.Offered) || p.SimAt() != last {
				t.Fatalf("progress jobs/simAt = %d/%v, want offered %d and last delivery %v",
					p.Jobs(), p.SimAt(), res.Offered, last)
			}
		})
	}
}
