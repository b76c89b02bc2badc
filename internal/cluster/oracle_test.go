package cluster

import (
	"errors"
	"fmt"
	"reflect"
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
			assign[i] = int(hashApp(stream[i].Job.App) % uint32(n))
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

func (r *recordingReplica) Predict(app string, inputSize int) (sim.Time, bool) {
	return sim.Time(len(app)*400+inputSize*9) * sim.NS, true
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

// oracleStream is a deterministic stream dense enough to build backlog.
func oracleStream(n int) []Arrival {
	apps := []string{"Tangent", "Popcount", "BFS", "Sort"}
	arr := make([]Arrival, n)
	at := sim.Time(0)
	for i := range arr {
		at += sim.Time(1+i%5) * sim.US
		arr[i] = Arrival{At: at, Job: sched.Job{ID: i, App: apps[i*7%len(apps)], InputSize: 16 + i*37%300}}
	}
	return arr
}

// TestRunSourceMatchesOracle holds both RunSource branches — the
// parallel filtered clones and the producer hand-off — to the sequential
// reference, per-shard arrival sequence for arrival sequence.
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
	stream := oracleStream(400)
	for fe := FrontEnd(0); fe < NumFrontEnds; fe++ {
		for name, spec := range specs {
			for _, handoff := range []int{0, 1} {
				for _, shards := range []int{1, 3} {
					t.Run(fmt.Sprintf("%v/%s/handoff=%d/shards=%d", fe, name, handoff, shards), func(t *testing.T) {
						reps := make([]Replica, shards)
						for i := range reps {
							reps[i] = &recordingReplica{workers: 1 + i%2}
						}
						cfg := Config{
							Shards: shards, FrontEnd: fe, Handoff: handoff, Faults: spec,
							NewReplica: func(i int, _ int64) (Replica, error) { return reps[i], nil },
						}
						res, err := RunSource(cfg, NewSliceSource(stream))
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
// producer (its feed is drained) nor lose its shard attribution.
func TestProducerSurvivesShardError(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := RunSource(Config{
			Shards: 3, FrontEnd: LeastOutstanding, Handoff: 1,
			NewReplica: func(i int, _ int64) (Replica, error) {
				return &recordingReplica{workers: 1, failAfter: 3 * (i % 2)}, nil // shard 1 fails
			},
		}, NewSliceSource(oracleStream(5000)))
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
