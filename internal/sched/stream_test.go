package sched_test

import (
	"fmt"
	"slices"
	"testing"

	"duet/internal/efpga"
	"duet/internal/sched"
	"duet/internal/sim"
)

// runStreamWorkload plays an identical job mix through a fresh system in
// the given stats mode and returns the scheduler.
func runStreamWorkload(t *testing.T, mode sched.StatsMode) *sched.Scheduler {
	t.Helper()
	sys, sch := newServeSystem(t, 2, sched.Config{Policy: sched.Affinity, Stats: mode})
	a := mkBitstream("A", efpga.Resources{LUTs: 100}, 100)
	b := mkBitstream("B", efpga.Resources{LUTs: 100}, 200)
	for _, bs := range []*efpga.Bitstream{a, b} {
		if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 2000, CyclesPerItem: 3}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		app := lookup(t, sch, "A")
		if i%3 == 0 {
			app = lookup(t, sch, "B")
		}
		j := &sched.Job{Request: sched.Request{App: app, InputSize: 100 + 37*i}}
		if i%10 == 5 {
			j.Deadline = 1 // 1ps: must miss
		}
		sch.Submit(j)
	}
	sch.Submit(&sched.Job{Request: sched.Request{App: phantom}}) // fails at submit
	sys.Run()
	return sch
}

// TestStreamingStatsMatchExact: in streaming mode every Stats field must
// match exact mode precisely except P50/P99, which carry the digest's
// documented relative error.
func TestStreamingStatsMatchExact(t *testing.T) {
	exact := runStreamWorkload(t, sched.StatsExact).Stats()
	stream := runStreamWorkload(t, sched.StatsStreaming).Stats()

	if stream.Completed != exact.Completed || stream.Failed != exact.Failed ||
		stream.Rejected != exact.Rejected || stream.Reconfigs != exact.Reconfigs ||
		stream.DeadlineMisses != exact.DeadlineMisses {
		t.Fatalf("counters diverged:\nstream %+v\nexact  %+v", stream, exact)
	}
	if stream.Makespan != exact.Makespan || stream.ThroughputPerMS != exact.ThroughputPerMS {
		t.Fatalf("makespan/throughput diverged: %v/%v vs %v/%v",
			stream.Makespan, stream.ThroughputPerMS, exact.Makespan, exact.ThroughputPerMS)
	}
	if stream.MeanWait != exact.MeanWait || stream.MeanService != exact.MeanService {
		t.Fatalf("means diverged: %v/%v vs %v/%v",
			stream.MeanWait, stream.MeanService, exact.MeanWait, exact.MeanService)
	}
	for _, q := range []struct {
		name      string
		got, want sim.Time
	}{{"p50", stream.P50, exact.P50}, {"p99", stream.P99, exact.P99}} {
		if q.got < q.want {
			t.Errorf("%s: streaming %v below exact %v", q.name, q.got, q.want)
		}
		bound := q.want + sim.Time(float64(q.want)*sched.DigestRelError) + 1
		if q.got > bound {
			t.Errorf("%s: streaming %v exceeds exact %v beyond the %.2f%% bound",
				q.name, q.got, q.want, 100*sched.DigestRelError)
		}
	}
	if fmt.Sprintf("%+v", stream.Fabrics) != fmt.Sprintf("%+v", exact.Fabrics) {
		t.Fatalf("fabric stats diverged:\n%+v\n%+v", stream.Fabrics, exact.Fabrics)
	}
}

// TestStreamingOnResultStillFires: the drain hook contract is mode
// independent — front ends harvest per-job results the same way.
func TestStreamingOnResultStillFires(t *testing.T) {
	sys, sch := newServeSystem(t, 1, sched.Config{Policy: sched.FIFO, Stats: sched.StatsStreaming})
	bs := mkBitstream("drain", efpga.Resources{LUTs: 10}, 100)
	if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 1000, CyclesPerItem: 1}); err != nil {
		t.Fatal(err)
	}
	fired := 0
	sch.OnResult = func(j *sched.Job) { fired++ }
	sch.Submit(&sched.Job{Request: sched.Request{App: lookup(t, sch, "drain"), InputSize: 4}})
	sch.Submit(&sched.Job{Request: sched.Request{App: phantom}})
	sys.Run()
	if fired != 2 {
		t.Fatalf("OnResult fired %d times, want 2", fired)
	}
	if st := sch.Stats(); st.Completed != 1 || st.Failed != 1 {
		t.Fatalf("stats = %d completed / %d failed, want 1/1", st.Completed, st.Failed)
	}
}

// TestHarvest: Harvest hands a front end the same samples an OnResult
// collector would gather from the completed jobs, on a run where queued
// jobs time out past their deadline and an unknown app fails at submit.
// Exact mode returns every sojourn in completion order, and Stats'
// makespan and quantiles match the reference; streaming mode returns
// the digest behind Stats' quantiles.
func TestHarvest(t *testing.T) {
	for _, mode := range []sched.StatsMode{sched.StatsExact, sched.StatsStreaming} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, sch := newServeSystem(t, 1, sched.Config{
				Policy: sched.FIFO, Stats: mode, QueueCap: 64,
				Faults: sched.FaultConfig{EnforceDeadlines: true},
			})
			bs := mkBitstream("H", efpga.Resources{LUTs: 10}, 100)
			if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 500, CyclesPerItem: 2}); err != nil {
				t.Fatal(err)
			}
			var refSojourns []sim.Time
			var refWait, refService, refMakespan sim.Time
			sch.OnResult = func(j *sched.Job) {
				refMakespan = max(refMakespan, j.Finish)
				if j.Err != nil {
					return
				}
				refSojourns = append(refSojourns, j.Sojourn())
				refWait += j.Wait()
				refService += j.Service()
			}
			app := lookup(t, sch, "H")
			for i := 0; i < 30; i++ {
				j := &sched.Job{Request: sched.Request{App: app, InputSize: 10 + 7*i}}
				if i%4 == 3 {
					j.Deadline = 1 // 1ps: times out in the queue
				}
				sch.Submit(j)
			}
			sch.Submit(&sched.Job{Request: sched.Request{App: phantom}})
			sys.Run()

			st := sch.Stats()
			if st.TimedOut == 0 || st.Failed <= st.TimedOut || st.Completed == 0 {
				t.Fatalf("want completions, deadline timeouts and another failure: %+v", st.Counters)
			}
			sojourns, d, waits, services := sch.Harvest()
			if waits != refWait || services != refService {
				t.Fatalf("sums %v/%v, OnResult reference %v/%v", waits, services, refWait, refService)
			}
			if mode == sched.StatsExact {
				if d != nil {
					t.Fatal("exact mode returned a digest")
				}
				if !slices.Equal(sojourns, refSojourns) {
					t.Fatalf("sojourns %v, OnResult reference %v", sojourns, refSojourns)
				}
				if st.Makespan != refMakespan {
					t.Fatalf("makespan %v, latest retired finish %v", st.Makespan, refMakespan)
				}
				sorted := slices.Sorted(slices.Values(refSojourns))
				p50, p99 := sched.PercentileSorted(sorted, 50), sched.PercentileSorted(sorted, 99)
				if st.P50 != p50 || st.P99 != p99 {
					t.Fatalf("p50/p99 %v/%v, reference %v/%v", st.P50, st.P99, p50, p99)
				}
				return
			}
			if sojourns != nil {
				t.Fatalf("streaming mode returned %d raw sojourns", len(sojourns))
			}
			if d == nil || d.Count() != uint64(st.Completed) {
				t.Fatalf("digest %v, want one sample per completed job (%d)", d, st.Completed)
			}
			if d.Quantile(50) != st.P50 || d.Quantile(99) != st.P99 {
				t.Fatalf("digest p50/p99 %v/%v, Stats %v/%v", d.Quantile(50), d.Quantile(99), st.P50, st.P99)
			}
		})
	}
}

// TestMeanServiceMatchesStats: the running mean a front end reads on
// every queue bounce equals Stats().MeanService at every retirement of
// a run with timeouts and a submit failure mixed in, in both stats
// modes, and is zero before the first completion.
func TestMeanServiceMatchesStats(t *testing.T) {
	for _, mode := range []sched.StatsMode{sched.StatsExact, sched.StatsStreaming} {
		t.Run(mode.String(), func(t *testing.T) {
			sys, sch := newServeSystem(t, 2, sched.Config{
				Policy: sched.Affinity, Stats: mode, QueueCap: 8,
				Faults: sched.FaultConfig{EnforceDeadlines: true},
			})
			for _, bs := range []*efpga.Bitstream{
				mkBitstream("A", efpga.Resources{LUTs: 100}, 100),
				mkBitstream("B", efpga.Resources{LUTs: 100}, 170),
			} {
				if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 700, CyclesPerItem: 3}); err != nil {
					t.Fatal(err)
				}
			}
			check := func(when string) {
				if got, want := sch.MeanService(), sch.Stats().MeanService; got != want {
					t.Fatalf("%s: MeanService %v, Stats().MeanService %v", when, got, want)
				}
			}
			retired := 0
			sch.OnResult = func(j *sched.Job) {
				retired++
				check(fmt.Sprintf("retirement %d", retired))
			}
			if m := sch.MeanService(); m != 0 {
				t.Fatalf("before any job: MeanService %v, want 0", m)
			}
			a, b := lookup(t, sch, "A"), lookup(t, sch, "B")
			for i := 0; i < 60; i++ {
				j := &sched.Job{Request: sched.Request{App: a, InputSize: 5 + 13*i%97}}
				if i%3 == 0 {
					j.App = b
				}
				if i%7 == 6 {
					j.Deadline = 1 // 1ps: times out in the queue
				}
				sch.Submit(j)
				check(fmt.Sprintf("submission %d", i))
			}
			sch.Submit(&sched.Job{Request: sched.Request{App: phantom}})
			sys.Run()
			check("end of run")
			if st := sch.Stats(); st.Completed == 0 || st.Failed == 0 || retired != st.Completed+st.Failed {
				t.Fatalf("want completions and failures, each retired once: %d retired, %+v", retired, st.Counters)
			}
		})
	}
}
