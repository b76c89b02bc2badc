package model_test

import (
	"testing"

	"duet/internal/cluster"
	"duet/internal/model"
	"duet/internal/sched"
	"duet/internal/workload"
)

// BenchmarkSchedSubmit is the per-layer bench of sched dispatch on the
// capacity planner's path: 1M pre-built serve requests (30 µs mean gap)
// played one by one into a single model replica — 2 fabrics, affinity,
// streaming stats — through cluster.Drive, which advances the timeline
// to each arrival and calls Submit. Arrival generation, routing and the
// producer hand-off stay outside the measured loop. At this gap the
// queue is mostly empty, so placement rarely scans it.
func BenchmarkSchedSubmit(b *testing.B) {
	benchSchedStream(b, 30)
}

// BenchmarkSchedBacklog is BenchmarkSchedSubmit at a 10 µs mean gap,
// which keeps the 64-slot affinity queue saturated (mean depth about 59,
// over a third of the offers rejected): the backlogged placement scans
// that serve-cycle's shards make. It fails if no offer was rejected,
// so it keeps measuring a backlog.
func BenchmarkSchedBacklog(b *testing.B) {
	if st := benchSchedStream(b, 10); st.Rejected == 0 {
		b.Fatalf("no offer rejected at a 10 µs gap: the queue never filled (%+v)", st.Counters)
	}
}

// benchSchedStream plays 1M pre-built serve requests at the given mean
// gap into a fresh 2-fabric affinity model replica per iteration and
// returns the last iteration's stats.
func benchSchedStream(b *testing.B, gapUS float64) sched.Stats {
	src := workload.NewArrivalSource(workload.ServeConfig{Jobs: 1_000_000, Seed: 1, MeanGapUS: gapUS})
	stream := make([]cluster.Arrival, 0, src.Len())
	for a := (cluster.Arrival{}); src.Next(&a); {
		stream = append(stream, a)
	}
	b.ReportAllocs()
	var st sched.Stats
	for b.Loop() {
		rep := model.NewReplica(model.Config{
			EFPGAs: 2, MemHubs: 1, Policy: sched.Affinity, Stats: sched.StatsStreaming,
		})
		if err := workload.RegisterServeApps(rep.Scheduler()); err != nil {
			b.Fatal(err)
		}
		res, err := rep.PlayStream(&sliceFeed{stream: stream})
		if err != nil {
			b.Fatal(err)
		}
		st = res.Stats
		if st.Completed+st.Failed+st.Rejected != len(stream) || st.Failed != 0 {
			b.Fatalf("accounting: %d completed, %d failed, %d rejected of %d", st.Completed, st.Failed, st.Rejected, len(stream))
		}
	}
	return st
}
