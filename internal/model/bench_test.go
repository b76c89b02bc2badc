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
// producer hand-off stay outside the measured loop.
func BenchmarkSchedSubmit(b *testing.B) {
	src := workload.NewArrivalSource(workload.ServeConfig{Jobs: 1_000_000, Seed: 1, MeanGapUS: 30})
	stream := make([]cluster.Arrival, 0, src.Len())
	for a := (cluster.Arrival{}); src.Next(&a); {
		stream = append(stream, a)
	}
	b.ReportAllocs()
	for b.Loop() {
		rep := model.NewReplica(model.Config{
			EFPGAs: 2, MemHubs: 1, Policy: sched.Affinity, Stats: sched.StatsStreaming,
		})
		if err := workload.RegisterServeApps(rep.Scheduler()); err != nil {
			b.Fatal(err)
		}
		res, err := rep.PlayStream(cluster.NewSliceSource(stream))
		if err != nil {
			b.Fatal(err)
		}
		if st := res.Stats; st.Completed+st.Failed+st.Rejected != len(stream) || st.Failed != 0 {
			b.Fatalf("accounting: %d completed, %d failed, %d rejected of %d", st.Completed, st.Failed, st.Rejected, len(stream))
		}
	}
}
