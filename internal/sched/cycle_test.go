package sched_test

import (
	"testing"

	"duet"
	"duet/internal/efpga"
	"duet/internal/sched"
)

// reprogramAllocs builds a one-fabric cycle scheduler and serves jobs
// that alternate between two apps, so every dispatch reprograms. It
// returns the heap objects one batch of that many jobs allocates, after a
// warm-up batch; system construction and teardown, whose goroutine
// bookkeeping jitters by a few objects, stay outside the count.
func reprogramAllocs(t *testing.T, jobs int) float64 {
	t.Helper()
	sys, sch := newServeSystem(t, 1, sched.Config{Policy: sched.FIFO, Stats: sched.StatsStreaming})
	defer sys.Close()
	apps := []string{"a", "b"}
	for _, name := range apps {
		bs := mkBitstream(name, efpga.Resources{LUTs: 100}, 100)
		if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 1000, CyclesPerItem: 1}); err != nil {
			t.Fatal(err)
		}
	}
	js := make([]sched.Job, jobs)
	const runs = 2
	allocs := testing.AllocsPerRun(runs, func() {
		for i := range js {
			js[i] = sched.Job{Request: sched.Request{App: sched.AppID(i % 2)}}
			sch.Submit(&js[i])
			sys.Run()
		}
	})
	if got := sch.Stats().Reconfigs; got != (runs+1)*jobs {
		t.Fatalf("%d jobs made %d reconfigurations, want one per job", (runs+1)*jobs, got)
	}
	return allocs
}

// TestReprogramChainAllocationFree: the quiesce → program → resume →
// settle chain, the programming engine's stream and the accelerator
// start allocate nothing per reprogram, so a run's heap-object count is
// independent of its job count.
func TestReprogramChainAllocationFree(t *testing.T) {
	small, large := reprogramAllocs(t, 100), reprogramAllocs(t, 1000)
	if small != large {
		t.Fatalf("allocations grow with jobs: %v at 100 jobs, %v at 1000 (%.2f per extra job)",
			small, large, (large-small)/900)
	}
}

// TestDispatchWhileReprogrammingPanics pins the chain's one-slot
// invariant: a worker holds one job at a time, so a second Dispatch
// while a reprogram is in flight is a scheduler bug.
func TestDispatchWhileReprogrammingPanics(t *testing.T) {
	sys := duet.New(duet.Config{Cores: 1, MemHubs: 1, EFPGAs: 1, Style: duet.StyleDuet})
	defer sys.Close()
	be := sched.NewCycleBackend(sys.Eng, sys.Adapter, sys.Fabric)
	bs := mkBitstream("a", efpga.Resources{LUTs: 100}, 100)
	if err := be.Register(bs); err != nil {
		t.Fatal(err)
	}
	be.Bind(func(*sched.Job, error) {})
	app := &sched.App{BS: bs, FixedCycles: 1000}
	be.Dispatch(&sched.Job{ID: 1}, app)
	defer func() {
		if recover() == nil {
			t.Fatal("Dispatch during a pending reprogram did not panic")
		}
	}()
	be.Dispatch(&sched.Job{ID: 2}, app)
}
