package model_test

import (
	"reflect"
	"testing"

	"duet"
	"duet/internal/cluster"
	"duet/internal/efpga"
	"duet/internal/model"
	"duet/internal/sched"
	"duet/internal/sim"
)

type stubAccel struct{}

func (stubAccel) Start(*efpga.Env) {}

func mkBitstream(name string, res efpga.Resources, fmax float64, imageLen int) *efpga.Bitstream {
	return efpga.NewBitstream(name, res, fmax, make([]byte, imageLen),
		func() efpga.Accelerator { return stubAccel{} })
}

// TestReprogramCostMatchesCycleChain pins the shared analytic formula to
// the cycle backend's actual event chain: a job that forces a reprogram
// on a real adapter must finish exactly ReprogramCost + service after
// dispatch.
func TestReprogramCostMatchesCycleChain(t *testing.T) {
	for _, hubs := range []int{1, 2, 4} {
		sys := duet.New(duet.Config{Cores: 1, MemHubs: hubs, EFPGAs: 1, Style: duet.StyleDuet})
		sch := sys.SchedulerWrapped(sched.Config{Policy: sched.FIFO}, nil)
		bs := mkBitstream("app", efpga.Resources{LUTs: 100}, 250, 640)
		app := sched.App{BS: bs, FixedCycles: 1000, CyclesPerItem: 2}
		if err := sch.RegisterApp(app); err != nil {
			t.Fatal(err)
		}
		j := &sched.Job{Request: sched.Request{App: 0, InputSize: 33}}
		sch.Submit(j)
		sys.Run()
		if !j.Reprogrammed || j.Err != nil {
			t.Fatalf("hubs=%d: job not served via reprogram: %+v", hubs, j)
		}
		app.Finalize()
		want := sched.ReprogramCost(&app, hubs, 1000, app.Period()) +
			sim.Time(app.Cycles(33))*app.Period()
		if got := j.Service(); got != want {
			t.Fatalf("hubs=%d: cycle chain served in %v, analytic formula says %v", hubs, got, want)
		}
	}
}

// catalogs must price identically on every backend: the model fabric's
// ServiceTime and ReconfigCost must equal the cycle backend's.
func TestBackendEstimatesAgree(t *testing.T) {
	sys := duet.New(duet.Config{Cores: 1, MemHubs: 2, EFPGAs: 1, Style: duet.StyleDuet})
	cyc := sched.NewCycleBackend(sys.Eng, sys.Adapters[0], sys.Fabrics[0])
	mdl := model.NewFabric(&model.Events{}, model.FabricParams{Name: "efpga0", Hubs: 2})
	cyc.Bind(nil)
	mdl.Bind(nil)
	bs := mkBitstream("app", efpga.Resources{LUTs: 100}, 330, 1024)
	app := sched.App{BS: bs, FixedCycles: 500, CyclesPerItem: 3}
	app.Finalize()
	if got, want := mdl.ServiceTime(&app, 77), cyc.ServiceTime(&app, 77); got != want {
		t.Fatalf("service estimates diverge: model %v, cycle %v", got, want)
	}
	if got, want := mdl.ReconfigCost(&app), cyc.ReconfigCost(&app); got != want {
		t.Fatalf("reconfig estimates diverge: model %v, cycle %v", got, want)
	}
}

// TestCPUBackendServes: a scheduler over one CPU soft-path worker runs
// every job at the calibrated slowdown, with no reconfigurations.
func TestCPUBackendServes(t *testing.T) {
	ev := &model.Events{}
	cpu := model.NewCPU(ev, "cpu0")
	sch := sched.New(ev, []sched.Backend{cpu}, sched.Config{Policy: sched.FIFO})
	bs := mkBitstream("app", efpga.Resources{LUTs: 100}, 100, 64) // 100 MHz: 10ns cycle
	if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 100, CyclesPerItem: 0}); err != nil {
		t.Fatal(err)
	}
	j := &sched.Job{Request: sched.Request{App: 0}}
	sch.Submit(j)
	ev.Drain()
	// 100 cycles * 10ns * 4.53x slowdown = 4.53us.
	if want := sim.Time(4530 * sim.NS); j.Service() != want {
		t.Fatalf("soft-path service = %v, want %v", j.Service(), want)
	}
	st := sch.Stats()
	if st.Completed != 1 || st.Reconfigs != 0 || j.Reprogrammed {
		t.Fatalf("soft path accounted wrong: %+v job %+v", st, j)
	}
	if st.Fabrics[0].Name != "cpu0" {
		t.Fatalf("worker name %q", st.Fabrics[0].Name)
	}
}

// TestHybridSpill: under the Hybrid policy, a saturating burst spills
// onto the CPU worker once waiting for the busy fabric is modeled to
// lose, while a light load stays entirely on the fabric.
func TestHybridSpill(t *testing.T) {
	build := func() (*model.Events, *sched.Scheduler) {
		ev := &model.Events{}
		fab := model.NewFabric(ev, model.FabricParams{Name: "efpga0", Hubs: 1})
		cpu := model.NewCPU(ev, "cpu0")
		sch := sched.New(ev, []sched.Backend{fab, cpu}, sched.Config{Policy: sched.Hybrid, QueueCap: 64})
		bs := mkBitstream("app", efpga.Resources{LUTs: 100}, 100, 64)
		if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 100_000, CyclesPerItem: 0}); err != nil {
			t.Fatal(err)
		}
		return ev, sch
	}

	// Light load: one job at a time; the fabric takes everything.
	ev, sch := build()
	for i := 0; i < 3; i++ {
		sch.Submit(&sched.Job{Request: sched.Request{App: 0}})
		ev.Drain()
	}
	st := sch.Stats()
	if st.Fabrics[0].Jobs != 3 || st.Fabrics[1].Jobs != 0 {
		t.Fatalf("light load spilled: fabric=%d cpu=%d", st.Fabrics[0].Jobs, st.Fabrics[1].Jobs)
	}

	// Burst: 8 jobs at once. The fabric serves the head; with 4.53x
	// slowdown a CPU run beats waiting behind several queued jobs, so
	// the tail spills.
	ev, sch = build()
	for i := 0; i < 8; i++ {
		sch.Submit(&sched.Job{Request: sched.Request{App: 0}})
	}
	ev.Drain()
	st = sch.Stats()
	if st.Completed != 8 {
		t.Fatalf("completed %d of 8", st.Completed)
	}
	if st.Fabrics[1].Jobs == 0 {
		t.Fatal("saturating burst never spilled to the CPU soft path")
	}
	if st.Fabrics[0].Jobs == 0 {
		t.Fatal("hybrid abandoned the fabric entirely")
	}
}

// TestHybridOversizedBitstreamTakesSoftPath: a bitstream no fabric can
// hold is admitted and served by the CPU worker — the software fallback
// the spill policy guarantees.
func TestHybridOversizedBitstreamTakesSoftPath(t *testing.T) {
	ev := &model.Events{}
	fab := model.NewFabric(ev, model.FabricParams{Name: "efpga0", Hubs: 1})
	cpu := model.NewCPU(ev, "cpu0")
	sch := sched.New(ev, []sched.Backend{fab, cpu}, sched.Config{Policy: sched.Hybrid})
	bs := mkBitstream("huge", efpga.Resources{LUTs: 1 << 30}, 100, 64)
	if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 100, CyclesPerItem: 1}); err != nil {
		t.Fatal(err)
	}
	j := &sched.Job{Request: sched.Request{App: 0, InputSize: 16}}
	if !sch.Submit(j) {
		t.Fatal("oversized-for-fabric job rejected despite the soft path")
	}
	ev.Drain()
	if j.Err != nil || j.Finish == 0 {
		t.Fatalf("soft-path fallback failed: %+v", j)
	}
	st := sch.Stats()
	if st.Fabrics[1].Jobs != 1 || st.Fabrics[0].Jobs != 0 {
		t.Fatalf("oversized job placed wrong: %+v", st.Fabrics)
	}
}

// TestMixedFidelityScheduler: one scheduler over a cycle-level worker
// AND an analytic model worker on the same engine — the decoupling the
// Backend interface buys. Two identical jobs submitted back to back land
// one per worker and finish at the same instant, since both backends
// charge the same reprogram + service model.
func TestMixedFidelityScheduler(t *testing.T) {
	sys := duet.New(duet.Config{Cores: 1, MemHubs: 1, EFPGAs: 1, Style: duet.StyleDuet})
	backends := append(
		sched.CycleBackends(sys.Eng, sys.Adapters, sys.Fabrics),
		model.NewFabric(sys.Eng, model.FabricParams{Name: "model0", Hubs: 1}),
	)
	sch := sched.New(sys.Eng, backends, sched.Config{Policy: sched.FIFO})
	bs := mkBitstream("app", efpga.Resources{LUTs: 100}, 200, 320)
	if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 5000, CyclesPerItem: 1}); err != nil {
		t.Fatal(err)
	}
	j1, j2 := &sched.Job{Request: sched.Request{App: 0, InputSize: 64}}, &sched.Job{Request: sched.Request{App: 0, InputSize: 64}}
	sch.Submit(j1)
	sch.Submit(j2)
	sys.Run()
	st := sch.Stats()
	if st.Completed != 2 || st.Fabrics[0].Jobs != 1 || st.Fabrics[1].Jobs != 1 {
		t.Fatalf("mixed pool placement off: %+v", st.Fabrics)
	}
	if j1.Finish != j2.Finish || j1.Service() != j2.Service() {
		t.Fatalf("cycle worker served in %v, model worker in %v — cost models diverge",
			j1.Service(), j2.Service())
	}
}

// TestEventsOrdering: the analytic timeline must run same-instant
// callbacks in scheduling order and interleave RunBefore boundaries the
// way the engine orders pre-scheduled arrivals against completions.
func TestEventsOrdering(t *testing.T) {
	ev := &model.Events{}
	var got []int
	rec := func(a any) { got = append(got, a.(int)) }
	ev.AfterArg(10, rec, 1)
	ev.AfterArg(5, rec, 2)
	ev.AfterArg(10, rec, 3) // same instant as 1: scheduling order
	ev.AfterArg(7, rec, 4)
	ev.RunBefore(10) // strictly-before: 2 (t=5), 4 (t=7) only
	if ev.Now() != 10 {
		t.Fatalf("RunBefore left now=%v", ev.Now())
	}
	if !reflect.DeepEqual(got, []int{2, 4}) {
		t.Fatalf("RunBefore ran %v", got)
	}
	ev.Drain()
	if !reflect.DeepEqual(got, []int{2, 4, 1, 3}) {
		t.Fatalf("Drain order %v", got)
	}
	if ev.Now() != 10 {
		t.Fatalf("Drain left now=%v", ev.Now())
	}
}

// retireCounter is a sched.Observer that collects the distinct job
// records retired over a run.
type retireCounter map[*sched.Job]struct{}

func (c retireCounter) Observe(e sched.Event) {
	if e.Kind == sched.EventRetire {
		c[e.Job] = struct{}{}
	}
}

// TestDriveRecyclesJobs: neither stats mode keeps a reference to a
// retired job, so cluster.Drive recycles job records in both. Over a
// saturating run with queue bounces and submit-time failures, the
// distinct records ever retired stay within what can be live at once:
// the queue, one per worker, and the submission in hand.
func TestDriveRecyclesJobs(t *testing.T) {
	const jobs, queueCap = 4000, 8
	for _, mode := range []sched.StatsMode{sched.StatsExact, sched.StatsStreaming} {
		t.Run(mode.String(), func(t *testing.T) {
			r := model.NewReplica(model.Config{
				EFPGAs: 2, MemHubs: 1, Policy: sched.FIFO, QueueCap: queueCap, Stats: mode,
			})
			sch := r.Scheduler()
			for _, name := range []string{"A", "B"} {
				bs := mkBitstream(name, efpga.Resources{LUTs: 100}, 100, 64)
				if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 2000, CyclesPerItem: 2}); err != nil {
					t.Fatal(err)
				}
			}
			arr := make([]cluster.Arrival, jobs)
			for i := range arr {
				arr[i] = cluster.Arrival{At: sim.Time(i) * 12 * sim.US, Request: sched.Request{
					App: sched.AppID(i % 2), InputSize: 100 + (i*37)%2000,
				}}
				if i%50 == 7 {
					arr[i].App = 9 // outside the catalog: fails at submit
				}
			}
			seen := retireCounter{}
			sch.SetObserver(seen)
			sr, err := cluster.Drive(&sliceFeed{stream: arr}, r, nil)
			if err != nil {
				t.Fatal(err)
			}
			c := sr.Stats.Counters
			if c.Completed == 0 || c.Failed == 0 || c.Rejected == 0 || c.Completed+c.Failed+c.Rejected != jobs {
				t.Fatalf("want completions, failures and queue bounces summing to %d: %+v", jobs, c)
			}
			if bound := queueCap + sch.Workers() + 1; len(seen) > bound {
				t.Fatalf("%d distinct job records retired, want at most %d", len(seen), bound)
			}
		})
	}
}

// sliceFeed plays a pre-built stream as a cluster.ArrivalFeed.
type sliceFeed struct {
	stream []cluster.Arrival
	i      int
}

func (f *sliceFeed) Next(a *cluster.Arrival) bool {
	if f.i >= len(f.stream) {
		return false
	}
	*a = f.stream[f.i]
	f.i++
	return true
}
