package sched_test

import (
	"encoding/json"
	"errors"
	"testing"

	"duet"
	"duet/internal/efpga"
	"duet/internal/sched"
	"duet/internal/sim"
)

// stubAccel is an inert fabric-side model: scheduler tests exercise
// placement and timing, not accelerator behaviour.
type stubAccel struct{}

func (stubAccel) Start(*efpga.Env) {}

// mkBitstream handcrafts a valid bitstream with the given name, resource
// demand and Fmax (image CRC is kept consistent).
func mkBitstream(name string, res efpga.Resources, fmax float64) *efpga.Bitstream {
	return efpga.NewBitstream(name, res, fmax, make([]byte, 64),
		func() efpga.Accelerator { return stubAccel{} })
}

// phantom is an AppID outside every test catalog: Submit fails it as an
// unknown app.
const phantom sched.AppID = 99

// lookup resolves a registered app name to its AppID.
func lookup(t *testing.T, sch *sched.Scheduler, name string) sched.AppID {
	t.Helper()
	id, ok := sch.Lookup(name)
	if !ok {
		t.Fatalf("app %q not registered", name)
	}
	return id
}

func newServeSystem(t *testing.T, efpgas int, cfg sched.Config) (*duet.System, *sched.Scheduler) {
	t.Helper()
	sys := duet.New(duet.Config{Cores: 1, MemHubs: 1, EFPGAs: efpgas, Style: duet.StyleDuet})
	return sys, sys.SchedulerWrapped(cfg, nil)
}

func TestEmptyQueueDrain(t *testing.T) {
	sys, sch := newServeSystem(t, 2, sched.Config{Policy: sched.FIFO})
	sys.Run()
	st := sch.Stats()
	if st.Completed != 0 || st.Failed != 0 || st.Rejected != 0 || st.Reconfigs != 0 {
		t.Fatalf("idle scheduler accumulated stats: %+v", st)
	}
	if sch.QueueLen() != 0 {
		t.Fatalf("queue length = %d, want 0", sch.QueueLen())
	}
	if sys.Eng.Pending() != 0 {
		t.Fatalf("engine left %d pending events", sys.Eng.Pending())
	}
}

func TestOversizedBitstreamFailsGracefully(t *testing.T) {
	sys, sch := newServeSystem(t, 2, sched.Config{Policy: sched.FIFO})
	small := mkBitstream("small", efpga.Resources{LUTs: 100, FFs: 200}, 100)
	big := mkBitstream("big", efpga.Resources{LUTs: 100, FFs: 200, BRAMKb: 1 << 20}, 100)
	for _, bs := range []*efpga.Bitstream{small, big} {
		if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 100, CyclesPerItem: 1}); err != nil {
			t.Fatal(err)
		}
	}
	bigJob := &sched.Job{Request: sched.Request{App: lookup(t, sch, "big"), InputSize: 10}}
	if sch.Submit(bigJob) {
		t.Fatal("over-capacity job was admitted")
	}
	if bigJob.Err == nil {
		t.Fatal("over-capacity job has no error")
	}
	okJob := &sched.Job{Request: sched.Request{App: lookup(t, sch, "small"), InputSize: 10}}
	if !sch.Submit(okJob) {
		t.Fatal("fitting job was not admitted")
	}
	sys.Run()
	st := sch.Stats()
	if st.Completed != 1 || st.Failed != 1 {
		t.Fatalf("completed=%d failed=%d, want 1/1", st.Completed, st.Failed)
	}
	if okJob.Finish == 0 {
		t.Fatal("fitting job never finished")
	}
}

// TestUnknownAppFails: an AppID outside the catalog, above or below it,
// fails at submission through OnResult, without touching a worker.
func TestUnknownAppFails(t *testing.T) {
	sys, sch := newServeSystem(t, 1, sched.Config{})
	if err := sch.RegisterApp(sched.App{BS: mkBitstream("A", efpga.Resources{LUTs: 10}, 100)}); err != nil {
		t.Fatal(err)
	}
	retired := 0
	sch.OnResult = func(*sched.Job) { retired++ }
	for _, id := range []sched.AppID{1, phantom, -1} {
		j := &sched.Job{Request: sched.Request{App: id}}
		if sch.Submit(j) || j.Err == nil || j.Finish != j.Submit {
			t.Fatalf("unknown app id %d admitted (err=%v)", id, j.Err)
		}
	}
	sys.Run()
	if st := sch.Stats(); st.Failed != 3 || retired != 3 || st.Fabrics[0].Jobs != 0 {
		t.Fatalf("unknown ids: %d failed, %d retired, %d placed; want 3/3/0", st.Failed, retired, st.Fabrics[0].Jobs)
	}
}

// TestCatalogLookup: AppIDs are registration indices — Apps lists the
// names in that order and Lookup inverts it.
func TestCatalogLookup(t *testing.T) {
	_, sch := newServeSystem(t, 1, sched.Config{})
	names := []string{"B", "A", "C"}
	for _, name := range names {
		if err := sch.RegisterApp(sched.App{BS: mkBitstream(name, efpga.Resources{LUTs: 10}, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	got := sch.Apps()
	if len(got) != len(names) {
		t.Fatalf("Apps() = %q, want %q", got, names)
	}
	for i, name := range names {
		if got[i] != name {
			t.Fatalf("Apps() = %q, want %q", got, names)
		}
		if id, ok := sch.Lookup(name); !ok || id != sched.AppID(i) {
			t.Fatalf("Lookup(%q) = %d, %v; want %d", name, id, ok, i)
		}
	}
	if _, ok := sch.Lookup("D"); ok {
		t.Fatal("unregistered name resolved")
	}
}

// TestRefuse: a job the front end refuses counts as failed exactly like
// one Submit fails — an ID, a zero-length lifetime, OnResult — and
// leaves the scheduler serving.
func TestRefuse(t *testing.T) {
	sys, sch := newServeSystem(t, 1, sched.Config{})
	if err := sch.RegisterApp(sched.App{BS: mkBitstream("A", efpga.Resources{LUTs: 10}, 100), FixedCycles: 100}); err != nil {
		t.Fatal(err)
	}
	var drained []*sched.Job
	sch.OnResult = func(j *sched.Job) { drained = append(drained, j) }
	bad := &sched.Job{}
	sch.Refuse(bad, errors.New("bad field"))
	good := &sched.Job{}
	if !sch.Submit(good) {
		t.Fatal("valid job after a refusal not admitted")
	}
	sys.Run()
	if bad.ID != 1 || good.ID != 2 || bad.Err == nil || bad.Finish != bad.Submit {
		t.Fatalf("refused job %+v, next job id %d", bad, good.ID)
	}
	if st := sch.Stats(); st.Failed != 1 || st.Completed != 1 || len(drained) != 2 || drained[0] != bad {
		t.Fatalf("after refusal: %d failed, %d completed, %d retired", st.Failed, st.Completed, len(drained))
	}
}

// runAlternating submits A,B then B,A pairs and returns the total
// reconfiguration count under the given policy.
func runAlternating(t *testing.T, policy sched.Policy) sched.Stats {
	t.Helper()
	sys, sch := newServeSystem(t, 2, sched.Config{Policy: policy})
	// Equal-length jobs: neither fabric drains its own app's work early
	// and steals the other's, so reuse-aware placement never reprograms
	// after the initial installs (a work-conserving policy may steal —
	// and reprogram — when its resident app runs dry).
	a := mkBitstream("A", efpga.Resources{LUTs: 100}, 100)
	b := mkBitstream("B", efpga.Resources{LUTs: 100}, 100)
	for _, bs := range []*efpga.Bitstream{a, b} {
		if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 3000, CyclesPerItem: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, app := range []string{"A", "B", "B", "A", "B", "A", "B", "A"} {
		if !sch.Submit(&sched.Job{Request: sched.Request{App: lookup(t, sch, app)}}) {
			t.Fatalf("job %q not admitted", app)
		}
	}
	sys.Run()
	st := sch.Stats()
	if st.Completed != 8 {
		t.Fatalf("policy %v completed %d/8 jobs", policy, st.Completed)
	}
	if sch.QueueLen() != 0 {
		t.Fatalf("policy %v left %d queued jobs", policy, sch.QueueLen())
	}
	return st
}

func TestAffinityAvoidsRedundantReprogramming(t *testing.T) {
	aff := runAlternating(t, sched.Affinity)
	fifo := runAlternating(t, sched.FIFO)
	// Two fabrics, two apps: reuse-aware placement programs each fabric
	// exactly once; naive FIFO flips bitstreams back and forth.
	if aff.Reconfigs != 2 {
		t.Fatalf("affinity reconfigs = %d, want 2", aff.Reconfigs)
	}
	if fifo.Reconfigs <= 2 {
		t.Fatalf("fifo reconfigs = %d, want > 2", fifo.Reconfigs)
	}
}

func TestBoundedQueueRejects(t *testing.T) {
	sys, sch := newServeSystem(t, 1, sched.Config{Policy: sched.FIFO, QueueCap: 2})
	a := mkBitstream("A", efpga.Resources{LUTs: 100}, 100)
	if err := sch.RegisterApp(sched.App{BS: a, FixedCycles: 1000, CyclesPerItem: 1}); err != nil {
		t.Fatal(err)
	}
	admitted := 0
	for i := 0; i < 5; i++ {
		if sch.Submit(&sched.Job{Request: sched.Request{App: lookup(t, sch, "A")}}) {
			admitted++
		}
	}
	// One job dispatches immediately, two wait in the bounded queue, the
	// remaining two bounce.
	if rej := sch.Stats().Rejected; admitted != 3 || rej != 2 {
		t.Fatalf("admitted=%d rejected=%d, want 3/2", admitted, rej)
	}
	sys.Run()
	if st := sch.Stats(); st.Completed != 3 {
		t.Fatalf("completed = %d, want 3", st.Completed)
	}
}

func TestStatsAccounting(t *testing.T) {
	sys, sch := newServeSystem(t, 1, sched.Config{Policy: sched.SJF})
	a := mkBitstream("A", efpga.Resources{LUTs: 100}, 100)
	if err := sch.RegisterApp(sched.App{BS: a, FixedCycles: 1000, CyclesPerItem: 2}); err != nil {
		t.Fatal(err)
	}
	j := &sched.Job{Request: sched.Request{App: lookup(t, sch, "A"), InputSize: 500, Deadline: 1}} // 1ps: must miss
	sch.Submit(j)
	sys.Run()
	st := sch.Stats()
	if st.Completed != 1 || st.DeadlineMisses != 1 {
		t.Fatalf("completed=%d misses=%d, want 1/1", st.Completed, st.DeadlineMisses)
	}
	if !j.Reprogrammed || j.Wait() != 0 || j.Service() <= 0 || j.Sojourn() != j.Finish-j.Submit {
		t.Fatalf("job accounting off: %+v", j)
	}
	if len(st.Fabrics) != 1 || st.Fabrics[0].Jobs != 1 || st.Fabrics[0].Reconfigs != 1 {
		t.Fatalf("fabric stats off: %+v", st.Fabrics)
	}
	if st.Fabrics[0].Utilization <= 0 || st.Fabrics[0].Utilization > 1 {
		t.Fatalf("utilization = %v", st.Fabrics[0].Utilization)
	}
}

// TestPolicyNames pins the policy's text form: the -policy flag parses
// it, and JSON output carries it as a quoted name.
func TestPolicyNames(t *testing.T) {
	for p := sched.Policy(0); p < sched.NumPolicies; p++ {
		text, err := p.MarshalText()
		var got sched.Policy
		if err != nil || string(text) != p.String() || got.UnmarshalText(text) != nil || got != p {
			t.Fatalf("round trip %v: text %q err %v, got %v", p, text, err, got)
		}
		if b, err := json.Marshal(p); err != nil || string(b) != `"`+p.String()+`"` {
			t.Fatalf("JSON of %v = %s, %v", p, b, err)
		}
	}
	if sched.Policy(99).String() != "unknown" {
		t.Fatalf("out-of-range policy prints %q", sched.Policy(99).String())
	}
	got := sched.SJF
	if err := got.UnmarshalText([]byte("nonesuch")); err == nil || got != sched.SJF {
		t.Fatalf("bogus policy name parsed: err %v, policy now %v", err, got)
	}
}

// TestHeterogeneousCapacityPlacement: an admitted job must wait for a
// fabric that fits its bitstream, never be killed on a too-small one.
func TestHeterogeneousCapacityPlacement(t *testing.T) {
	sys, sch := newServeSystem(t, 2, sched.Config{Policy: sched.FIFO})
	sys.Fabrics[1].Cap = efpga.Resources{LUTs: 50, FFs: 50} // fabric 1 too small
	big := mkBitstream("big", efpga.Resources{LUTs: 1000}, 100)
	if err := sch.RegisterApp(sched.App{BS: big, FixedCycles: 1000, CyclesPerItem: 1}); err != nil {
		t.Fatal(err)
	}
	j1, j2 := &sched.Job{Request: sched.Request{App: lookup(t, sch, "big")}}, &sched.Job{Request: sched.Request{App: lookup(t, sch, "big")}}
	if !sch.Submit(j1) || !sch.Submit(j2) {
		t.Fatal("fitting jobs not admitted")
	}
	sys.Run()
	st := sch.Stats()
	if st.Completed != 2 || st.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 2/0", st.Completed, st.Failed)
	}
	if st.Fabrics[0].Jobs != 2 || st.Fabrics[1].Jobs != 0 {
		t.Fatalf("placement = %d/%d jobs, want both on fabric 0", st.Fabrics[0].Jobs, st.Fabrics[1].Jobs)
	}
	if j2.Wait() <= 0 {
		t.Fatal("second job should have waited for the only fitting fabric")
	}
}

// TestProgrammingFailureRestoresHubs: a failed reprogram must restore the
// pre-quiesce hub state and leave the scheduler serviceable: the next job
// on the same backend, for a third app, reprograms (the failed chain
// released its pending slot), serves, and leaves the hubs enabled.
func TestProgrammingFailureRestoresHubs(t *testing.T) {
	sys, sch := newServeSystem(t, 1, sched.Config{Policy: sched.FIFO})
	good := mkBitstream("good", efpga.Resources{LUTs: 100}, 100)
	bad := mkBitstream("bad", efpga.Resources{LUTs: 100}, 100)
	other := mkBitstream("other", efpga.Resources{LUTs: 100}, 100)
	for _, bs := range []*efpga.Bitstream{good, bad, other} {
		if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 1000, CyclesPerItem: 1}); err != nil {
			t.Fatal(err)
		}
	}
	bad.Corrupt() // stale CRC: Configure must reject it

	sch.Submit(&sched.Job{Request: sched.Request{App: lookup(t, sch, "good")}}) // serves; scheduler grants the hub
	failing := &sched.Job{Request: sched.Request{App: lookup(t, sch, "bad")}}
	sch.Submit(failing)
	sys.Run()
	if failing.Err == nil {
		t.Fatal("corrupted bitstream job did not fail")
	}
	// The failed job's fabric occupancy must be inside the reported
	// makespan: utilization stays a fraction.
	if u := sch.Stats().Fabrics[0].Utilization; u <= 0 || u > 1 {
		t.Fatalf("utilization = %v with a failure-tailed run", u)
	}
	if !sys.Adapter.Hub(0).Enabled() {
		t.Fatal("memory hub left quiesced after programming failure")
	}
	// The worker must still be serviceable.
	again := &sched.Job{Request: sched.Request{App: lookup(t, sch, "other")}}
	sch.Submit(again)
	sys.Run()
	st := sch.Stats()
	if st.Completed != 2 || st.Failed != 1 || again.Finish == 0 {
		t.Fatalf("completed=%d failed=%d finish=%v after recovery", st.Completed, st.Failed, again.Finish)
	}
	if !again.Reprogrammed {
		t.Fatal("job for a non-resident app after the failure did not reprogram")
	}
	if got := sys.Fabric.Current().Name; got != "other" {
		t.Fatalf("resident = %q after the recovery reprogram, want other", got)
	}
	if !sys.Adapter.Hub(0).Enabled() {
		t.Fatal("memory hub left quiesced after the recovery reprogram")
	}
}

// TestPredictAndWorkers: the exported catalog model must match the
// occupancy SJF ranks by — FixedCycles + n*CyclesPerItem fabric cycles at
// the bitstream's Fmax — and reject unknown apps; Workers reports the
// eFPGA pool size the cluster front end plans against.
func TestPredictAndWorkers(t *testing.T) {
	sys, sch := newServeSystem(t, 3, sched.Config{Policy: sched.SJF})
	_ = sys
	if sch.Workers() != 3 {
		t.Fatalf("workers = %d, want 3", sch.Workers())
	}
	bs := mkBitstream("model", efpga.Resources{LUTs: 10}, 100) // 100 MHz -> 10ns period
	if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 50, CyclesPerItem: 2}); err != nil {
		t.Fatal(err)
	}
	est, ok := sch.Predict(lookup(t, sch, "model"), 25)
	if !ok {
		t.Fatal("registered app not predictable")
	}
	// (50 + 25*2) cycles * 10ns = 1us.
	if want := sim.Time(1 * sim.US); est != want {
		t.Fatalf("predicted occupancy = %v, want %v", est, want)
	}
	for _, id := range []sched.AppID{1, phantom, -1} {
		if _, ok := sch.Predict(id, 1); ok {
			t.Fatalf("unknown app id %d predicted", id)
		}
	}
}

// TestOnResultDrain: the result hook must fire once per completed or
// failed job at its finish instant, in completion order, and never for
// queue-capacity rejections.
func TestOnResultDrain(t *testing.T) {
	sys, sch := newServeSystem(t, 1, sched.Config{Policy: sched.FIFO, QueueCap: 1})
	bs := mkBitstream("drain", efpga.Resources{LUTs: 10}, 100)
	if err := sch.RegisterApp(sched.App{BS: bs, FixedCycles: 1000, CyclesPerItem: 1}); err != nil {
		t.Fatal(err)
	}
	var drained []*sched.Job
	var finishes []sim.Time
	sch.OnResult = func(j *sched.Job) {
		drained = append(drained, j)
		finishes = append(finishes, sys.Eng.Now())
	}
	sch.Submit(&sched.Job{Request: sched.Request{App: lookup(t, sch, "drain"), InputSize: 4}}) // served immediately
	sch.Submit(&sched.Job{Request: sched.Request{App: phantom, InputSize: 4}})                 // fails at submit
	sch.Submit(&sched.Job{Request: sched.Request{App: lookup(t, sch, "drain"), InputSize: 4}}) // queued
	sch.Submit(&sched.Job{Request: sched.Request{App: lookup(t, sch, "drain"), InputSize: 4}}) // bounced: queue full
	sys.Run()
	if len(drained) != 3 {
		t.Fatalf("hook fired %d times, want 3 (2 completed + 1 failed, rejection silent)", len(drained))
	}
	if rej := sch.Stats().Rejected; rej != 1 {
		t.Fatalf("rejected = %d, want 1", rej)
	}
	for i, j := range drained {
		if j.Finish != finishes[i] {
			t.Fatalf("hook %d fired at %v, job finished at %v", i, finishes[i], j.Finish)
		}
		if i > 0 && finishes[i] < finishes[i-1] {
			t.Fatalf("hook out of completion order: %v after %v", finishes[i], finishes[i-1])
		}
	}
	if c := sch.Stats().Counters; c.Completed != 2 || c.Failed != 1 {
		t.Fatalf("counters: %d completed, %d failed; want 2/1", c.Completed, c.Failed)
	}
}
