package faults

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"duet/internal/efpga"
	"duet/internal/sched"
	"duet/internal/sim"
)

// TestDrawsDeterministic: draws are pure functions of their key material
// — two injectors over equal plans agree site by site, which is the
// whole determinism story (no RNG stream scheduling order could skew).
func TestDrawsDeterministic(t *testing.T) {
	plan := &Plan{Seed: 42, WedgeProb: 0.3}
	a := NewInjector(plan, 1)
	b := NewInjector(&Plan{Seed: 42, WedgeProb: 0.3}, 1)
	for attempt := 1; attempt <= 200; attempt++ {
		if a.wedge(0, attempt) != b.wedge(0, attempt) {
			t.Fatalf("wedge draw diverged at attempt %d", attempt)
		}
	}
}

// TestDrawsKeyedBySite: changing any key component — seed, shard,
// worker — changes the draw stream; and the wedge and repair classes
// are independent even at equal sites.
func TestDrawsKeyedBySite(t *testing.T) {
	base := NewInjector(&Plan{Seed: 1, WedgeProb: 0.5}, 0)
	seeds := NewInjector(&Plan{Seed: 2, WedgeProb: 0.5}, 0)
	shards := NewInjector(&Plan{Seed: 1, WedgeProb: 0.5}, 1)
	diff := func(other *Injector) bool {
		for attempt := 1; attempt <= 64; attempt++ {
			if base.wedge(0, attempt) != other.wedge(0, attempt) {
				return true
			}
		}
		return false
	}
	if !diff(seeds) {
		t.Error("seed change did not move the wedge stream")
	}
	if !diff(shards) {
		t.Error("shard change did not move the wedge stream")
	}
	workerDiff := false
	for attempt := 1; attempt <= 64; attempt++ {
		if base.wedge(0, attempt) != base.wedge(1, attempt) {
			workerDiff = true
			break
		}
	}
	if !workerDiff {
		t.Error("worker change did not move the wedge stream")
	}
	classDiff := false
	for n := 1; n <= 64; n++ {
		if base.wedge(0, n) != (draw(1, classRepair, 0, 0, uint64(n)) < 0.5) {
			classDiff = true
			break
		}
	}
	if !classDiff {
		t.Error("wedge and repair classes are not independent at equal sites")
	}
}

// TestWedgeRate: over many attempts the wedge frequency tracks the
// plan's probability — the draws really are uniform, not clustered.
func TestWedgeRate(t *testing.T) {
	in := NewInjector(&Plan{Seed: 7, WedgeProb: 0.25}, 0)
	hits := 0
	const n = 10000
	for attempt := 1; attempt <= n; attempt++ {
		if in.wedge(0, attempt) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.22 || rate > 0.28 {
		t.Fatalf("wedge rate %.3f far from plan probability 0.25", rate)
	}
}

func TestFaultConfigPerShard(t *testing.T) {
	plan := &Plan{
		MaxRetries:       3,
		EnforceDeadlines: true,
		ShardDown:        [][]sched.Downtime{nil, {{From: 10, To: 20}}},
	}
	fc := plan.FaultConfig(1)
	if fc.MaxRetries != 3 || !fc.EnforceDeadlines {
		t.Fatalf("shard 1 config %+v lost scheduler knobs", fc)
	}
	if len(fc.Down) != 1 || fc.Down[0] != (sched.Downtime{From: 10, To: 20}) {
		t.Fatalf("shard 1 downtime %+v, want the plan's window", fc.Down)
	}
	if got := plan.FaultConfig(0).Down; got != nil {
		t.Fatalf("shard 0 downtime %+v, want none", got)
	}
	// Shards past the schedule's length never crash; a nil plan renders
	// the zero config.
	if got := plan.FaultConfig(5).Down; got != nil {
		t.Fatalf("shard 5 downtime %+v, want none", got)
	}
	if got := (*Plan)(nil).FaultConfig(0); got.MaxRetries != 0 || got.EnforceDeadlines || got.Down != nil {
		t.Fatalf("nil plan config %+v, want zero", got)
	}
}

func TestWedgeProbPerWorkerOverride(t *testing.T) {
	plan := &Plan{WedgeProb: 0.5, WedgeProbs: []float64{0, 1}}
	if got := plan.wedgeProbFor(0, 0); got != 0 {
		t.Errorf("worker 0 prob %v, want per-worker 0", got)
	}
	if got := plan.wedgeProbFor(0, 1); got != 1 {
		t.Errorf("worker 1 prob %v, want per-worker 1", got)
	}
	if got := plan.wedgeProbFor(0, 2); got != 0.5 {
		t.Errorf("worker 2 prob %v, want fallback 0.5", got)
	}
	// A certain-wedge worker wedges every attempt; a zero-prob worker
	// never does, regardless of the shared fallback.
	in := NewInjector(plan, 0)
	for attempt := 1; attempt <= 32; attempt++ {
		if in.wedge(0, attempt) {
			t.Fatal("zero-probability worker wedged")
		}
		if !in.wedge(1, attempt) {
			t.Fatal("certain-wedge worker did not wedge")
		}
	}
}

// stubBackend records Dispatch/Bind traffic and completes jobs
// synchronously, so the wrapper's interposition is directly observable.
type stubBackend struct {
	reconfig   sim.Time
	service    sim.Time
	dispatched []int
	done       func(*sched.Job, error)
}

func (s *stubBackend) Kind() sched.BackendKind              { return sched.BackendCycle }
func (s *stubBackend) Name() string                         { return "stub" }
func (s *stubBackend) Capacity() efpga.Resources            { return efpga.Resources{} }
func (s *stubBackend) Register(*efpga.Bitstream) error      { return nil }
func (s *stubBackend) Resident() string                     { return "" }
func (s *stubBackend) ReconfigCost(*sched.App) sim.Time     { return s.reconfig }
func (s *stubBackend) ServiceTime(*sched.App, int) sim.Time { return s.service }
func (s *stubBackend) Bind(done func(*sched.Job, error))    { s.done = done }
func (s *stubBackend) Dispatch(j *sched.Job, _ *sched.App) {
	s.dispatched = append(s.dispatched, j.ID)
	s.done(j, nil)
}

// stubTimeline records AfterArg calls without a real engine.
type stubTimeline struct {
	delays []sim.Time
	fns    []func(any)
	args   []any
}

func (tl *stubTimeline) Now() sim.Time { return 0 }

func (tl *stubTimeline) AfterArg(d sim.Time, fn func(any), arg any) {
	tl.delays = append(tl.delays, d)
	tl.fns = append(tl.fns, fn)
	tl.args = append(tl.args, arg)
}

// TestWrapEmptyPlanPassThrough: under an empty plan the wrapper is pure
// pass-through — every dispatch reaches the inner backend, completions
// flow straight through, and the timeline is never touched. This is the
// contract the fault-free overhead benchmark leans on.
func TestWrapEmptyPlanPassThrough(t *testing.T) {
	inner := &stubBackend{reconfig: sim.US, service: 10 * sim.US}
	tl := &stubTimeline{}
	be := NewInjector(&Plan{}, 0).Wrap(tl, 0, inner)

	var completed []int
	be.Bind(func(j *sched.Job, err error) {
		if err != nil {
			t.Fatalf("job %d failed under empty plan: %v", j.ID, err)
		}
		completed = append(completed, j.ID)
	})
	app := &sched.App{}
	for id := 1; id <= 5; id++ {
		be.Dispatch(&sched.Job{ID: id}, app)
	}
	if len(inner.dispatched) != 5 || len(completed) != 5 {
		t.Fatalf("dispatched %v completed %v, want 5 each", inner.dispatched, completed)
	}
	if len(tl.delays) != 0 {
		t.Fatalf("empty plan touched the timeline: %v", tl.delays)
	}
	if be.Kind() != inner.Kind() || be.Name() != inner.Name() ||
		be.ServiceTime(app, 1) != inner.service || be.ReconfigCost(app) != inner.reconfig {
		t.Fatal("wrapper does not delegate the read-only surface")
	}
}

// TestWrapWedgeInterception: a certain-wedge plan never lets a
// reprogramming dispatch reach the inner backend — the job fails after
// the detection occupancy with an error wrapping sched.ErrWedged, and
// Reprogrammed is settled synchronously at dispatch.
func TestWrapWedgeInterception(t *testing.T) {
	inner := &stubBackend{reconfig: sim.US, service: 10 * sim.US}
	tl := &stubTimeline{}
	be := NewInjector(&Plan{Seed: 1, WedgeProb: 1}, 0).Wrap(tl, 0, inner)

	var gotErr error
	be.Bind(func(_ *sched.Job, err error) { gotErr = err })
	j := &sched.Job{ID: 1}
	be.Dispatch(j, &sched.App{BS: &efpga.Bitstream{Name: "Tangent"}})

	if len(inner.dispatched) != 0 {
		t.Fatal("wedged dispatch reached the inner backend")
	}
	if !j.Reprogrammed {
		t.Fatal("wedged attempt did not settle Reprogrammed at dispatch")
	}
	if len(tl.delays) != 1 || tl.delays[0] != WedgeDetect {
		t.Fatalf("detection occupancy %v, want one %v deferral", tl.delays, WedgeDetect)
	}
	tl.fns[0](tl.args[0]) // detection fires
	if !errors.Is(gotErr, sched.ErrWedged) || !strings.Contains(gotErr.Error(), `"Tangent"`) {
		t.Fatalf("completion error %v does not wrap sched.ErrWedged naming the bitstream", gotErr)
	}

	// A placement with no reconfiguration never draws a wedge, even at
	// probability 1: only reprogram attempts can wedge.
	inner.reconfig = 0
	be.Dispatch(&sched.Job{ID: 2}, &sched.App{})
	if len(inner.dispatched) != 1 {
		t.Fatal("resident-app dispatch did not pass through")
	}
}

func TestParseDomains(t *testing.T) {
	got, err := ParseDomains("rack0=0+1@4000-9000; feedA=2@1000-2000,5000-6000~0.8")
	if err != nil {
		t.Fatal(err)
	}
	want := []Domain{
		{Name: "rack0", Shards: []int{0, 1}, Down: []sched.Downtime{{From: 4000 * sim.US, To: 9000 * sim.US}}},
		{Name: "feedA", Shards: []int{2}, WedgeProb: 0.8, Down: []sched.Downtime{
			{From: 1000 * sim.US, To: 2000 * sim.US}, {From: 5000 * sim.US, To: 6000 * sim.US},
		}},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d domains, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.WedgeProb != w.WedgeProb ||
			!slices.Equal(g.Shards, w.Shards) || !slices.Equal(g.Down, w.Down) {
			t.Errorf("domain %d = %+v, want %+v", i, g, w)
		}
	}
	if got, err := ParseDomains("  "); err != nil || got != nil {
		t.Errorf("blank spec = (%v, %v), want no domains", got, err)
	}
	for _, bad := range []string{"=0", "r0=", "r0=x", "r0=0@5", "r0=0@9-3", "r0=0~1.5", "r0=0~x",
		// Bounds past sim.Forever once wrapped to negative times.
		"r=0@0-9300000000000", "r=0@1-9223372036854775807", fmt.Sprintf("r=0@0-%d", sim.Forever/sim.US+1)} {
		if got, err := ParseDomains(bad); err == nil {
			t.Errorf("spec %q parsed without error: %+v", bad, got)
		}
	}
	last := fmt.Sprintf("r=0@0-%d", sim.Forever/sim.US)
	if got, err := ParseDomains(last); err != nil || got[0].Down[0].To != sim.Forever/sim.US*sim.US {
		t.Errorf("spec %q = (%+v, %v), want a window ending at the last representable microsecond", last, got, err)
	}
}

// FuzzParseDomains: whatever the spec, every window ParseDomains
// returns is a nonempty interval at or after time zero, and every member
// shard is a valid index.
func FuzzParseDomains(f *testing.F) {
	for _, seed := range []string{
		"rack0=0+1@4000-9000; feedA=2@1000-2000,5000-6000~0.8",
		"r=0@0-9300000000000", "r0=0@9-3", "r=3", "a=1;;b=2@1-2~0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		doms, err := ParseDomains(spec)
		if err != nil {
			return
		}
		for _, d := range doms {
			for _, s := range d.Shards {
				if s < 0 {
					t.Fatalf("%q: domain %q has shard %d", spec, d.Name, s)
				}
			}
			for _, w := range d.Down {
				if w.From < 0 || w.From >= w.To {
					t.Fatalf("%q: domain %q has window [%v, %v)", spec, d.Name, w.From, w.To)
				}
			}
		}
	})
}

// TestDownForMergesDomains: a shard's effective schedule is its own
// windows merged with every member domain's, coalesced and ascending.
func TestDownForMergesDomains(t *testing.T) {
	plan := &Plan{
		ShardDown: [][]sched.Downtime{{{From: 10, To: 20}}},
		Domains: []Domain{
			{Name: "rack", Shards: []int{0, 1}, Down: []sched.Downtime{{From: 15, To: 30}, {From: 50, To: 60}}},
			{Name: "feed", Shards: []int{1}, Down: []sched.Downtime{{From: 55, To: 70}}},
		},
	}
	if got, want := plan.DownFor(0), []sched.Downtime{{From: 10, To: 30}, {From: 50, To: 60}}; !slices.Equal(got, want) {
		t.Errorf("shard 0 schedule %+v, want %+v", got, want)
	}
	if got, want := plan.DownFor(1), []sched.Downtime{{From: 15, To: 30}, {From: 50, To: 70}}; !slices.Equal(got, want) {
		t.Errorf("shard 1 schedule %+v, want %+v", got, want)
	}
	if got := plan.DownFor(2); got != nil {
		t.Errorf("non-member shard schedule %+v, want none", got)
	}
	eff := plan.EffectiveShardDown(4)
	if len(eff) != 4 || len(eff[0]) != 2 || len(eff[1]) != 2 || eff[2] != nil || eff[3] != nil {
		t.Errorf("effective schedules %+v malformed", eff)
	}
	// Domain-free plans hand back the raw schedule (same backing array).
	bare := &Plan{ShardDown: [][]sched.Downtime{{{From: 1, To: 2}}}}
	if got := bare.DownFor(0); &got[0] != &bare.ShardDown[0][0] {
		t.Error("domain-free DownFor copied the schedule")
	}
	if (&Plan{}).EffectiveShardDown(3) != nil {
		t.Error("windowless plan rendered a non-nil schedule table")
	}
}

// TestDomainWedgeProbRaises: a member domain's probability raises a
// worker's effective wedge probability but never lowers it.
func TestDomainWedgeProbRaises(t *testing.T) {
	plan := &Plan{
		WedgeProb: 0.3,
		Domains:   []Domain{{Name: "rack", Shards: []int{1}, WedgeProb: 0.9}},
	}
	if got := plan.wedgeProbFor(1, 0); got != 0.9 {
		t.Errorf("member shard prob %v, want the domain's 0.9", got)
	}
	if got := plan.wedgeProbFor(0, 0); got != 0.3 {
		t.Errorf("non-member shard prob %v, want the plan's 0.3", got)
	}
	plan.Domains[0].WedgeProb = 0.1
	if got := plan.wedgeProbFor(1, 0); got != 0.3 {
		t.Errorf("lower domain prob gave %v, want the plan's 0.3 kept", got)
	}
}

// TestRepairDelayFor: seeded, backed off and jittered within ±50%.
func TestRepairDelayFor(t *testing.T) {
	plan := &Plan{Seed: 7, RepairDelay: 100 * sim.US}
	twin := &Plan{Seed: 7, RepairDelay: 100 * sim.US}
	for nth := 1; nth <= 3; nth++ {
		d := plan.RepairDelayFor(0, 1, nth)
		if d != twin.RepairDelayFor(0, 1, nth) {
			t.Fatalf("repair delay diverged at nth=%d", nth)
		}
		base := plan.RepairDelay << (nth - 1)
		if d < base/2 || d >= base+base/2 {
			t.Errorf("nth=%d delay %v outside [%v, %v)", nth, d, base/2, base+base/2)
		}
	}
	if got := (&Plan{Seed: 7}).RepairDelayFor(0, 1, 1); got != 0 {
		t.Errorf("repair-free plan delay %v, want 0", got)
	}
	// Backoff caps at 64x: far-out wedges draw bounded delays.
	deep := &Plan{Seed: 7, RepairDelay: 100 * sim.US}
	if d := deep.RepairDelayFor(0, 1, 40); d >= 96*deep.RepairDelay {
		t.Errorf("nth=40 delay %v escaped the 64x backoff cap", d)
	}
	// Different sites draw different jitters (the repair stream is keyed
	// like every other fault class).
	if deep.RepairDelayFor(0, 1, 1) == deep.RepairDelayFor(1, 1, 1) &&
		deep.RepairDelayFor(0, 1, 1) == deep.RepairDelayFor(0, 2, 1) {
		t.Error("repair jitter ignores its site key")
	}
}

// TestFaultConfigRepairClosure: a repairing plan's FaultConfig carries a
// Repair hook that prices delays per shard.
func TestFaultConfigRepairClosure(t *testing.T) {
	plan := &Plan{Seed: 3, RepairDelay: 50 * sim.US}
	fc := plan.FaultConfig(2)
	if fc.Repair == nil {
		t.Fatal("repairing plan rendered no Repair hook")
	}
	if got, want := fc.Repair(1, 1), plan.RepairDelayFor(2, 1, 1); got != want {
		t.Errorf("hook delay %v, want shard-2 pricing %v", got, want)
	}
	if (&Plan{MaxRetries: 1}).FaultConfig(0).Repair != nil {
		t.Error("repair-free plan rendered a Repair hook")
	}
}

// TestWrapScrubForwards: the fault wrapper forwards Scrub to
// scrub-capable inner backends and swallows it otherwise.
func TestWrapScrubForwards(t *testing.T) {
	inner := &scrubBackend{}
	be := NewInjector(&Plan{}, 0).Wrap(&stubTimeline{}, 0, inner)
	sc, ok := be.(sched.Scrubber)
	if !ok {
		t.Fatal("wrapper does not implement sched.Scrubber")
	}
	sc.Scrub()
	if !inner.scrubbed {
		t.Fatal("Scrub did not reach the inner backend")
	}
	// A non-scrubbing inner backend (the CPU soft path) is a no-op.
	NewInjector(&Plan{}, 0).Wrap(&stubTimeline{}, 0, &stubBackend{}).(sched.Scrubber).Scrub()
}

type scrubBackend struct {
	stubBackend
	scrubbed bool
}

func (b *scrubBackend) Scrub() { b.scrubbed = true }
