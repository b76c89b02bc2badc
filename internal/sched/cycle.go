package sched

import (
	"fmt"

	"duet/internal/core"
	"duet/internal/efpga"
	"duet/internal/sim"
)

// CycleBackend is the cycle-level execution backend: one eFPGA (fabric)
// behind its Duet Adapter. Dispatch drives the driver's real
// reconfiguration flow — quiesce the Memory Hubs, run the programming
// engine (the same streaming + integrity model behind RegProgram),
// re-enable the hubs, wait out the configuration settle — and then
// occupies the fabric for the job's modeled service time on the fabric
// clock. This is the original scheduler path, extracted behind the
// Backend interface; its event sequence is unchanged.
//
// The reprogram flow is a pre-built chain of four events — quiescedFn →
// programmedFn → resumedFn → settledFn — built once in NewCycleBackend.
// The in-flight reprogram rides in the pend* fields (a worker holds one
// job at a time, so one slot suffices), and a reprogram schedules no
// closure.
type CycleBackend struct {
	eng *sim.Engine
	ad  *core.Adapter
	fab *efpga.Fabric

	done func(*Job, error)
	// toggles is the hub feature-switch round trips per quiesce or
	// resume: one per Memory Hub, at least one.
	toggles int64
	// finishFn is the one service-completion callback: Dispatch
	// schedules it with the job as the event argument, so the resident
	// fast path allocates no closure.
	finishFn func(any)

	// The reprogram chain's pre-built steps and its one pending slot:
	// the job, its app, the pre-quiesce hub mask and the bitstream id.
	// pendJob is nil while no chain is in flight.
	quiescedFn   func()
	programmedFn func(error)
	resumedFn    func()
	settledFn    func()
	pendJob      *Job
	pendApp      *App
	pendSaved    uint64
	pendID       int

	// scrubbed marks the configuration state discarded by a repair's
	// probationary Scrub: Resident reports unprogrammed until the next
	// reprogramming dispatch clears it. The adapter's actual resident
	// image is untouched — the point is only that the next placement
	// prices and pays a full reconfiguration, exactly as the analytic
	// model backend does after its own Scrub.
	scrubbed bool
}

// NewCycleBackend wraps an adapter/fabric pair as an execution backend.
func NewCycleBackend(eng *sim.Engine, ad *core.Adapter, fab *efpga.Fabric) *CycleBackend {
	b := &CycleBackend{eng: eng, ad: ad, fab: fab, toggles: max(int64(len(ad.Hubs())), 1)}
	b.finishFn = func(a any) { b.done(a.(*Job), nil) }
	b.quiescedFn = b.quiesced
	b.programmedFn = b.programmed
	b.resumedFn = b.resumed
	b.settledFn = b.settled
	return b
}

// CycleBackends wraps each adapter/fabric pair (one backend per pair).
func CycleBackends(eng *sim.Engine, adapters []*core.Adapter, fabrics []*efpga.Fabric) []Backend {
	if len(adapters) != len(fabrics) {
		panic("sched: adapter/fabric count mismatch")
	}
	bes := make([]Backend, len(adapters))
	for i := range adapters {
		bes[i] = NewCycleBackend(eng, adapters[i], fabrics[i])
	}
	return bes
}

// Kind reports BackendCycle.
func (b *CycleBackend) Kind() BackendKind { return BackendCycle }

// Name is the fabric's name.
func (b *CycleBackend) Name() string { return b.fab.Name }

// Capacity is the fabric's reconfigurable resource budget.
func (b *CycleBackend) Capacity() efpga.Resources { return b.fab.Cap }

// Register adds the bitstream to the fabric's image library.
func (b *CycleBackend) Register(bs *efpga.Bitstream) error {
	_, err := b.fab.Register(bs)
	return err
}

// Resident reports the fabric's installed bitstream name ("" while the
// configuration state is scrubbed pending a probationary re-reprogram).
func (b *CycleBackend) Resident() string {
	if b.scrubbed {
		return ""
	}
	if bs := b.ad.Resident(); bs != nil {
		return bs.Name
	}
	return ""
}

// Scrub discards the backend's resident configuration state (the repair
// process's probationary re-reprogram; see sched.Scrubber).
func (b *CycleBackend) Scrub() { b.scrubbed = true }

// Bind attaches the scheduler's completion callback.
func (b *CycleBackend) Bind(done func(*Job, error)) {
	b.done = done
}

// ServiceTime is the catalog's analytic occupancy: App cycles at the
// bitstream's Fmax.
func (b *CycleBackend) ServiceTime(app *App, inputSize int) sim.Time {
	return sim.Time(app.Cycles(inputSize)) * app.Period()
}

// ReconfigCost is the analytic cost of making app resident now: two hub
// feature-switch rounds, the programming engine's streaming time, and
// the configuration settle — zero when app is already resident. The
// formula mirrors Dispatch's event chain term for term (a unit test
// pins the equivalence), which is also what makes internal/model's
// analytic backend match this one exactly.
func (b *CycleBackend) ReconfigCost(app *App) sim.Time {
	if b.Resident() == app.BS.Name {
		return 0
	}
	period := b.fab.Clock().Period
	if app.BS.FmaxMHz > 0 {
		period = app.Period()
	}
	return ReprogramCost(app, len(b.ad.Hubs()), b.ad.FastClock().Period, period)
}

// ReprogramCost is the driver-flow timing model shared by every backend:
// one hub feature-switch round trip per Memory Hub before and after
// programming, the programming engine streaming one configuration word
// per fast cycle, and SettleCycles of the (post-Fmax-switch) fabric
// clock. settlePeriod is the fabric clock period the settle is charged
// at — the app's period when it sets an Fmax, the fabric's current
// period otherwise.
func ReprogramCost(app *App, hubs int, fastPeriod, settlePeriod sim.Time) sim.Time {
	toggles := int64(hubs)
	if toggles == 0 {
		toggles = 1
	}
	return sim.Time(2*toggles*HubToggleCycles+app.BS.StreamCycles())*fastPeriod +
		SettleCycles*settlePeriod
}

// Dispatch starts job j on the backend: directly when the needed
// bitstream is resident, otherwise through the quiesce → program →
// resume → settle flow. j.Reprogrammed must be set before Dispatch
// returns — not inside the scheduled event chain — because the
// scheduler's dispatch observer reads it at the dispatch instant (every
// Backend honors this; internal/model mirrors it).
func (b *CycleBackend) Dispatch(j *Job, app *App) {
	if b.pendJob != nil {
		// A worker holds one job at a time; the chain's one slot relies
		// on it.
		panic(fmt.Sprintf("sched: dispatch of job %d on fabric %q while job %d is reprogramming", j.ID, b.fab.Name, b.pendJob.ID))
	}
	name := app.BS.Name
	if b.Resident() == name {
		b.serve(j, app)
		return
	}
	if !app.BS.Res.Fits(b.fab.Cap) {
		// pick never pairs a job with a too-small fabric; this guards a
		// future policy bug from wedging the worker.
		b.done(j, fmt.Errorf("sched: bitstream %q exceeds fabric %q capacity", name, b.fab.Name))
		return
	}
	id, ok := b.fab.IDByName(name)
	if !ok {
		b.done(j, fmt.Errorf("sched: bitstream %q not registered on fabric %q", name, b.fab.Name))
		return
	}
	j.Reprogrammed = true
	b.scrubbed = false // the reprogram re-establishes real resident state
	// Quiesce: one feature-switch round trip per hub, then the
	// programming engine (streaming + integrity check), then hub
	// re-enable, then the configuration settle time.
	b.pendJob, b.pendApp, b.pendID = j, app, id
	b.pendSaved = b.ad.QuiesceHubs()
	b.eng.After(b.ad.FastClock().Cycles(b.toggles*HubToggleCycles), b.quiescedFn)
}

// quiesced runs once the hubs are quiesced: it starts the programming
// engine (streaming + integrity check).
func (b *CycleBackend) quiesced() { b.ad.ProgramAsync(b.pendID, b.programmedFn) }

// programmed is the programming engine's completion. On failure it
// restores the pre-quiesce hub state and fails the job; on success the
// scheduler owns the adapter while serving, so the incoming tenant is
// granted every Memory Hub before the resume round trip.
func (b *CycleBackend) programmed(err error) {
	if err != nil {
		// The slot is freed before done, which may dispatch this
		// worker's next job.
		j := b.pendJob
		b.ad.ResumeHubs(b.pendSaved)
		b.clearPending()
		b.done(j, err)
		return
	}
	b.ad.ResumeHubs(^uint64(0))
	b.eng.After(b.ad.FastClock().Cycles(b.toggles*HubToggleCycles), b.resumedFn)
}

// resumed runs once the hubs are re-enabled: it switches the fabric to
// the app's Fmax and waits out the configuration settle.
func (b *CycleBackend) resumed() {
	if app := b.pendApp; app.BS.FmaxMHz > 0 {
		b.fab.SetFreqMHz(app.BS.FmaxMHz)
	}
	b.eng.After(b.fab.Clock().Cycles(SettleCycles), b.settledFn)
}

// settled ends the chain: the slot is freed and the job served.
func (b *CycleBackend) settled() {
	j, app := b.pendJob, b.pendApp
	b.clearPending()
	b.serve(j, app)
}

// clearPending frees the reprogram slot.
func (b *CycleBackend) clearPending() {
	b.pendJob, b.pendApp = nil, nil
}

// serve occupies the fabric for the job's modeled service time.
func (b *CycleBackend) serve(j *Job, app *App) {
	if app.BS.FmaxMHz > 0 && b.fab.Clock().FreqMHz() != app.BS.FmaxMHz {
		b.fab.SetFreqMHz(app.BS.FmaxMHz)
	}
	b.eng.AfterArg(b.fab.Clock().Cycles(app.Cycles(j.InputSize)), b.finishFn, j)
}
