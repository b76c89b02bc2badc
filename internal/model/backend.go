package model

import (
	"fmt"

	"duet/internal/efpga"
	"duet/internal/params"
	"duet/internal/sched"
	"duet/internal/sim"
)

// CPUSlowdown is the calibrated soft-path slowdown: how much
// longer an application takes on the processor than on its fabric
// accelerator. It is the paper's Fig. 12 geometric-mean Duet speedup
// over the processor-only baseline (4.53x across the nine benchmark
// accelerators), inverted into a service-time multiplier.
const CPUSlowdown = 4.53

// CPUServiceTime is the soft path's analytic occupancy: the App's
// fabric service time stretched by the calibrated slowdown. Shared by
// the CPU backend's dispatch and every placement estimate, so the
// hybrid policy's spill decision prices exactly what dispatch charges.
func CPUServiceTime(app *sched.App, inputSize int) sim.Time {
	return sim.Time(CPUSlowdown * float64(app.Cycles(inputSize)) * float64(app.Period()))
}

// FabricParams describes one analytic fabric worker. Like every fabric
// of a duet.System, it has efpga.DefaultFabricCap resources, charges its
// hub toggles and programming stream at the processor clock
// (params.CPUClockPS), and runs at efpga.DefaultFreqMHz until its first
// configuration, when the app's Fmax takes over, exactly as on the cycle
// path.
type FabricParams struct {
	Name string
	// Hubs is the modeled adapter's Memory Hub count (reprogram cost
	// charges one feature-switch round per hub, before and after).
	Hubs int
}

// Fabric is the calibrated analytic fabric backend: it charges the same
// App service and reprogramming model as the cycle-level adapter path
// (sched.ReprogramCost, shared with sched.CycleBackend term for term)
// without any Dolly machinery behind it. Reprogramming dispatch mirrors
// the cycle path's event shape too — an intermediate settle-end event
// that then schedules the service completion — so even same-instant
// completion ordering matches the adapter chain.
type Fabric struct {
	tl Timeline
	p  FabricParams

	period   sim.Time // current fabric clock period
	resident string
	// images backs Register's duplicate-name guard. Dispatch never reads
	// it: the scheduler registers every catalog app on every worker
	// before a job can name one.
	images map[string]*efpga.Bitstream

	done func(*sched.Job, error)

	// One job is in flight per worker, so the pending app rides in a
	// field and both callbacks stay closure-free.
	pendingApp *sched.App
	serveFn    func(any)
	finishFn   func(any)
}

// NewFabric builds an analytic fabric worker.
func NewFabric(tl Timeline, p FabricParams) *Fabric {
	b := &Fabric{
		tl:     tl,
		p:      p,
		period: sim.Time(1e6 / efpga.DefaultFreqMHz),
		images: make(map[string]*efpga.Bitstream),
	}
	b.serveFn = func(a any) { b.serve(a.(*sched.Job)) }
	b.finishFn = func(a any) { b.done(a.(*sched.Job), nil) }
	return b
}

// Kind reports BackendModel.
func (b *Fabric) Kind() sched.BackendKind { return sched.BackendModel }

// Name is the worker's display name.
func (b *Fabric) Name() string { return b.p.Name }

// Capacity is the modeled reconfigurable budget.
func (b *Fabric) Capacity() efpga.Resources { return efpga.DefaultFabricCap }

// Register adds a bitstream to the modeled image library, with the same
// duplicate-name guard as efpga.Fabric.Register.
func (b *Fabric) Register(bs *efpga.Bitstream) error {
	if ex, ok := b.images[bs.Name]; ok {
		if ex == bs {
			return nil
		}
		return fmt.Errorf("model: bitstream name %q already registered with a different image", bs.Name)
	}
	b.images[bs.Name] = bs
	return nil
}

// Resident reports the modeled installed bitstream name.
func (b *Fabric) Resident() string { return b.resident }

// Scrub discards the modeled resident bitstream (the repair process's
// probationary re-reprogram; see sched.Scrubber) — the next placement
// pays the full reconfiguration cost, like the cycle backend's Scrub.
func (b *Fabric) Scrub() { b.resident = "" }

// Bind attaches the scheduler's completion callback.
func (b *Fabric) Bind(done func(*sched.Job, error)) { b.done = done }

// ServiceTime is the catalog occupancy at the app's Fmax.
func (b *Fabric) ServiceTime(app *sched.App, inputSize int) sim.Time {
	return sim.Time(app.Cycles(inputSize)) * app.Period()
}

// ReconfigCost is the analytic reprogram charge (zero when resident).
func (b *Fabric) ReconfigCost(app *sched.App) sim.Time {
	if b.resident == app.BS.Name {
		return 0
	}
	return sched.ReprogramCost(app, b.p.Hubs, params.CPUClockPS, b.settlePeriod(app))
}

// settlePeriod is the fabric period the configuration settle runs at:
// the app's once its Fmax takes over, the current period otherwise.
func (b *Fabric) settlePeriod(app *sched.App) sim.Time {
	if app.BS.FmaxMHz > 0 {
		return app.Period()
	}
	return b.period
}

// Dispatch occupies the worker with job j: a reprogram charge when the
// app is not resident, then the service time.
func (b *Fabric) Dispatch(j *sched.Job, app *sched.App) {
	name := app.BS.Name
	if b.resident == name {
		b.pendingApp = app
		b.serve(j)
		return
	}
	if !app.BS.Res.Fits(efpga.DefaultFabricCap) {
		b.done(j, fmt.Errorf("sched: bitstream %q exceeds fabric %q capacity", name, b.p.Name))
		return
	}
	j.Reprogrammed = true
	cost := sched.ReprogramCost(app, b.p.Hubs, params.CPUClockPS, b.settlePeriod(app))
	b.resident = name
	if app.BS.FmaxMHz > 0 {
		b.period = app.Period()
	}
	b.pendingApp = app
	b.tl.AfterArg(cost, b.serveFn, j)
}

// serve charges the service time at the current fabric clock.
func (b *Fabric) serve(j *sched.Job) {
	app := b.pendingApp
	if app.BS.FmaxMHz > 0 {
		b.period = app.Period()
	}
	b.tl.AfterArg(sim.Time(app.Cycles(j.InputSize))*b.period, b.finishFn, j)
}

// CPU is the processor soft-path fallback backend: jobs execute as
// software at a calibrated slowdown over their fabric service time, with
// no bitstream, no capacity bound and no reconfiguration. The Hybrid
// placement policy spills onto CPU workers when every fitting fabric is
// busy and the soft path's modeled completion beats waiting.
type CPU struct {
	tl   Timeline
	name string

	done     func(*sched.Job, error)
	finishFn func(any)
}

// NewCPU builds a soft-path worker.
func NewCPU(tl Timeline, name string) *CPU {
	b := &CPU{tl: tl, name: name}
	b.finishFn = func(a any) { b.done(a.(*sched.Job), nil) }
	return b
}

// Kind reports BackendCPU.
func (b *CPU) Kind() sched.BackendKind { return sched.BackendCPU }

// Name is the worker's display name.
func (b *CPU) Name() string { return b.name }

// Capacity is unbounded: any bitstream's software fallback "fits".
func (b *CPU) Capacity() efpga.Resources { return sched.UnboundedResources }

// Register accepts every app (the soft path needs no image).
func (b *CPU) Register(*efpga.Bitstream) error { return nil }

// Resident reports no configuration state.
func (b *CPU) Resident() string { return "" }

// Bind attaches the completion callback.
func (b *CPU) Bind(done func(*sched.Job, error)) { b.done = done }

// ServiceTime is the calibrated soft-path occupancy.
func (b *CPU) ServiceTime(app *sched.App, inputSize int) sim.Time {
	return CPUServiceTime(app, inputSize)
}

// ReconfigCost is zero: there is nothing to configure.
func (b *CPU) ReconfigCost(*sched.App) sim.Time { return 0 }

// Dispatch occupies the worker for the slowed-down service time.
func (b *CPU) Dispatch(j *sched.Job, app *sched.App) {
	b.tl.AfterArg(CPUServiceTime(app, j.InputSize), b.finishFn, j)
}
