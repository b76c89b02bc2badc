// Package sched is a multi-tenant accelerator-as-a-service runtime over
// a pool of execution backends. It accepts a stream of jobs — each
// naming a registered application bitstream, an input size, and a
// deadline and priority — admits them through a bounded queue, and
// places them across every configured worker. A worker is any Backend
// implementation: the cycle-level eFPGA path (core.Adapter +
// efpga.Fabric, where placement reuses an already-resident bitstream
// when possible and otherwise pays the real quiesce → program → resume
// driver flow), the calibrated analytic fast model (internal/model), or
// the CPU soft-path fallback that hybrid placement spills to when the
// fabrics saturate.
//
// The scheduling policy — FIFO, shortest-job-first, affinity
// (reuse-aware), or hybrid (affinity + CPU spill) — is selected at
// construction; see policy.go. Per-job wait/service times and
// per-worker utilization and reconfiguration counts are collected
// throughout; see stats.go.
//
// Placement decisions read scheduler-owned indexes, not the backends:
// each worker's backend kind (read once) and resident app (re-read at
// each completion, repair scrub and registration), each app's count of
// queued jobs, and an app × worker fit table built at the first Submit.
// A decision makes no Backend call.
package sched

import (
	"errors"
	"fmt"

	"duet/internal/efpga"
	"duet/internal/sim"
)

// Timing model of the driver's reconfiguration flow, beyond the
// programming engine's own streaming cost (which is charged by
// Adapter.ProgramAsync):
const (
	// HubToggleCycles charges one MMIO round trip on the fast clock per
	// Memory Hub feature-switch write (quiesce before programming,
	// re-enable after). Exported so analytic backends charge the same
	// driver-flow model as the cycle-level path.
	HubToggleCycles = 32
	// SettleCycles is the post-configuration settle time: fabric-clock
	// cycles after configuration for partial-region reset, configuration
	// scrubbing, and clock-generator relock before the accelerator can
	// accept work (§II).
	SettleCycles = 1024
	// DefaultQueueCap is the default admission-queue bound
	// (Config.QueueCap).
	DefaultQueueCap = 64
)

// App couples a synthesized bitstream with the scheduler's analytic
// service-time model: a job over app a with input size n occupies the
// fabric for FixedCycles + n*CyclesPerItem cycles of the fabric clock,
// run at the bitstream's Fmax.
type App struct {
	BS            *efpga.Bitstream
	FixedCycles   int64
	CyclesPerItem int64

	period sim.Time // service clock period, derived from BS.FmaxMHz
	queued int32    // this app's jobs in the admission queue (see enqueue)
}

// Cycles is the modeled fabric occupancy of one job with input size n —
// the single source of truth for both SJF's estimate and the charged
// service time.
func (a *App) Cycles(n int) int64 { return a.FixedCycles + a.CyclesPerItem*int64(n) }

// Period is the service clock period derived from the bitstream's Fmax
// (valid after Finalize / RegisterApp).
func (a *App) Period() sim.Time { return a.period }

// Finalize applies the catalog defaults: a minimum per-item cost and the
// service period derived from the bitstream's Fmax (the fabric's
// power-on clock, efpga.DefaultFreqMHz, when it has none).
// RegisterApp calls it; analytic backends building their own catalogs
// (internal/model) call it too, so every backend prices one App
// identically.
func (a *App) Finalize() {
	if a.CyclesPerItem <= 0 {
		a.CyclesPerItem = 1
	}
	mhz := a.BS.FmaxMHz
	if mhz <= 0 {
		mhz = efpga.DefaultFreqMHz
	}
	a.period = sim.Time(1e6/mhz + 0.5)
}

// AppID names a registered application by its catalog index: the
// order RegisterApp saw it in, starting at 0. Front ends resolve a name
// once (Lookup) and carry the index from then on, so no hot path hashes
// an app name.
type AppID int32

// Request is what a submitter asks of the scheduler: the part of a job
// an arrival stream carries. At 32 bytes it is what the cluster's
// hand-off batches copy per arrival.
type Request struct {
	App       AppID    // catalog index (see Lookup); out of range fails at Submit
	InputSize int      // work items
	Priority  int      // higher is more urgent (SJF tie-break)
	Deadline  sim.Time // absolute completion deadline; 0 = none
}

// Job is one unit of work submitted to the scheduler. The caller fills
// the Request; the scheduler fills the outcome fields.
type Job struct {
	Request

	// Outcome.
	ID           int // assigned by Submit
	Submit       sim.Time
	Start        sim.Time // dispatch instant (end of queue wait)
	Finish       sim.Time
	Fabric       int // worker index the job occupied
	Reprogrammed bool
	Retries      int // re-queues after wedged reprograms (see faults.go)
	Err          error

	// app caches the catalog entry resolved at submission, so queue
	// scans and dispatch read the bitstream directly. Scoped to one
	// scheduler: jobs are single-use.
	app *App
}

// Wait is the time spent in the admission queue.
func (j *Job) Wait() sim.Time { return j.Start - j.Submit }

// Service is the time spent occupying a worker (including any
// reprogramming the job triggered).
func (j *Job) Service() sim.Time { return j.Finish - j.Start }

// Sojourn is the submit-to-finish latency.
func (j *Job) Sojourn() sim.Time { return j.Finish - j.Submit }

// MissedDeadline reports whether the job finished past its deadline.
func (j *Job) MissedDeadline() bool { return j.Deadline > 0 && j.Finish > j.Deadline }

// Config selects the scheduling policy and admission bound.
type Config struct {
	Policy   Policy
	QueueCap int // bounded admission queue; defaults to DefaultQueueCap
	// Stats selects how completed jobs' sojourns are kept: StatsExact
	// (default) keeps every sample for exact percentiles; StatsStreaming
	// folds them into a fixed-memory digest for serve-scale runs (see
	// stats.go).
	Stats StatsMode
	// Faults configures retry budgets, deadline enforcement and shard
	// outage windows; the zero value adds no behavior (see faults.go).
	Faults FaultConfig
}

// worker tracks one execution backend and its accumulated stats.
type worker struct {
	id   int
	be   Backend
	kind BackendKind // be.Kind(), read once in New
	// resident is the catalog app whose bitstream the backend holds (-1:
	// none, or one outside the catalog). An idle worker's residency
	// changes only under a job or a repair scrub, so it is re-read from
	// be.Resident() at each completion, scrub and registration (see
	// syncResident) and placement never asks the backend.
	resident    AppID
	busy        bool
	quarantined bool // wedged mid-reprogram; out of service until repaired
	// Repair state (see faults.go): repairPending is true while a
	// scheduled repair event is in flight for this quarantine;
	// quarantinedAt stamps the quarantine instant for time-in-quarantine
	// accounting; wedgeCount is the lifetime wedge total driving the
	// repair backoff; probation is set by a repair and cleared by the
	// first successful completion (or the next wedge).
	repairPending bool
	probation     bool
	wedgeCount    int
	quarantinedAt sim.Time
	busyAt        sim.Time
	// estFree is the analytic estimate of when the worker frees up,
	// charged at dispatch from the backend's reconfig + service model —
	// what the hybrid policy weighs CPU spill against.
	estFree sim.Time

	jobs      int
	reconfigs int
	busyTotal sim.Time
}

// Scheduler is the accelerator-as-a-service runtime.
type Scheduler struct {
	tl      Timeline
	cfg     Config
	apps    []*App           // the catalog, indexed by AppID
	byName  map[string]AppID // read only by Lookup and RegisterApp
	workers []*worker
	queue   []*Job
	nextID  int

	// Downtime state machine (see faults.go): down is true while the
	// shard is inside Faults.Down[downIdx]; both advance lazily at
	// activity instants through syncFaults.
	downIdx int
	down    bool

	// ctr holds the run's event counts, bumped at each event site.
	ctr Counters

	// repairFn is the pre-built repair-event callback (one allocation per
	// scheduler, not per quarantine); AfterArg carries the worker as arg.
	repairFn func(any)

	// hasFabric records whether any worker is fabric-class: when true,
	// the classic policies never place on CPU soft-path workers — those
	// are spill capacity reserved for the Hybrid policy. A pure-CPU pool
	// (no fabric workers) serves under every policy.
	hasFabric bool

	// fit is the placement fit table: fit[a*len(workers)+w] reports
	// whether app a's bitstream fits worker w's capacity. One allocation,
	// built at the first Submit (so a backend's capacity may still change
	// before then) and rebuilt by any later RegisterApp.
	fit []bool

	// Policy scratch (reused across pick calls; see policy.go).
	idleScratch     []*worker
	residentScratch []*worker
	estScratch      []sim.Time

	// agg is what the scheduler keeps of its retired jobs (see stats.go).
	agg aggregate

	// obs, when set, receives lifecycle events — the windowed-telemetry
	// seam; see observe.go.
	obs Observer

	// OnResult, when set, is invoked at each job's finish instant — once
	// per completed or failed job, in completion order. The scheduler
	// keeps no reference to a retired job, so once OnResult returns the
	// record is the caller's to keep or reuse (internal/cluster recycles
	// it). Jobs bounced by the admission queue never started and are not
	// reported.
	OnResult func(*Job)
}

// New builds a scheduler over the given execution backends (one worker
// per backend). At least one backend is required; tl is the timeline the
// backends schedule on (the sim.Engine for cycle-level workers, an
// analytic timeline for model-only schedulers).
func New(tl Timeline, backends []Backend, cfg Config) *Scheduler {
	if len(backends) == 0 {
		panic("sched: need at least one execution backend")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	s := &Scheduler{tl: tl, cfg: cfg, byName: make(map[string]AppID)}
	s.repairFn = func(a any) { s.repair(a.(*worker)) }
	if cfg.Stats == StatsStreaming {
		s.agg.digest = &Digest{}
	}
	for i, be := range backends {
		w := &worker{id: i, be: be, kind: be.Kind(), resident: -1}
		s.workers = append(s.workers, w)
		be.Bind(s.complete)
		if w.kind != BackendCPU {
			s.hasFabric = true
		}
	}
	// Both per-pick worker lists hold at most one entry per worker: one
	// backing array serves them.
	n := len(s.workers)
	scratch := make([]*worker, 2*n)
	s.idleScratch, s.residentScratch = scratch[:0:n], scratch[n:n]
	return s
}

// usable reports whether the configured policy may place jobs on worker
// w: quarantined workers take no placements until a repair returns them
// to service (never, without a repair process), and CPU soft-path
// workers are spill capacity only — reserved for the Hybrid policy
// whenever fabric-class workers exist.
func (s *Scheduler) usable(w *worker) bool {
	if w.quarantined {
		return false
	}
	return s.cfg.Policy == Hybrid || !s.hasFabric || w.kind != BackendCPU
}

// fits reports whether app a's bitstream fits worker w (the fit table's
// entry; built by the first Submit).
func (s *Scheduler) fits(a AppID, w *worker) bool {
	return s.fit[int(a)*len(s.workers)+w.id]
}

// buildFit (re)builds the fit table from every backend's Capacity.
func (s *Scheduler) buildFit() {
	n := len(s.workers)
	s.fit = make([]bool, len(s.apps)*n)
	for a, app := range s.apps {
		for i, w := range s.workers {
			s.fit[a*n+i] = app.BS.Res.Fits(w.be.Capacity())
		}
	}
}

// syncResident re-reads w's installed bitstream into w.resident. hint is
// the app w just served, tried before the catalog hash: it is what a
// completed job leaves resident. Pass -1 for no hint.
func (s *Scheduler) syncResident(w *worker, hint AppID) {
	name := w.be.Resident()
	if a := s.app(hint); a != nil && a.BS.Name == name {
		w.resident = hint
		return
	}
	id, ok := s.byName[name]
	if !ok {
		id = -1
	}
	w.resident = id
}

// RegisterApp adds an application to the service catalog, registering its
// bitstream with every backend's image library. The app's AppID is its
// registration index. A backend may already hold the bitstream, so every
// worker's residency is re-read.
func (s *Scheduler) RegisterApp(app App) error {
	if app.BS == nil || app.BS.Name == "" {
		return fmt.Errorf("sched: app needs a named bitstream")
	}
	if _, dup := s.byName[app.BS.Name]; dup {
		return fmt.Errorf("sched: app %q already registered", app.BS.Name)
	}
	app.Finalize()
	for _, w := range s.workers {
		if err := w.be.Register(app.BS); err != nil {
			return err
		}
	}
	s.byName[app.BS.Name] = AppID(len(s.apps))
	s.apps = append(s.apps, &app)
	for _, w := range s.workers {
		s.syncResident(w, -1)
	}
	if s.fit != nil {
		// Registered after the first Submit: queued jobs' placements read
		// the table, so it cannot wait for the next Submit.
		s.buildFit()
	}
	return nil
}

// Apps lists the registered application names in registration order:
// element i is the name of AppID i.
func (s *Scheduler) Apps() []string {
	names := make([]string, len(s.apps))
	for i, a := range s.apps {
		names[i] = a.BS.Name
	}
	return names
}

// Lookup resolves an application name to its AppID; ok is false for
// unregistered names.
func (s *Scheduler) Lookup(name string) (id AppID, ok bool) {
	id, ok = s.byName[name]
	return id, ok
}

// app returns the catalog entry of id, or nil when id is out of range.
func (s *Scheduler) app(id AppID) *App {
	if uint(id) >= uint(len(s.apps)) {
		return nil
	}
	return s.apps[id]
}

// QueueLen reports the current admission-queue depth.
func (s *Scheduler) QueueLen() int { return len(s.queue) }

// Workers reports the number of execution-backend workers.
func (s *Scheduler) Workers() int { return len(s.workers) }

// Predict estimates the fabric occupancy of one job of app id with the
// given input size — the catalog's analytic model, the same estimate SJF
// ranks by. ok is false for an id outside the catalog.
func (s *Scheduler) Predict(id AppID, inputSize int) (est sim.Time, ok bool) {
	a := s.app(id)
	if a == nil {
		return 0, false
	}
	return sim.Time(a.Cycles(inputSize)) * a.period, true
}

// predict estimates a queued job's fabric occupancy from the catalog
// model (SJF's ranking and the hybrid spill decision).
func (s *Scheduler) predict(j *Job) sim.Time {
	return sim.Time(j.app.Cycles(j.InputSize)) * j.app.period
}

// Submit offers a job to the scheduler at the current simulation time. It
// returns false when the job was not admitted: an AppID outside the
// catalog or a bitstream no worker can hold (the job retires as failed,
// with Err set), or a full admission queue (counted in Rejected).
func (s *Scheduler) Submit(j *Job) bool {
	now := s.arrive(j)
	if s.down {
		return s.refuse(j, now, fmt.Errorf("sched: submission refused, shard down: %w", ErrUnavailable))
	}
	app := s.app(j.App)
	if app == nil {
		return s.refuse(j, now, fmt.Errorf("sched: unknown app id %d", j.App))
	}
	j.app = app
	if s.fit == nil {
		s.buildFit()
	}
	fits, fitsQuarantined := false, false
	for _, w := range s.workers {
		if !s.fits(j.App, w) {
			continue
		}
		// A quarantined worker with a repair in flight still counts as a
		// fit: the job waits in the queue for the repair instead of dying.
		if s.usable(w) || (w.quarantined && w.repairPending) {
			fits = true
			break
		}
		if w.quarantined {
			fitsQuarantined = true
		}
	}
	if !fits {
		if fitsQuarantined {
			return s.refuse(j, now, fmt.Errorf("sched: every fitting worker quarantined: %w", ErrUnavailable))
		}
		return s.refuse(j, now, fmt.Errorf("sched: bitstream %q (%+v) exceeds every worker's capacity", app.BS.Name, app.BS.Res))
	}
	if len(s.queue) >= s.cfg.QueueCap {
		s.observe(Event{Kind: EventArrival, At: now, Depth: len(s.queue)})
		s.observe(Event{Kind: EventReject, At: now})
		s.ctr.Rejected++
		return false
	}
	s.enqueue(j)
	s.observe(Event{Kind: EventArrival, At: now, Depth: len(s.queue)})
	s.dispatch(now)
	return true
}

// enqueue appends an admitted job to the admission queue. Every queue
// mutation keeps its app's queued count exact: placement reads the
// counts to skip resident workers no queued job wants.
func (s *Scheduler) enqueue(j *Job) {
	s.queue = append(s.queue, j)
	j.app.queued++
}

// Refuse fails j at submission with err, exactly as Submit fails a job it
// cannot admit: j gets an ID, an arrival is observed, and j retires as
// failed (counted in Failed, reported to OnResult) with a zero-length
// lifetime. Front ends use it for requests they reject before resolving
// them into a Request (a daemon's malformed wire fields), so those still
// count as failures.
func (s *Scheduler) Refuse(j *Job, err error) {
	s.refuse(j, s.arrive(j), err)
}

// arrive stamps a submission: the job's ID and submit instant, with the
// downtime state advanced to that instant.
func (s *Scheduler) arrive(j *Job) sim.Time {
	s.nextID++
	j.ID = s.nextID
	now := s.tl.Now()
	j.Submit = now
	s.syncFaults(now)
	return now
}

// refuse fails a just-arrived job with err: it dies at submit, with a
// zero-length lifetime. It always returns false, Submit's verdict.
func (s *Scheduler) refuse(j *Job, now sim.Time, err error) bool {
	s.observe(Event{Kind: EventArrival, At: now, Depth: len(s.queue)})
	j.Err = err
	j.Finish = now
	s.retire(j)
	return false
}

// dispatch drains the admission queue onto idle workers, one placement
// per iteration, until the policy finds nothing placeable. now is the
// current instant (timeline reads are hoisted to the dispatch roots).
func (s *Scheduler) dispatch(now sim.Time) {
	if s.cfg.Faults.EnforceDeadlines {
		s.purgeExpired(now)
	}
	if s.down {
		return
	}
	for {
		w, qi := s.pick(now)
		if w == nil {
			return
		}
		j := s.queue[qi]
		s.queue = append(s.queue[:qi], s.queue[qi+1:]...)
		j.app.queued--
		s.place(w, j, now)
	}
}

// place starts job j on worker w: the backend models the rest (resident
// reuse vs reconfiguration, then the service time).
func (s *Scheduler) place(w *worker, j *Job, now sim.Time) {
	j.Start = now
	j.Fabric = w.id
	w.busy = true
	w.busyAt = now
	app := j.app
	w.estFree = now + w.be.ReconfigCost(app) + w.be.ServiceTime(app, j.InputSize)
	w.be.Dispatch(j, app)
	// Backends flag a triggered reconfiguration synchronously during
	// Dispatch, so j.Reprogrammed is settled for the observer even though
	// the reprogram flow itself has only just been scheduled.
	s.observe(Event{Kind: EventDispatch, At: now, Worker: w.id, Job: j})
}

// complete retires a dispatched job at its finish instant (the bound
// backend callback; j.Fabric names the worker it occupied).
func (s *Scheduler) complete(j *Job, err error) {
	w := s.workers[j.Fabric]
	s.syncResident(w, j.App)
	now := s.tl.Now()
	s.syncFaults(now)
	if err != nil && errors.Is(err, ErrWedged) {
		s.completeWedged(w, j, err, now)
		return
	}
	j.Finish = now
	if err != nil {
		j.Err = err
	} else {
		w.jobs++
		if j.Reprogrammed {
			w.reconfigs++
			s.ctr.Reconfigs++
		}
		// A clean completion ends a repaired worker's probation: it has
		// re-proved itself (the next wedge restarts the backoff ladder
		// from its lifetime wedge count either way).
		w.probation = false
	}
	s.retire(j)
	s.release(w, now)
}

// retire folds a finished job — completed or failed — into the
// aggregate and the counters, then notifies OnResult. The scheduler
// keeps no reference to the job.
func (s *Scheduler) retire(j *Job) {
	s.observe(Event{Kind: EventRetire, At: j.Finish, Job: j})
	s.agg.finish(j)
	if j.Err == nil {
		s.ctr.Completed++
		if j.MissedDeadline() {
			s.ctr.DeadlineMisses++
		}
	} else {
		// Failure sub-class counters (Failed stays the total): a
		// distinct timed-out outcome, and the unavailable class covering
		// shard-outage and full-quarantine kills.
		s.ctr.Failed++
		switch {
		case errors.Is(j.Err, ErrTimedOut):
			s.ctr.TimedOut++
		case errors.Is(j.Err, ErrUnavailable):
			s.ctr.Unavailable++
		}
	}
	if s.OnResult != nil {
		s.OnResult(j)
	}
}

// release returns a worker to the idle pool and re-runs dispatch.
func (s *Scheduler) release(w *worker, now sim.Time) {
	if now > w.busyAt {
		s.observe(Event{Kind: EventBusy, At: now, Worker: w.id, Span: now - w.busyAt})
	}
	w.busyTotal += now - w.busyAt
	w.busy = false
	s.dispatch(now)
}
