package daemon

import (
	"fmt"
	"io"
	"sync"
	"time"

	duet "duet"
	"duet/internal/faults"
	"duet/internal/model"
	"duet/internal/sched"
	"duet/internal/sim"
	"duet/internal/telemetry"
	"duet/internal/workload"
)

// Config parameterizes one daemon server. The zero value (with defaults
// applied by NewServer) is a 2-eFPGA analytic-model pool at timescale 1
// — one simulated second per wall second.
type Config struct {
	// Backend selects the execution backend: workload.BackendModel
	// (default, analytic fast path), BackendCycle (full Dolly instance),
	// or BackendHybrid (cycle fabrics + CPU soft-path workers).
	Backend workload.BackendMode

	EFPGAs      int          // fabric workers (default 2)
	SoftCPUs    int          // soft-path workers (hybrid default 1)
	MemHubs     int          // memory hubs per adapter (default 1)
	Policy      sched.Policy // placement policy
	QueueCap    int          // bounded admission queue (default 64)
	CPUSlowdown float64      // soft-path slowdown factor (model default)

	// Timescale is the exchange rate of the clock bridge: simulated
	// seconds advanced per wall-clock second (default 1). Above 1 the
	// simulated service gets faster than real time; below 1, slower —
	// useful to stretch microsecond-scale service into humanly observable
	// latencies.
	Timescale float64

	// WindowWidth is the telemetry flight-recorder window in simulated
	// time (default 250ms). Recorder memory is O(simulated horizon /
	// WindowWidth); at timescale 1 the default costs ~4 windows per wall
	// second.
	WindowWidth sim.Time

	// MaxOutstanding bounds admitted-but-unfinished jobs (default
	// 4*QueueCap). At the bound new submissions get Overloaded (HTTP 503)
	// before they ever reach the scheduler — backpressure for sync
	// waiters the bounded queue alone cannot give, since queued jobs
	// dispatch as soon as a worker frees.
	MaxOutstanding int

	// ResultCap bounds retained finished results for GET /v1/jobs/{id}
	// (default 16384, evicted oldest-first).
	ResultCap int

	// Faults, when non-nil, installs the deterministic fault-injection
	// seam on the daemon's pool (internal/faults): wedge-on-reprogram
	// quarantines, service blowups, retry budgets, deadline enforcement
	// and downtime windows, all in simulated time. The daemon is a
	// single-shard stack, so the plan's shard-0 schedule applies.
	Faults *faults.Plan

	// Clock is the wall-time source (default NewWallClock). Tests inject
	// a *FakeClock here.
	Clock Clock

	// Namespace prefixes every exposed metric (default "duetsim").
	Namespace string
}

// liveTimeline is the seam the daemon drives simulated time through:
// both *model.Events and the cycle engine advance to a target instant
// (running everything due on the way) and drain to quiescence.
type liveTimeline interface {
	sched.Timeline
	RunUntil(sim.Time)
	Drain()
}

// engineTimeline adapts *sim.Engine (whose RunUntil returns an event
// count) to the liveTimeline seam. Drain is the daemon's shutdown, so
// after running the engine to quiescence it closes it, releasing the
// system's parked simulation threads; the closed engine still answers
// Now and RunUntil for read-backs after the drain.
type engineTimeline struct{ eng *sim.Engine }

func (t engineTimeline) Now() sim.Time        { return t.eng.Now() }
func (t engineTimeline) RunUntil(at sim.Time) { t.eng.RunUntil(at) }
func (t engineTimeline) Drain()               { t.eng.Run(0); t.eng.Close() }
func (t engineTimeline) AfterArg(d sim.Time, fn func(any), arg any) {
	t.eng.AfterArg(d, fn, arg)
}

// Server is the live ingest front end. One mutex guards the timeline,
// the scheduler, and the result tables: the simulated timeline only
// advances while it is held, so scheduler callbacks (OnResult, observer
// hooks) always run under it. HTTP handlers are thin shims over the
// exported methods, which are all safe for concurrent use.
type Server struct {
	cfg   Config
	clock Clock

	mu          sync.Mutex
	tl          liveTimeline
	sch         *sched.Scheduler
	rec         *telemetry.Recorder
	byJob       map[*sched.Job]*entry
	byID        map[uint64]*entry
	order       []uint64 // finished ids, oldest first (ResultCap eviction)
	nextID      uint64
	outstanding int
	draining    bool
	admitted    uint64
}

// entry tracks one accepted job from admission to retirement.
type entry struct {
	id     uint64
	app    string
	tenant string
	job    *sched.Job
	done   chan struct{} // closed at retirement, after res is final
	res    Result
}

// JobRequest is the POST /v1/jobs body. Wait selects the response mode:
// true (the decode default) blocks until the job retires and returns its
// Result; false returns 202 with the id for a later GET /v1/jobs/{id}.
type JobRequest struct {
	App        string `json:"app"`
	InputSize  int    `json:"input_size"`
	Priority   int    `json:"priority"`
	DeadlineUS int64  `json:"deadline_us"` // relative to arrival; 0 = none
	Tenant     string `json:"tenant"`
	Wait       bool   `json:"wait"`
}

// Result is a job's externally visible outcome. Times are simulated
// microseconds; Status is "pending", "ok", or "failed".
type Result struct {
	ID           uint64  `json:"id"`
	App          string  `json:"app"`
	Tenant       string  `json:"tenant,omitempty"`
	Status       string  `json:"status"`
	Error        string  `json:"error,omitempty"`
	SubmitUS     float64 `json:"submit_us"`
	WaitUS       float64 `json:"wait_us,omitempty"`
	ServiceUS    float64 `json:"service_us,omitempty"`
	SojournUS    float64 `json:"sojourn_us,omitempty"`
	Worker       int     `json:"worker"`
	Reprogrammed bool    `json:"reprogrammed,omitempty"`
}

// AdmitCode classifies a Submit outcome.
type AdmitCode int

// Submit outcomes.
const (
	// Admitted: the job is queued or running; Done closes at retirement.
	Admitted AdmitCode = iota
	// BadRequest: the scheduler failed the job at submission (unknown
	// app, oversized bitstream); Err carries the cause.
	BadRequest
	// QueueFull: the bounded admission queue bounced the job (HTTP 429).
	QueueFull
	// Overloaded: MaxOutstanding reached (HTTP 503).
	Overloaded
	// Draining: the server is shutting down and admits nothing (HTTP 503).
	Draining
	// Unavailable: the pool is fully degraded — every worker quarantined
	// by wedged reprograms, or the shard is inside a scheduled outage
	// window — and no new job could be placed (HTTP 503).
	Unavailable
)

// SubmitOutcome is Submit's result. Retry is the advisory wall-clock
// backoff for QueueFull/Overloaded/Draining.
type SubmitOutcome struct {
	Code  AdmitCode
	ID    uint64
	Done  <-chan struct{}
	Err   error
	Retry time.Duration
}

// NewServer builds a server over a fresh scheduler pool with the full
// serve catalog registered. Stats aggregation is always streaming: a
// daemon runs indefinitely, so O(jobs) exact ledgers are off the table.
func NewServer(cfg Config) (*Server, error) {
	if cfg.EFPGAs <= 0 {
		cfg.EFPGAs = 2
	}
	if cfg.MemHubs <= 0 {
		cfg.MemHubs = 1
	}
	if cfg.Backend == workload.BackendHybrid && cfg.SoftCPUs <= 0 {
		cfg.SoftCPUs = 1
	}
	if cfg.Timescale <= 0 {
		cfg.Timescale = 1
	}
	if cfg.WindowWidth <= 0 {
		cfg.WindowWidth = 250 * sim.MS
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 4 * cfg.QueueCap
	}
	if cfg.ResultCap <= 0 {
		cfg.ResultCap = 16384
	}
	if cfg.Namespace == "" {
		cfg.Namespace = "duetsim"
	}
	if cfg.Clock == nil {
		cfg.Clock = NewWallClock()
	}

	var inj *faults.Injector
	if cfg.Faults != nil {
		inj = faults.NewInjector(cfg.Faults, 0)
	}
	var tl liveTimeline
	var sch *sched.Scheduler
	switch cfg.Backend {
	case workload.BackendModel:
		mcfg := model.Config{
			EFPGAs: cfg.EFPGAs, SoftCPUs: cfg.SoftCPUs, MemHubs: cfg.MemHubs,
			Policy: cfg.Policy, QueueCap: cfg.QueueCap, Stats: sched.StatsStreaming,
			CPUSlowdown: cfg.CPUSlowdown,
		}
		if inj != nil {
			mcfg.Wrap = func(tl model.Timeline, worker int, be sched.Backend) sched.Backend {
				return inj.Wrap(tl, worker, be)
			}
			mcfg.Faults = cfg.Faults.FaultConfig(0)
		}
		rep := model.NewReplica(mcfg)
		sch = rep.Scheduler()
		tl = rep.Events()
	case workload.BackendCycle, workload.BackendHybrid:
		sys := duet.New(duet.Config{
			Cores: 1, MemHubs: cfg.MemHubs, EFPGAs: cfg.EFPGAs, Style: duet.StyleDuet,
		})
		var soft []sched.Backend
		if cfg.Backend == workload.BackendHybrid {
			for i := 0; i < cfg.SoftCPUs; i++ {
				soft = append(soft, model.NewCPU(sys.Eng, fmt.Sprintf("cpu%d", i), cfg.CPUSlowdown))
			}
		}
		scfg := sched.Config{
			Policy: cfg.Policy, QueueCap: cfg.QueueCap, Stats: sched.StatsStreaming,
		}
		var wrap func(worker int, be sched.Backend) sched.Backend
		if inj != nil {
			scfg.Faults = cfg.Faults.FaultConfig(0)
			wrap = func(worker int, be sched.Backend) sched.Backend {
				return inj.Wrap(sys.Eng, worker, be)
			}
		}
		sch = sys.SchedulerWrapped(scfg, wrap, soft...)
		tl = engineTimeline{sys.Eng}
	default:
		return nil, fmt.Errorf("daemon: unknown backend mode %v", cfg.Backend)
	}
	if err := workload.RegisterServeApps(sch); err != nil {
		return nil, err
	}
	rec := telemetry.NewRecorder(cfg.WindowWidth, sch.WorkerKinds())
	sch.SetObserver(rec)
	s := &Server{
		cfg:   cfg,
		clock: cfg.Clock,
		tl:    tl,
		sch:   sch,
		rec:   rec,
		byJob: make(map[*sched.Job]*entry),
		byID:  make(map[uint64]*entry),
	}
	sch.OnResult = s.onResult
	return s, nil
}

// simNow maps the clock's elapsed wall time onto the simulated timeline.
func (s *Server) simNow() sim.Time {
	return sim.Time(float64(s.clock.Elapsed().Nanoseconds()) * s.cfg.Timescale * float64(sim.NS))
}

// advanceLocked runs the simulated timeline up to the clock's current
// instant, retiring everything due on the way, and extends the telemetry
// horizon so idle wall time shows up as idle windows. Callers hold s.mu.
func (s *Server) advanceLocked() {
	if t := s.simNow(); t > s.tl.Now() {
		s.tl.RunUntil(t)
	}
	s.rec.ExtendHorizon(s.tl.Now())
}

// onResult is the scheduler's OnResult hook. The timeline only advances
// under s.mu, so it always runs with the lock held.
func (s *Server) onResult(j *sched.Job) {
	e, ok := s.byJob[j]
	if !ok {
		return
	}
	delete(s.byJob, j)
	s.outstanding--
	e.res = Result{
		ID:       e.id,
		App:      e.app,
		Tenant:   e.tenant,
		Status:   "ok",
		SubmitUS: float64(j.Submit) / float64(sim.US),
		Worker:   j.Fabric,
	}
	if j.Err != nil {
		e.res.Status = "failed"
		e.res.Error = j.Err.Error()
	} else {
		e.res.WaitUS = float64(j.Wait()) / float64(sim.US)
		e.res.ServiceUS = float64(j.Service()) / float64(sim.US)
		e.res.SojournUS = float64(j.Sojourn()) / float64(sim.US)
		e.res.Reprogrammed = j.Reprogrammed
	}
	close(e.done)
	s.order = append(s.order, e.id)
	if n := len(s.order) - s.cfg.ResultCap; n > 0 {
		for _, id := range s.order[:n] {
			delete(s.byID, id)
		}
		s.order = s.order[n:]
	}
}

// Submit offers a job at the clock's current instant. The admission
// ladder: draining and overload are checked before the scheduler ever
// sees the job; then the scheduler itself fails it (BadRequest) or
// bounces it off the bounded queue (QueueFull).
func (s *Server) Submit(req JobRequest) SubmitOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	if s.draining {
		return SubmitOutcome{Code: Draining, Retry: time.Second}
	}
	if s.outstanding >= s.cfg.MaxOutstanding {
		return SubmitOutcome{Code: Overloaded, Retry: s.retryLocked()}
	}
	if s.sch.HealthyWorkers() == 0 || s.sch.DownAt(s.tl.Now()) {
		return SubmitOutcome{Code: Unavailable, Retry: time.Second}
	}
	j := &sched.Job{App: req.App, InputSize: req.InputSize, Priority: req.Priority}
	if req.DeadlineUS > 0 {
		j.Deadline = s.tl.Now() + sim.Time(req.DeadlineUS)*sim.US
	}
	s.nextID++
	e := &entry{id: s.nextID, app: req.App, tenant: req.Tenant, job: j, done: make(chan struct{})}
	s.byJob[j] = e
	s.byID[e.id] = e
	s.outstanding++
	if !s.sch.Submit(j) {
		if j.Err != nil {
			// Failed at submission: the synchronous retire already ran
			// onResult, so the entry is finalized and queryable.
			return SubmitOutcome{Code: BadRequest, ID: e.id, Done: e.done, Err: j.Err}
		}
		// Queue bounce: the scheduler never retires rejected jobs, so
		// unwind the registration here.
		delete(s.byJob, j)
		delete(s.byID, e.id)
		s.outstanding--
		return SubmitOutcome{Code: QueueFull, Retry: s.retryLocked()}
	}
	s.admitted++
	return SubmitOutcome{Code: Admitted, ID: e.id, Done: e.done}
}

// retryLocked estimates the wall-clock wait until the backlog clears
// enough to retry: queue depth (+1 for the caller) served at the mean
// observed service time across the pool, converted through the
// timescale. Before any completion it assumes a generic 100µs service.
func (s *Server) retryLocked() time.Duration {
	mean := s.sch.Stats().MeanService
	if mean <= 0 {
		mean = 100 * sim.US
	}
	workers := s.sch.Workers()
	if workers < 1 {
		workers = 1
	}
	simWait := mean * sim.Time(s.sch.QueueLen()+1) / sim.Time(workers)
	return time.Duration(simWait.Seconds() / s.cfg.Timescale * float64(time.Second))
}

// Tick advances the simulated timeline to the clock's current instant.
// The daemon's ticker goroutine calls it continuously in wall-clock
// mode; fake-clock tests call it after each Advance.
func (s *Server) Tick() {
	s.mu.Lock()
	s.advanceLocked()
	s.mu.Unlock()
}

// RunTicker calls Tick every interval until stop is closed — the
// heartbeat that retires jobs even when no requests arrive. It blocks;
// run it in a goroutine.
func (s *Server) RunTicker(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = 2 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.Tick()
		}
	}
}

// Drain stops admitting (new submissions get Draining) and fast-forwards
// the simulated timeline to quiescence, retiring every queued and
// in-flight job — deterministic graceful shutdown: nothing admitted is
// ever dropped, sync waiters all unblock, and the flight recorder's
// horizon lands exactly on the last retirement.
func (s *Server) Drain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	s.advanceLocked()
	s.tl.Drain()
	s.rec.ExtendHorizon(s.tl.Now())
}

// Health is the /healthz readiness payload: the pool's degradation
// state under the fault model. Status is "healthy", "degraded" (some
// fabric quarantined but service continues), "down" (no healthy worker,
// or the shard is inside a scheduled outage window), or "draining".
type Health struct {
	Status         string `json:"status"`
	Workers        int    `json:"workers"`
	HealthyWorkers int    `json:"healthy_workers"`
	WedgedFabrics  int    `json:"wedged_fabrics"`
	DeadShards     int    `json:"dead_shards"`
}

// Health snapshots the readiness state at the clock's current instant.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	h := Health{
		Workers:        s.sch.Workers(),
		HealthyWorkers: s.sch.HealthyWorkers(),
		WedgedFabrics:  s.sch.QuarantinedWorkers(),
	}
	if s.sch.DownAt(s.tl.Now()) {
		h.DeadShards = 1
	}
	switch {
	case h.HealthyWorkers == 0 || h.DeadShards > 0:
		h.Status = "down"
	case s.draining:
		h.Status = "draining"
	case h.WedgedFabrics > 0:
		h.Status = "degraded"
	default:
		h.Status = "healthy"
	}
	return h
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Lookup reports the result of job id: ok is false for unknown (or
// evicted) ids; a not-yet-retired job comes back with Status "pending".
func (s *Server) Lookup(id uint64) (Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	e, ok := s.byID[id]
	if !ok {
		return Result{}, false
	}
	select {
	case <-e.done:
		return e.res, true
	default:
		return Result{
			ID: e.id, App: e.app, Tenant: e.tenant, Status: "pending",
			SubmitUS: float64(e.job.Submit) / float64(sim.US),
		}, true
	}
}

// Apps lists the registered application catalog.
func (s *Server) Apps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sch.Apps()
}

// Stats snapshots the scheduler's aggregate statistics (streaming mode:
// O(1) to read).
func (s *Server) Stats() sched.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	return s.sch.Stats()
}

// Series snapshots the telemetry window series.
func (s *Server) Series() []telemetry.WindowRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	return s.rec.Series()
}

// WriteMetrics writes the Prometheus exposition: the flight recorder's
// metrics followed by the daemon's own admission gauges. Handlers write
// into a buffer so the lock is never held across a slow client.
func (s *Server) WriteMetrics(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()
	if err := telemetry.WriteProm(w, s.cfg.Namespace, s.rec); err != nil {
		return err
	}
	ns := s.cfg.Namespace
	gauges := []struct {
		name, typ, help string
		value           int64
	}{
		{"admitted_total", "counter", "Jobs admitted past the daemon's ingress checks.", int64(s.admitted)},
		{"outstanding_jobs", "gauge", "Admitted jobs not yet retired.", int64(s.outstanding)},
		{"queue_len", "gauge", "Current admission-queue depth.", int64(s.sch.QueueLen())},
		{"draining", "gauge", "1 while the server is draining for shutdown.", b2i(s.draining)},
		{"healthy_workers", "gauge", "Workers still accepting placements.", int64(s.sch.HealthyWorkers())},
		{"wedged_fabrics", "gauge", "Fabrics quarantined by wedged reprograms.", int64(s.sch.QuarantinedWorkers())},
		{"shard_down", "gauge", "1 while the pool is inside a scheduled outage window.", b2i(s.sch.DownAt(s.tl.Now()))},
	}
	for _, g := range gauges {
		name := ns + "_" + g.name
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			name, g.help, name, g.typ, name, g.value); err != nil {
			return err
		}
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
