package daemon

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"duet/internal/cluster"
	"duet/internal/faults"
	"duet/internal/sched"
	"duet/internal/sim"
	"duet/internal/telemetry"
	"duet/internal/workload"
)

// Config parameterizes one daemon server. The zero value (with defaults
// applied by NewServer) is a 2-eFPGA cycle-level pool at timescale 1
// — one simulated second per wall second.
type Config struct {
	// Backend selects the execution backend: workload.BackendCycle
	// (the zero value, full Dolly instance), BackendModel (analytic fast
	// path), or BackendHybrid (cycle fabrics + CPU soft-path workers).
	// NewServer rejects any other mode.
	Backend workload.BackendMode

	EFPGAs   int          // fabric workers (default 2)
	SoftCPUs int          // soft-path workers (hybrid default 1)
	Policy   sched.Policy // placement policy
	QueueCap int          // bounded admission queue (default sched.DefaultQueueCap)

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

	// Faults, when non-nil, installs the deterministic fault-injection
	// seam on the daemon's pool (internal/faults): wedge-on-reprogram
	// quarantines and their repairs, retry budgets, deadline enforcement
	// and downtime windows, all in simulated time. The daemon is a
	// single-shard stack, so the plan's shard-0 schedule applies.
	Faults *faults.Plan

	// Clock is the wall-time source (default NewWallClock). Tests inject
	// a *FakeClock here.
	Clock Clock
}

const (
	// resultCap bounds the finished results retained for
	// GET /v1/jobs/{id}, evicted oldest-first.
	resultCap = 16384
	// namespace prefixes every exposed metric.
	namespace = "duetsim"
)

// Server is the live ingest front end. One mutex guards the pool (its
// timeline and scheduler) and the result tables: the simulated timeline
// only advances while it is held, so scheduler callbacks (OnResult,
// observer hooks) always run under it. HTTP handlers are thin shims over the
// exported methods, which are all safe for concurrent use.
type Server struct {
	cfg   Config
	clock Clock

	mu          sync.Mutex
	pool        cluster.Pool
	sch         *sched.Scheduler
	rec         *telemetry.Recorder
	byJob       map[*sched.Job]*entry
	byID        map[uint64]*entry
	order       []*entry // ring of retired entries, order[head] the oldest
	head        int
	free        *entry // recycled entries, linked through next
	nextID      uint64
	outstanding int
	draining    bool
	admitted    uint64
}

// entry tracks one accepted job from admission to retirement, and its
// result until resultCap later retirements evict it. A record is
// recycled, through the free list, when that eviction removes it from
// byID or when a QueueFull bounce unwinds its registration; the
// scheduler keeps no reference to a retired or bounced job, so nothing
// reads the record after that. The one exception is a sync waiter's
// record, which Submit holds: an eviction leaves it to collect, which
// recycles it once the waiter has read its result. Callers handed its
// done channel may still hold it: reuse resets the whole record with a
// fresh channel, so the old one stays closed (or, after a bounce, was
// never handed out).
type entry struct {
	id   uint64
	job  sched.Job
	done chan struct{} // closed at retirement, after res is final
	res  Result        // ID, App and Tenant from admission; the rest at retirement
	held bool          // a sync waiter has yet to collect res
	next *entry        // free-list link
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

	// held is the record of an admitted Wait job, kept from recycling
	// until the waiter collects it.
	held *entry
}

// NewServer builds a server over a fresh serve pool — workload's
// single-shard builder, so the live catalog, worker pool and fault seam
// are the ones batch studies run. Stats aggregation is always streaming:
// a daemon runs indefinitely, so keeping every sojourn sample (exact
// mode's O(jobs) memory) is off the table.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Timescale <= 0 {
		cfg.Timescale = 1
	}
	if cfg.WindowWidth <= 0 {
		cfg.WindowWidth = 250 * sim.MS
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = sched.DefaultQueueCap
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 4 * cfg.QueueCap
	}
	if cfg.Clock == nil {
		cfg.Clock = NewWallClock()
	}
	pool, err := workload.NewServePool(workload.ServeConfig{
		Backend: cfg.Backend, EFPGAs: cfg.EFPGAs, SoftCPUs: cfg.SoftCPUs,
		Policy: cfg.Policy, QueueCap: cfg.QueueCap, Stats: sched.StatsStreaming,
		Faults: cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	sch := pool.Scheduler()
	rec := telemetry.NewRecorder(cfg.WindowWidth, sch.WorkerKinds())
	sch.SetObserver(rec)
	s := &Server{
		cfg:   cfg,
		clock: cfg.Clock,
		pool:  pool,
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
// instant, retiring everything due before it, and extends the telemetry
// horizon so idle wall time shows up as idle windows. Completions due at
// exactly that instant stay pending, so a submission made now precedes
// them — the rule every batch front end plays by (cluster.Pool). Callers
// hold s.mu.
func (s *Server) advanceLocked() {
	if t := s.simNow(); t > s.pool.Now() {
		s.pool.Advance(t)
	}
	s.rec.ExtendHorizon(s.pool.Now())
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
	e.res.Status = "ok"
	e.res.SubmitUS = float64(j.Submit) / float64(sim.US)
	e.res.Worker = j.Fabric
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
	if len(s.order) < resultCap {
		s.order = append(s.order, e)
		return
	}
	old := s.order[s.head]
	delete(s.byID, old.id)
	if !old.held { // else collect recycles it
		s.recycle(old)
	}
	s.order[s.head] = e
	s.head = (s.head + 1) % resultCap
}

// recycle puts an entry no longer reachable through byID or byJob on the
// free list.
func (s *Server) recycle(e *entry) {
	e.next = s.free
	s.free = e
}

// collect releases the record Submit held for an admitted Wait job and
// returns its result, final once Done has closed. The waiter calls it
// once: after Done closes, or when it gives up waiting. The hold kept the
// record from recycling, so the result is the waiter's own even after
// resultCap later retirements evicted it from byID.
func (s *Server) collect(e *entry) Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := e.res
	e.held = false
	if s.byID[e.id] != e { // evicted while held
		s.recycle(e)
	}
	return res
}

// newEntry takes a recycled entry, or allocates one, and resets it for a
// new job with a fresh done channel.
func (s *Server) newEntry(id uint64, req JobRequest, r sched.Request) *entry {
	e := s.free
	if e == nil {
		e = new(entry)
	} else {
		s.free = e.next
	}
	*e = entry{
		id: id, job: sched.Job{Request: r}, done: make(chan struct{}),
		res: Result{ID: id, App: req.App, Tenant: req.Tenant},
	}
	return e
}

// Submit offers a job at the clock's current instant. The admission
// ladder: draining, overload and a down pool are checked before the
// scheduler ever sees the job; then a request naming an unknown app or
// carrying an unservable field fails (BadRequest, still counted in
// Stats.Failed and queryable); then the scheduler itself fails it
// (BadRequest) or bounces it off the bounded queue (QueueFull). An
// admitted req.Wait job's record is held for the HTTP handler's sync
// waiter (collect); a caller that never collects only costs the record
// its recycling.
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
	if s.sch.HealthyWorkers() == 0 || s.sch.DownAt(s.pool.Now()) {
		return SubmitOutcome{Code: Unavailable, Retry: time.Second}
	}
	r, bad := s.resolve(req, s.pool.Now())
	s.nextID++
	e := s.newEntry(s.nextID, req, r)
	j := &e.job
	s.byJob[j] = e
	s.byID[e.id] = e
	s.outstanding++
	if bad != nil {
		// Refuse retires the job synchronously, like a failed Submit.
		s.sch.Refuse(j, bad)
		return SubmitOutcome{Code: BadRequest, ID: e.id, Done: e.done, Err: bad}
	}
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
		s.recycle(e)
		return SubmitOutcome{Code: QueueFull, Retry: s.retryLocked()}
	}
	s.admitted++
	out := SubmitOutcome{Code: Admitted, ID: e.id, Done: e.done}
	if req.Wait {
		e.held, out.held = true, e
	}
	return out
}

// maxInputSize bounds a job's input_size: far past any real request, yet
// small enough that every catalog app's modeled service time stays well
// inside the simulated clock's int64 picoseconds.
const maxInputSize = 1 << 24

// resolve turns a wire request arriving at instant now into a scheduler
// request, resolving the app name to its catalog index once. An unknown
// app or an unservable field is an error naming the culprit, which
// Submit fails the job with.
func (s *Server) resolve(req JobRequest, now sim.Time) (sched.Request, error) {
	id, ok := s.sch.Lookup(req.App)
	if !ok {
		return sched.Request{}, fmt.Errorf("daemon: unknown app %q", req.App)
	}
	if req.InputSize < 0 || req.InputSize > maxInputSize {
		return sched.Request{}, fmt.Errorf("daemon: input_size %d outside [0, %d]", req.InputSize, maxInputSize)
	}
	r := sched.Request{App: id, InputSize: req.InputSize, Priority: req.Priority}
	switch {
	case req.DeadlineUS < 0:
		return sched.Request{}, fmt.Errorf("daemon: deadline_us %d is negative (0 means none)", req.DeadlineUS)
	case req.DeadlineUS > (math.MaxInt64-int64(now))/int64(sim.US):
		return sched.Request{}, fmt.Errorf("daemon: deadline_us %d overflows the simulated clock", req.DeadlineUS)
	case req.DeadlineUS > 0:
		r.Deadline = now + sim.Time(req.DeadlineUS)*sim.US
	}
	return r, nil
}

// retryLocked estimates the wall-clock wait until the backlog clears
// enough to retry: queue depth (+1 for the caller) served at the mean
// observed service time across the pool, converted through the
// timescale. Before any completion it assumes a generic 100µs service.
func (s *Server) retryLocked() time.Duration {
	mean := s.sch.MeanService()
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
// horizon lands exactly on the last retirement. The error is the pool's
// end-of-run validation (a failed coherence check on an engine-backed
// pool); the drain itself completes either way.
func (s *Server) Drain() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	s.advanceLocked()
	err := s.pool.Drain()
	s.rec.ExtendHorizon(s.pool.Now())
	return err
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
	if s.sch.DownAt(s.pool.Now()) {
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
		res := e.res
		res.Status = "pending"
		res.SubmitUS = float64(e.job.Submit) / float64(sim.US)
		return res, true
	}
}

// Apps lists the registered application catalog.
func (s *Server) Apps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sch.Apps()
}

// Stats snapshots the scheduler's aggregate statistics: it summarizes the
// sojourn digest and builds one row per worker, so it costs more than a
// counter read.
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
	if err := telemetry.WriteProm(w, namespace, s.rec); err != nil {
		return err
	}
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
		{"shard_down", "gauge", "1 while the pool is inside a scheduled outage window.", b2i(s.sch.DownAt(s.pool.Now()))},
	}
	for _, g := range gauges {
		name := namespace + "_" + g.name
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
