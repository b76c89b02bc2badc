// Package model implements calibrated analytic execution backends for
// the accelerator-as-a-service scheduler — the fast path of the
// capacity-planning story. A model backend charges exactly the same App
// service and reprogramming model as the cycle-level adapter path
// (sched.ReprogramCost is shared, term for term, with the adapter's
// quiesce → program → resume → settle event chain) but with no Dolly
// instance behind it: no NoC, no coherence domain, no cores, no MMIO.
//
// Crucially the scheduler itself is NOT reimplemented: a model replica
// runs the real sched.Scheduler — the same admission queue, policies and
// statistics code — over model backends, driven by a tiny analytic
// event timeline (Events) instead of the full discrete-event engine.
// Semantics therefore match the cycle-level path by construction; what
// changes is the cost per job, which drops from the engine's
// calendar-and-heap machinery to a handful of arithmetic operations.
// That is what makes 100M-job streaming-stats studies practical (see
// PERF.md for measured model-vs-cycle speedups).
//
// The package also provides the CPU soft-path fallback backend: jobs
// execute as software at a calibrated slowdown, with no bitstream and no
// reconfiguration cost. The sched.Hybrid policy spills onto CPU workers
// when every fitting fabric is busy and the modeled soft-path completion
// beats waiting — the dynamic hardware/software partitioning scenario.
package model

import (
	"fmt"

	"duet/internal/cluster"
	"duet/internal/efpga"
	"duet/internal/params"
	"duet/internal/sched"
	"duet/internal/sim"
	"duet/internal/telemetry"
)

// Timeline is the scheduling surface a model backend needs: current
// time plus deferred-callback scheduling. Both the package's analytic
// Events timeline and the full *sim.Engine satisfy it, so model
// backends can ride in an engine-backed scheduler (mixed-fidelity
// pools, the hybrid CPU spill) or in a pure analytic replica.
type Timeline interface {
	Now() sim.Time
	AfterArg(d sim.Time, fn func(any), arg any)
}

// Events is the analytic event timeline: an unsorted slice of pending
// callbacks popped by linear min-scan over (time, scheduling order). It
// is the engine-free substrate model replicas run the real scheduler on.
// The pending set never outgrows the worker count (one completion chain
// per busy worker), so a scan of a handful of entries beats any heap —
// scheduling is a bare append and popping is a few comparisons, with
// none of the full engine's calendar bookkeeping.
type Events struct {
	now sim.Time
	seq uint64
	h   []ev
}

type ev struct {
	at  sim.Time
	seq uint64
	fn  func(any)
	arg any
}

// Now reports the current simulated time.
func (e *Events) Now() sim.Time { return e.now }

// AfterArg schedules fn(arg) d after the current instant. Same-instant
// callbacks run in scheduling order, matching the engine's bucket
// semantics.
func (e *Events) AfterArg(d sim.Time, fn func(any), arg any) {
	e.h = append(e.h, ev{at: e.now + d, seq: e.seq, fn: fn, arg: arg})
	e.seq++
}

// next reports the index of the earliest pending callback: smallest
// time, scheduling order breaking ties.
func (e *Events) next() int {
	m := 0
	for i := 1; i < len(e.h); i++ {
		if e.h[i].at < e.h[m].at || (e.h[i].at == e.h[m].at && e.h[i].seq < e.h[m].seq) {
			m = i
		}
	}
	return m
}

// popAt removes and runs pending callback m (an index from next).
func (e *Events) popAt(m int) {
	top := e.h[m]
	n := len(e.h) - 1
	e.h[m] = e.h[n]
	e.h[n] = ev{} // drop the stale fn/arg references
	e.h = e.h[:n]
	e.now = top.at
	top.fn(top.arg)
}

// RunUntil runs every callback strictly before t, then advances the
// timeline to t. Events at exactly t stay pending: a submission at t is
// processed before completions at t, matching the engine's ordering of
// pre-scheduled arrivals against run-time completions.
func (e *Events) RunUntil(t sim.Time) {
	for len(e.h) > 0 {
		m := e.next()
		if e.h[m].at >= t {
			break
		}
		e.popAt(m)
	}
	if t > e.now {
		e.now = t
	}
}

// Drain runs every pending callback to exhaustion.
func (e *Events) Drain() {
	for len(e.h) > 0 {
		e.popAt(e.next())
	}
}

// Config parameterizes one analytic serve replica — the model-backend
// mirror of a cycle-level Dolly serve system.
type Config struct {
	EFPGAs   int // analytic fabric workers (default 1)
	SoftCPUs int // CPU soft-path workers appended after the fabrics
	MemHubs  int // memory hubs per (modeled) adapter, for reprogram cost

	Policy       sched.Policy
	QueueCap     int
	SettleCycles int64
	Stats        sched.StatsMode

	// FPGAFreqMHz is the initial fabric clock (defaults to 100 MHz,
	// matching duet.Config); each app's Fmax takes over on first
	// configuration, exactly as on the cycle path.
	FPGAFreqMHz float64
	// FabricCap is the per-fabric capacity (defaults to
	// efpga.DefaultFabricCap, matching duet.Config).
	FabricCap efpga.Resources
	// CPUSlowdown scales App service times on the soft path (defaults to
	// DefaultCPUSlowdown).
	CPUSlowdown float64

	// DiscardSamples skips PlayStream's exact-mode per-job harvest
	// (Sojourns and the wait/service sums) — for single-replica callers
	// that read Stats only. Cluster shards must leave it false: Merge
	// pools the raw samples for exact quantiles.
	DiscardSamples bool

	// Wrap, when set, decorates each backend before the scheduler sees
	// it — the fault-injection seam (internal/faults plugs in here). It
	// receives the replica's timeline, the backend's worker index, and
	// the undecorated backend.
	Wrap func(tl Timeline, worker int, be sched.Backend) sched.Backend
	// Faults is the scheduler-side fault configuration (retry budget,
	// deadline enforcement, downtime windows). The zero value changes
	// nothing.
	Faults sched.FaultConfig
}

// Replica is an analytic serve shard: the real sched.Scheduler over
// model backends on an Events timeline. It implements cluster.Replica,
// so model shards drop into any cluster — alone, or mixed with
// cycle-level shards in a heterogeneous farm.
type Replica struct {
	ev      *Events
	sch     *sched.Scheduler
	discard bool
	rec     *telemetry.Recorder
}

// NewReplica builds an analytic replica with cfg's worker pool.
func NewReplica(cfg Config) *Replica {
	if cfg.EFPGAs <= 0 {
		cfg.EFPGAs = 1
	}
	if cfg.FPGAFreqMHz == 0 {
		cfg.FPGAFreqMHz = 100
	}
	if cfg.FabricCap == (efpga.Resources{}) {
		cfg.FabricCap = efpga.DefaultFabricCap
	}
	if cfg.CPUSlowdown <= 0 {
		cfg.CPUSlowdown = DefaultCPUSlowdown
	}
	ev := &Events{}
	var backends []sched.Backend
	for i := 0; i < cfg.EFPGAs; i++ {
		backends = append(backends, NewFabric(ev, FabricParams{
			Name:        fmt.Sprintf("efpga%d", i),
			Cap:         cfg.FabricCap,
			Hubs:        cfg.MemHubs,
			FastPeriod:  params.CPUClockPS,
			InitFreqMHz: cfg.FPGAFreqMHz,
		}))
	}
	for i := 0; i < cfg.SoftCPUs; i++ {
		backends = append(backends, NewCPU(ev, fmt.Sprintf("cpu%d", i), cfg.CPUSlowdown))
	}
	if cfg.Wrap != nil {
		for i, be := range backends {
			backends[i] = cfg.Wrap(ev, i, be)
		}
	}
	sch := sched.New(ev, backends, sched.Config{
		Policy: cfg.Policy, QueueCap: cfg.QueueCap,
		SettleCycles: cfg.SettleCycles, Stats: cfg.Stats,
		Faults: cfg.Faults,
	})
	return &Replica{ev: ev, sch: sch, discard: cfg.DiscardSamples}
}

// Scheduler exposes the replica's scheduler (catalog registration,
// direct submission, stats).
func (r *Replica) Scheduler() *sched.Scheduler { return r.sch }

// SetRecorder attaches a windowed flight recorder: PlayStream installs
// it as the scheduler's observer before any submission and hands it back
// in ShardResult.Windows — the same wiring as cluster.EngineReplica.Rec,
// so the cycle and model paths instrument identically.
func (r *Replica) SetRecorder(rec *telemetry.Recorder) { r.rec = rec }

// Events exposes the replica's analytic timeline, for live feeders (the
// daemon's clock bridge) that advance simulated time incrementally
// instead of playing a feed.
func (r *Replica) Events() *Events { return r.ev }

// RegisterApp adds an application to the replica's catalog.
func (r *Replica) RegisterApp(app sched.App) error { return r.sch.RegisterApp(app) }

// Predict exposes the catalog model for front-end routing.
func (r *Replica) Predict(app string, inputSize int) (sim.Time, bool) {
	return r.sch.Predict(app, inputSize)
}

// Workers reports the replica's worker count.
func (r *Replica) Workers() int { return r.sch.Workers() }

// PlayStream runs the shard over its feed through cluster.Drive: the
// analytic timeline advances to each arrival (RunUntil), running due
// completions on the way, and drains once the feed is exhausted.
func (r *Replica) PlayStream(feed cluster.ArrivalFeed) (cluster.ShardResult, error) {
	drain := func() error { r.ev.Drain(); return nil }
	return cluster.Drive(feed, r.sch, r.rec, r.discard, r.ev.RunUntil, drain)
}
