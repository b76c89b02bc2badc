// Package cluster shards the accelerator-as-a-service runtime across many
// independent serve replicas — the scale axis past a single System. Each
// shard is an isolated simulated instance behind the Replica interface:
// a complete cycle-level Dolly system (EngineReplica: its own sim.Engine,
// adapters, fabrics, and sched.Scheduler), or internal/model's analytic
// fast-path replica, and the two kinds can be mixed in one heterogeneous
// cluster. Engine-backed shards run concurrently on real goroutines, one
// replica per goroutine, joined errgroup-style (all goroutines complete,
// first error wins).
//
// Determinism contract: a cluster run is byte-identical per
// (seed, shards, front end, per-shard configs) regardless of goroutine
// interleaving. Three properties deliver it:
//
//  1. The arrival stream is a pure function of the seed, and the front
//     end's routing decisions are a pure function of the stream, the
//     shard count, and each shard's catalog model (Predict/Workers) —
//     routing never observes live shard state. RunSource (stream.go)
//     makes the decisions online, in stream order, off an O(1)-memory
//     source, without ever building the stream.
//  2. Each shard's simulation is a deterministic run over state nothing
//     else touches; per-shard seeds are derived from the cluster seed
//     (ShardSeed) for any replica-local draws.
//  3. Per-shard results are merged in shard-index order with exact
//     latency-quantile merging: the raw per-job sojourn samples are
//     pooled and ranked over the whole population, never approximated
//     from pre-binned per-shard percentiles (see stats.go).
package cluster

import (
	"fmt"
	"slices"

	"duet/internal/sched"
	"duet/internal/sim"
	"duet/internal/telemetry"
)

// Replica is one shard: an isolated simulated serve instance. The front
// end routes by the replica's catalog (Apps, Predict, Workers);
// PlayStream runs the shard to completion over its share of the arrival
// stream. Arrivals name apps by sched.AppID, so every shard of a run
// must list the same catalog in the same order (RunSource checks it).
// Implementations: EngineReplica (cycle-level Dolly system) and
// internal/model's analytic fast-path replica; both are Pools and play
// through Drive.
type Replica interface {
	// Apps lists the shard's catalog names in AppID order.
	Apps() []string
	// Predict is the shard catalog's analytic occupancy estimate for one
	// job — what deterministic front ends route by. ok is false for an
	// AppID outside the catalog.
	Predict(app sched.AppID, inputSize int) (est sim.Time, ok bool)
	// Workers reports the shard's worker count (the front end's view of
	// its service parallelism).
	Workers() int
	// PlayStream consumes the shard's assigned arrivals from the feed as
	// they are produced, keeping memory independent of the job count,
	// and returns the harvested results.
	PlayStream(feed ArrivalFeed) (ShardResult, error)
}

// Pool is the one seam a serve replica's simulated time moves through.
// Drive plays a feed over it and the live daemon calls it directly, so
// every front end orders a tie the same way: a submission at instant t
// precedes every completion due at t.
type Pool interface {
	// Scheduler is the replica's scheduler (catalog, submission, stats).
	Scheduler() *sched.Scheduler
	// Now reports the replica's simulated time.
	Now() sim.Time
	// Advance runs every pending event strictly before t, then moves the
	// clock to t; events at exactly t stay pending.
	Advance(t sim.Time)
	// Drain runs the remaining events to quiescence, reports any
	// model-level error and releases the replica's simulation resources.
	// The drained pool still answers Now and Advance.
	Drain() error
}

// EngineReplica is a cycle-level shard: a fully independent simulated
// Duet instance (its own sim.Engine and scheduler). Run drains the
// replica's event queue and returns any model-level validation error
// (e.g. a failed coherence check).
type EngineReplica struct {
	Eng *sim.Engine
	Sch *sched.Scheduler
	Run func() error

	// Rec, when set, is the shard's windowed flight recorder: PlayStream
	// attaches it to the scheduler before any submission and hands it
	// back in ShardResult.Windows. Window widths must agree across
	// shards for the cluster-level merge (RunSource enforces it).
	Rec *telemetry.Recorder
}

// Apps lists the shard's catalog in AppID order.
func (r *EngineReplica) Apps() []string { return r.Sch.Apps() }

// Predict exposes the shard's catalog model for front-end routing.
func (r *EngineReplica) Predict(app sched.AppID, inputSize int) (sim.Time, bool) {
	return r.Sch.Predict(app, inputSize)
}

// Workers reports the shard's worker count.
func (r *EngineReplica) Workers() int { return r.Sch.Workers() }

// Scheduler exposes the shard's scheduler.
func (r *EngineReplica) Scheduler() *sched.Scheduler { return r.Sch }

// Now reports the engine's simulated time.
func (r *EngineReplica) Now() sim.Time { return r.Eng.Now() }

// Advance runs the engine's events strictly before t (RunBefore), so the
// calendar holds only in-flight completion chains, never O(jobs)
// pre-scheduled arrival events.
func (r *EngineReplica) Advance(t sim.Time) { r.Eng.RunBefore(t) }

// Drain runs the engine to quiescence through Run, then closes it,
// releasing the system's parked simulation threads.
func (r *EngineReplica) Drain() error {
	err := r.Run()
	r.Eng.Close()
	return err
}

// PlayStream plays the replica once, through Drive.
func (r *EngineReplica) PlayStream(feed ArrivalFeed) (ShardResult, error) {
	return Drive(feed, r, r.Rec)
}

// Drive is the one replica play loop: it submits the feed's arrivals to
// p's scheduler in order, advancing p to each arrival instant first, and
// harvests the shard's results (sched.Scheduler.Harvest) once the feed
// is exhausted and p drained. rec, when non-nil, becomes the scheduler's
// observer before the first submission and is handed back in
// ShardResult.Windows.
//
// The scheduler keeps no reference to a retired job, so Drive recycles
// job records through a freelist fed by the OnResult hook: the run
// allocates O(in-flight) jobs however many the feed offers.
func Drive(feed ArrivalFeed, p Pool, rec *telemetry.Recorder) (ShardResult, error) {
	sch := p.Scheduler()
	var sr ShardResult
	if rec != nil {
		sch.SetObserver(rec)
		sr.Windows = rec
	}
	var free []*sched.Job
	sch.OnResult = func(j *sched.Job) { free = append(free, j) }
	var a Arrival
	for feed.Next(&a) {
		p.Advance(a.At)
		var j *sched.Job
		if n := len(free); n > 0 {
			j, free = free[n-1], free[:n-1]
		} else {
			j = new(sched.Job)
		}
		*j = sched.Job{Request: a.Request}
		if !sch.Submit(j) && j.Err == nil {
			// Queue-full bounce: the job was never admitted and never
			// retired (no OnResult), so the scheduler holds no reference —
			// recycle the record directly. Submissions refused with an
			// error were retired and already recycled via OnResult.
			free = append(free, j)
		}
	}
	err := p.Drain()
	sr.Stats = sch.Stats()
	// The samples and digest are the scheduler's own, adopted by the
	// shard result; the replica is discarded after this run, so nothing
	// else writes to them.
	sr.Sojourns, sr.Digest, sr.WaitSum, sr.ServiceSum = sch.Harvest()
	return sr, err
}

// Arrival is one job request offered to the cluster front end at
// absolute simulated time At: a 40-byte record. It carries the request
// alone, by value: the shard that plays it builds its own job record, so
// shards never share job state.
type Arrival struct {
	At sim.Time
	sched.Request
}

// Config parameterizes one cluster run.
type Config struct {
	Shards   int      // independent replicas (default 1)
	FrontEnd FrontEnd // arrival-stream routing policy
	Seed     int64    // cluster seed; per-shard seeds derive from it

	// NewReplica builds shard i with its derived seed. Shards may be
	// heterogeneous — different worker counts, fabric clocks or
	// execution backends — but every shard must register the same
	// application catalog in the same order, since arrivals carry
	// catalog indices (RunSource fails the run otherwise); the front end
	// routes by each shard's own catalog model. Construction runs
	// sequentially, in shard order, before any goroutine starts.
	NewReplica func(shard int, seed int64) (Replica, error)

	// Faults, when set, is the front end's view of the run's fault plan:
	// shard outage schedules for dead-shard reroute, and the hedging
	// horizon for duplicate re-dispatch ahead of an imminent crash. Each
	// reroute or hedge decision depends only on the routed arrival and
	// this static schedule, so the fault pass preserves the determinism
	// contract verbatim. Nil (or an inactive spec) changes nothing.
	Faults *FaultSpec

	// Progress, when set, receives coarse delivered-arrival counts and
	// the simulated-time high-water mark from RunSource's feeds — the
	// sensor behind duetsim's -progress ticker. Nil disables updates.
	Progress *Progress
}

// FaultSpec is the cluster-level slice of a fault plan (the front end
// never sees wedge draws — those live below the Backend seam).
type FaultSpec struct {
	// ShardDown lists outage windows per shard index (ascending,
	// non-overlapping per shard; shards past the length never crash).
	// Arrivals routed to a shard inside one of its windows are rerouted
	// to the next healthy shard in index order; with every shard down
	// the arrival stays put and the shard's scheduler refuses it.
	ShardDown [][]sched.Downtime
	// Hedge, when positive, duplicates every arrival whose shard will
	// crash within Hedge of the arrival instant onto a healthy backup
	// shard — the duplicate takes its source's place in stream order,
	// so every shard still sees its arrivals in ascending order.
	Hedge sim.Time
	// RecoverHold is the health-weighted front end's hysteresis: a shard
	// whose outage window closed less than RecoverHold ago ranks as
	// recovering — behind every healthy shard, ahead of down ones — so
	// traffic ramps back instead of slamming into a just-rejoined shard.
	// Zero means rejoined shards rank healthy immediately.
	RecoverHold sim.Time
}

// active reports whether the spec can change any routing decision.
func (f *FaultSpec) active() bool {
	if f == nil {
		return false
	}
	if f.Hedge > 0 {
		return true
	}
	for _, d := range f.ShardDown {
		if len(d) > 0 {
			return true
		}
	}
	return false
}

// downAt reports whether shard is inside an outage window at instant at.
func (f *FaultSpec) downAt(shard int, at sim.Time) bool {
	if shard < 0 || shard >= len(f.ShardDown) {
		return false
	}
	for _, w := range f.ShardDown[shard] {
		if at >= w.From && at < w.To {
			return true
		}
	}
	return false
}

// healthClass ranks shard for the health-weighted front end at instant
// at: 0 healthy, 1 recovering (inside the RecoverHold hysteresis after
// an outage window closed), 2 down. A nil spec ranks everything healthy.
func (f *FaultSpec) healthClass(shard int, at sim.Time) int {
	if f == nil || shard < 0 || shard >= len(f.ShardDown) {
		return 0
	}
	for _, w := range f.ShardDown[shard] {
		if at >= w.From && at < w.To {
			return 2
		}
		if f.RecoverHold > 0 && at >= w.To && at < w.To+f.RecoverHold {
			return 1
		}
	}
	return 0
}

// crashesWithin reports whether shard enters an outage window in
// (at, at+Hedge].
func (f *FaultSpec) crashesWithin(shard int, at sim.Time) bool {
	if shard < 0 || shard >= len(f.ShardDown) {
		return false
	}
	for _, w := range f.ShardDown[shard] {
		if w.From > at && w.From <= at+f.Hedge {
			return true
		}
	}
	return false
}

// nextHealthy scans shard indices after s (wrapping) for one not down at
// instant at; ok is false when every other shard is down too.
func (f *FaultSpec) nextHealthy(shards, s int, at sim.Time) (int, bool) {
	for k := 1; k < shards; k++ {
		alt := (s + k) % shards
		if !f.downAt(alt, at) {
			return alt, true
		}
	}
	return s, false
}

// ShardSeed derives shard i's seed from the cluster seed with a
// splitmix64 finalizer, so adjacent shards draw unrelated streams.
func ShardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + uint64(shard+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// ShardResult is one shard's share of a cluster run.
type ShardResult struct {
	Shard    int
	Seed     int64
	Assigned int // arrivals routed to this shard
	Stats    sched.Stats

	// Sojourns holds every completed job's submit-to-finish latency in
	// completion order (the scheduler's exact-mode samples, see
	// sched.Scheduler.Harvest) — the raw samples behind exact merged
	// quantiles. Nil in streaming mode, where Digest replaces it.
	Sojourns []sim.Time
	// Digest is the fixed-memory sojourn summary harvested when the
	// shard's scheduler runs with sched.StatsStreaming: per-shard stats
	// memory stays O(1) in the job count and Merge combines digests
	// instead of pooling raw samples. Nil in exact mode.
	Digest *sched.Digest
	// WaitSum and ServiceSum are exact sums over completed jobs, kept so
	// merged means are computed from totals rather than re-divided
	// per-shard means.
	WaitSum, ServiceSum sim.Time

	// Windows is the shard's windowed flight recorder, populated when
	// the replica was built with one (EngineReplica.Rec, or the model
	// replica's SetRecorder). Per-shard window series are keyed by the
	// shared simulated timeline, so RunSource merges them exactly into
	// Result.Windows. Nil when telemetry was off.
	Windows *telemetry.Recorder
}

// Result is the outcome of one cluster run.
type Result struct {
	Shards   int
	FrontEnd FrontEnd
	Offered  int
	Merged   sched.Stats
	PerShard []ShardResult

	// Rerouted counts arrivals moved off a down shard by the front end's
	// fault pass; Hedged counts duplicate arrivals dispatched ahead of an
	// imminent shard crash. Both are zero without a fault spec.
	Rerouted int
	Hedged   int

	// Windows is the cluster-wide flight-recorder merge: per-shard
	// window series combined index for index in shard order (counters
	// add, busy columns concatenate, digests merge). Nil when no shard
	// recorded telemetry.
	Windows *telemetry.Recorder
}

// buildReplicas validates cfg and constructs every shard sequentially,
// in shard order, with its derived seed. It also returns the run's
// catalog: arrivals name apps by AppID, so every shard must list shard
// 0's.
func buildReplicas(cfg Config) (reps []Replica, seeds []int64, catalog []string, err error) {
	if cfg.FrontEnd < 0 || cfg.FrontEnd >= NumFrontEnds {
		return nil, nil, nil, fmt.Errorf("cluster: unknown front end %d", cfg.FrontEnd)
	}
	if cfg.NewReplica == nil {
		return nil, nil, nil, fmt.Errorf("cluster: Config.NewReplica is required")
	}
	reps = make([]Replica, cfg.Shards)
	seeds = make([]int64, cfg.Shards)
	for i := range reps {
		seeds[i] = ShardSeed(cfg.Seed, i)
		r, err := cfg.NewReplica(i, seeds[i])
		if err != nil {
			return nil, nil, nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		if r == nil {
			return nil, nil, nil, fmt.Errorf("cluster: shard %d: nil replica", i)
		}
		if er, ok := r.(*EngineReplica); ok && (er.Eng == nil || er.Sch == nil || er.Run == nil) {
			return nil, nil, nil, fmt.Errorf("cluster: shard %d: replica needs Eng, Sch and Run", i)
		}
		if apps := r.Apps(); i == 0 {
			catalog = apps
		} else if !slices.Equal(apps, catalog) {
			return nil, nil, nil, fmt.Errorf("cluster: shard %d: catalog %q differs from shard 0's %q", i, apps, catalog)
		}
		reps[i] = r
	}
	return reps, seeds, catalog, nil
}

// finish stamps per-shard identity onto the results and performs the
// deterministic shard-order merge.
func finish(cfg Config, seeds []int64, results []ShardResult, counts []int, offered, rerouted, hedged int) (Result, error) {
	for i := range results {
		results[i].Shard = i
		results[i].Seed = seeds[i]
		results[i].Assigned = counts[i]
	}
	res := Result{
		Shards:   cfg.Shards,
		FrontEnd: cfg.FrontEnd,
		Offered:  offered,
		PerShard: results,
		Rerouted: rerouted,
		Hedged:   hedged,
	}
	res.Merged = Merge(results)
	recs := make([]*telemetry.Recorder, len(results))
	for i := range results {
		recs[i] = results[i].Windows
	}
	var err error
	if res.Windows, err = telemetry.Merge(recs...); err != nil {
		return Result{}, fmt.Errorf("cluster: merging window series: %w", err)
	}
	return res, nil
}
