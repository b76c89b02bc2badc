package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"duet/internal/sim"
)

// This file is the cluster's arrival pipeline: RunSource plays a study
// straight off an O(1)-memory arrival source, so the run never
// materializes an O(jobs) stream. The front end, the fault pass
// (dead-shard reroute and hedge duplicates), and each shard's simulation
// form a single pass over the source:
//
//   - Index-free front ends (HashApp, RoundRobin) need no shared routing
//     state, so every shard clones the source and filters it down to its
//     own assignment in parallel — generation itself is parallelized and
//     no hand-off buffer exists at all.
//   - Stateful front ends (LeastOutstanding, HealthWeighted) route on a
//     single producer goroutine, in stream order, which feeds each shard
//     through a bounded hand-off channel (Config.Handoff caps how far the
//     producer runs ahead), so peak memory is O(shards x Handoff)
//     instead of O(jobs).
//
// Both branches deliver, per shard, exactly the arrival sequence of the
// sequential route-then-fault-pass reference kept in oracle_test.go,
// which pins the equivalence arrival for arrival.

// Source is a restartable O(1)-memory arrival generator: a pure function
// of its construction parameters that yields the stream in ascending
// arrival order. Clone must restart the identical stream from the first
// arrival: the index-free front ends give every shard its own clone.
type Source interface {
	// Next writes the next arrival into *a and reports whether one was
	// produced; false means the stream is exhausted.
	Next(a *Arrival) bool
	// Len reports the total number of arrivals the stream will yield.
	Len() int
	// Clone returns an independent source positioned at the first arrival.
	Clone() Source
}

// SliceSource adapts a materialized stream to the Source interface —
// tests and benchmarks that draw the stream up front feed RunSource
// through it.
type SliceSource struct {
	stream []Arrival
	i      int
}

// NewSliceSource returns a Source yielding stream's entries in order.
func NewSliceSource(stream []Arrival) *SliceSource {
	return &SliceSource{stream: stream}
}

// Next yields the next entry by value.
func (s *SliceSource) Next(a *Arrival) bool {
	if s.i >= len(s.stream) {
		return false
	}
	*a = s.stream[s.i]
	s.i++
	return true
}

// Len reports the stream length.
func (s *SliceSource) Len() int { return len(s.stream) }

// Clone restarts the stream from the first entry.
func (s *SliceSource) Clone() Source { return &SliceSource{stream: s.stream} }

// ArrivalFeed is the pull side of the pipeline: a shard's own assigned
// arrivals in ascending order. Replica.PlayStream consumes one to
// exhaustion. Arrivals are delivered by value — each call may reuse *a.
type ArrivalFeed interface {
	Next(a *Arrival) bool
}

// Progress is a coarse, concurrency-safe progress counter for capacity
// runs: feeds batch job deliveries locally and flush into it, so a CLI
// ticker can report jobs done and the simulated-time high-water mark
// without touching the hot path. A nil *Progress disables all updates.
type Progress struct {
	jobs  atomic.Int64
	simAt atomic.Int64
}

// Jobs reports the number of arrivals delivered to shards so far.
func (p *Progress) Jobs() int64 {
	if p == nil {
		return 0
	}
	return p.jobs.Load()
}

// SimAt reports the latest arrival instant any shard has consumed.
func (p *Progress) SimAt() sim.Time {
	if p == nil {
		return 0
	}
	return sim.Time(p.simAt.Load())
}

// progressBatch is the flush granularity: one atomic add per this many
// deliveries keeps the counter invisible in profiles.
const progressBatch = 8192

// progressTap is a feed-local accumulator in front of a shared Progress.
type progressTap struct {
	p       *Progress
	pending int64
	at      sim.Time
}

func (t *progressTap) bump(at sim.Time) {
	if t.p == nil {
		return
	}
	t.pending++
	t.at = at
	if t.pending >= progressBatch {
		t.flush()
	}
}

func (t *progressTap) flush() {
	if t.p == nil || t.pending == 0 {
		return
	}
	t.p.jobs.Add(t.pending)
	t.pending = 0
	// CAS-max: the high-water mark over all shards' last-consumed instants.
	for {
		cur := t.p.simAt.Load()
		if int64(t.at) <= cur || t.p.simAt.CompareAndSwap(cur, int64(t.at)) {
			return
		}
	}
}

// SourceFeed adapts a whole Source into one replica's feed — the
// single-shard (workload.Serve) fast path, with optional progress taps.
type SourceFeed struct {
	src Source
	tap progressTap
}

// NewSourceFeed returns a feed yielding every arrival of src. p may be nil.
func NewSourceFeed(src Source, p *Progress) *SourceFeed {
	return &SourceFeed{src: src, tap: progressTap{p: p}}
}

// Next yields the next arrival of the source.
func (f *SourceFeed) Next(a *Arrival) bool {
	if f.src.Next(a) {
		f.tap.bump(a.At)
		return true
	}
	f.tap.flush()
	return false
}

// filterFeed is an index-free shard's view of the stream: a private
// clone of the source filtered down to the arrivals this shard would
// receive after routing and the fault pass. Routing by (index, app) and
// the per-arrival reroute/hedge decisions depend only on the arrival and
// the static fault spec, so every shard recomputes them independently —
// that is what lets generation run in parallel with zero hand-off state.
//
// Reroute rewrites each arrival's single destination (counted at the
// destination shard, so the per-shard counts sum to the global total),
// and a hedge duplicate targets nextHealthy(effective), which is never
// the effective shard itself, so each arrival contributes at most one
// entry per shard, in stream order — the producer's per-shard order.
type filterFeed struct {
	src    Source
	shard  int
	shards int
	fe     FrontEnd
	spec   *FaultSpec // nil when the fault pass is inactive
	idx    int        // global stream index (round-robin key)
	tap    progressTap

	assigned, rerouted, hedged int
}

func (f *filterFeed) Next(a *Arrival) bool {
	for f.src.Next(a) {
		i := f.idx
		f.idx++
		var s int
		if f.fe == RoundRobin {
			s = i % f.shards
		} else {
			s = int(hashApp(a.Job.App) % uint32(f.shards))
		}
		eff := s
		if f.spec != nil && f.spec.downAt(s, a.At) {
			if alt, ok := f.spec.nextHealthy(f.shards, s, a.At); ok {
				eff = alt
			}
		}
		if eff == f.shard {
			f.assigned++
			if eff != s {
				f.rerouted++
			}
			f.tap.bump(a.At)
			return true
		}
		if f.spec != nil && f.spec.Hedge > 0 && f.spec.crashesWithin(eff, a.At) {
			if alt, ok := f.spec.nextHealthy(f.shards, eff, a.At); ok && alt == f.shard {
				// The Arrival travels by value, so the duplicate is an
				// independent job record.
				f.assigned++
				f.hedged++
				f.tap.bump(a.At)
				return true
			}
		}
	}
	f.tap.flush()
	return false
}

// DefaultHandoff is the stateful front ends' hand-off bound: how many
// routed arrivals the producer may buffer per shard before it blocks.
const DefaultHandoff = 4096

// handoffBatch is the channel granularity: arrivals travel in value
// batches so the producer pays one channel operation per batch, not per
// job. Order within and across batches is the producer's routing order.
const handoffBatch = 256

// chanFeed is a stateful front end's per-shard feed: batches of routed
// arrivals from the producer goroutine over a bounded channel.
type chanFeed struct {
	ch    chan []Arrival
	cur   []Arrival
	i     int
	tap   progressTap
	drain sync.Once
}

func (f *chanFeed) Next(a *Arrival) bool {
	for f.i >= len(f.cur) {
		batch, ok := <-f.ch
		if !ok {
			f.tap.flush()
			return false
		}
		f.cur, f.i = batch, 0
	}
	*a = f.cur[f.i]
	f.i++
	f.tap.bump(a.At)
	return true
}

// drainRest empties the channel so the producer can never block on a
// shard that stopped consuming early (a shard error before exhaustion).
func (f *chanFeed) drainRest() {
	f.drain.Do(func() {
		for range f.ch {
		}
	})
}

// producer routes the whole source on one goroutine — routing, then
// reroute and hedge, per arrival in stream order — and feeds each
// shard's channel in batches.
type producer struct {
	chans            []chan []Arrival
	batches          [][]Arrival
	counts           []int
	rerouted, hedged int
}

func (p *producer) send(shard int, a *Arrival) {
	p.counts[shard]++
	p.batches[shard] = append(p.batches[shard], *a)
	if len(p.batches[shard]) >= handoffBatch {
		p.chans[shard] <- p.batches[shard]
		p.batches[shard] = make([]Arrival, 0, handoffBatch)
	}
}

func (p *producer) close() {
	for s, b := range p.batches {
		if len(b) > 0 {
			p.chans[s] <- b
		}
		close(p.chans[s])
	}
}

// run consumes the source to exhaustion. reps supplies each shard's
// catalog model for the load-model ranking; routeSpec feeds the
// health-weighted ranking (nil for plain least-outstanding) and
// faultSpec the reroute/hedge pass (nil when inactive).
func (p *producer) run(src Source, reps []Replica, routeSpec, faultSpec *FaultSpec) {
	lo := newLoadModel(reps)
	shards := len(p.chans)
	var a Arrival
	for src.Next(&a) {
		s := lo.route(&a, routeSpec)
		eff := s
		if faultSpec != nil && faultSpec.downAt(s, a.At) {
			if alt, ok := faultSpec.nextHealthy(shards, s, a.At); ok {
				eff = alt
				p.rerouted++
			}
		}
		p.send(eff, &a)
		if faultSpec != nil && faultSpec.Hedge > 0 && faultSpec.crashesWithin(eff, a.At) {
			if alt, ok := faultSpec.nextHealthy(shards, eff, a.At); ok {
				p.hedged++
				p.send(alt, &a)
			}
		}
	}
	p.close()
}

// RunSource plays an arrival source through a sharded serve farm without
// ever materializing the stream: shards consume their assignment as it
// is produced, so peak memory is independent of the job count. Per
// (seed, shards, front end, per-shard configs) the merged result is
// byte-identical at every hand-off bound and goroutine interleaving.
func RunSource(cfg Config, src Source) (Result, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if src == nil {
		return Result{}, fmt.Errorf("cluster: RunSource needs a non-nil source")
	}
	reps, seeds, err := buildReplicas(cfg)
	if err != nil {
		return Result{}, err
	}
	var faultSpec *FaultSpec
	if cfg.Faults.active() {
		faultSpec = cfg.Faults
	}
	results := make([]ShardResult, cfg.Shards)
	errs := make([]error, cfg.Shards)
	counts := make([]int, cfg.Shards)
	var rerouted, hedged int
	var wg sync.WaitGroup

	switch cfg.FrontEnd {
	case HashApp, RoundRobin:
		// Parallel generation: each shard filters its own clone.
		feeds := make([]*filterFeed, cfg.Shards)
		for i := range feeds {
			feeds[i] = &filterFeed{
				src: src.Clone(), shard: i, shards: cfg.Shards,
				fe: cfg.FrontEnd, spec: faultSpec, tap: progressTap{p: cfg.Progress},
			}
		}
		for i := range reps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = reps[i].PlayStream(feeds[i])
			}(i)
		}
		wg.Wait()
		for i, f := range feeds {
			counts[i] = f.assigned
			rerouted += f.rerouted
			hedged += f.hedged
		}
	case LeastOutstanding, HealthWeighted:
		// Sequential routing on a producer goroutine, bounded hand-off to
		// each shard. The load model reads only each shard's immutable
		// catalog (Predict), never live scheduler state, so it is safe to
		// run concurrently with the shard simulations.
		handoff := cfg.Handoff
		if handoff <= 0 {
			handoff = DefaultHandoff
		}
		capBatches := handoff / handoffBatch
		if capBatches < 1 {
			capBatches = 1
		}
		p := &producer{
			chans:   make([]chan []Arrival, cfg.Shards),
			batches: make([][]Arrival, cfg.Shards),
			counts:  counts,
		}
		feeds := make([]*chanFeed, cfg.Shards)
		for i := range feeds {
			p.chans[i] = make(chan []Arrival, capBatches)
			p.batches[i] = make([]Arrival, 0, handoffBatch)
			feeds[i] = &chanFeed{ch: p.chans[i], tap: progressTap{p: cfg.Progress}}
		}
		for i := range reps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer feeds[i].drainRest()
				results[i], errs[i] = reps[i].PlayStream(feeds[i])
			}(i)
		}
		var routeSpec *FaultSpec
		if cfg.FrontEnd == HealthWeighted {
			routeSpec = cfg.Faults // ranking input even when inactive
		}
		p.run(src, reps, routeSpec, faultSpec)
		wg.Wait()
		rerouted, hedged = p.rerouted, p.hedged
	default:
		return Result{}, fmt.Errorf("cluster: unknown front end %d", cfg.FrontEnd)
	}

	for i, err := range errs {
		if err != nil {
			return Result{}, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
	}
	return finish(cfg, seeds, results, counts, src.Len()+hedged, rerouted, hedged)
}
