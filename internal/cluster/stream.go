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
// (FaultSpec.place: dead-shard reroute and hedge duplicates), and each
// shard's simulation form a single pass over the source:
//
//   - Index-free front ends (HashApp, RoundRobin) need no shared routing
//     state, so every shard clones the source and filters it down to its
//     own assignment in parallel — generation itself is parallelized and
//     no hand-off buffer exists at all. HashApp reads a per-run table of
//     each AppID's shard, built once from the catalog names.
//   - Stateful front ends (LeastOutstanding, HealthWeighted) route on a
//     single producer, in stream order, which feeds each shard through a
//     bounded hand-off channel (at most handoff arrivals ahead of the
//     shard). Its batches of 40-byte arrival records (an AppID, not an
//     app name) come from a fixed per-shard set of buffers that the
//     shard hands back once drained, so the hand-off allocates
//     O(shards x handoff) once and nothing per arrival.
//
// Either way RunSource ends up with one feed per shard, taps it for
// Progress, and plays it on the shard's own goroutine. Both branches
// deliver, per shard, exactly the arrival sequence of the sequential
// route-then-fault-pass reference kept in oracle_test.go, which pins the
// equivalence arrival for arrival.

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
// runs: each tapped feed batches its deliveries locally and flushes into
// it, so a CLI ticker can report jobs done and the simulated-time
// high-water mark without touching the hot path. A nil *Progress
// disables all updates.
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

// Tap returns feed with every delivered arrival counted into p. A nil p
// returns feed itself, so untracked runs pay nothing per arrival.
func (p *Progress) Tap(feed ArrivalFeed) ArrivalFeed {
	if p == nil {
		return feed
	}
	return &tappedFeed{feed: feed, p: p}
}

// progressBatch is the flush granularity: one atomic add per this many
// deliveries keeps the counter invisible in profiles.
const progressBatch = 8192

// tappedFeed is a feed-local accumulator in front of a shared Progress.
type tappedFeed struct {
	feed    ArrivalFeed
	p       *Progress
	pending int64
	at      sim.Time
}

func (t *tappedFeed) Next(a *Arrival) bool {
	if !t.feed.Next(a) {
		t.flush()
		return false
	}
	t.pending++
	t.at = a.At
	if t.pending >= progressBatch {
		t.flush()
	}
	return true
}

func (t *tappedFeed) flush() {
	if t.pending == 0 {
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

// place is the fault pass for one arrival routed to shard s at instant
// at: eff is the shard it runs on after dead-shard reroute, and when
// hedge is set a duplicate goes to dup, the next shard healthy at at.
// dup is never eff, so an arrival lands on a shard at most once. A nil
// spec leaves the routing as it is.
func (f *FaultSpec) place(shards, s int, at sim.Time) (eff, dup int, hedge bool) {
	eff = s
	if f == nil {
		return eff, 0, false
	}
	if f.downAt(s, at) {
		if alt, ok := f.nextHealthy(shards, s, at); ok {
			eff = alt
		}
	}
	if f.Hedge > 0 && f.crashesWithin(eff, at) {
		dup, hedge = f.nextHealthy(shards, eff, at)
	}
	return eff, dup, hedge
}

// filterFeed is an index-free shard's view of the stream: a private
// clone of the source filtered down to the arrivals this shard would
// receive after routing and the fault pass. Routing by (index, app) and
// place depend only on the arrival and the static fault spec, so every
// shard recomputes them independently — that is what lets generation
// run in parallel with zero hand-off state. Each shard counts what it
// receives, so the per-shard counts sum to the global totals.
type filterFeed struct {
	src    Source
	shard  int
	shards int
	byApp  []int      // hash-app shard per AppID; nil for round-robin
	spec   *FaultSpec // nil when the fault pass is inactive
	idx    int        // global stream index (round-robin key)

	assigned, rerouted, hedged int
}

func (f *filterFeed) Next(a *Arrival) bool {
	for f.src.Next(a) {
		i := f.idx
		f.idx++
		s := 0 // an AppID outside the catalog goes to shard 0, which fails it
		switch {
		case f.byApp == nil:
			s = i % f.shards
		case uint(a.App) < uint(len(f.byApp)):
			s = f.byApp[a.App]
		}
		eff, dup, hedge := f.spec.place(f.shards, s, a.At)
		switch {
		case eff == f.shard:
			f.assigned++
			if eff != s {
				f.rerouted++
			}
			return true
		case hedge && dup == f.shard:
			// The Arrival travels by value, so the duplicate is an
			// independent job record.
			f.assigned++
			f.hedged++
			return true
		}
	}
	return false
}

// handoff is the stateful front ends' hand-off bound: how many routed
// arrivals the producer may buffer per shard before it blocks, so peak
// memory is O(shards x handoff). It affects only producer/consumer
// overlap, never results.
const handoff = 4096

// handoffBatch is the channel granularity: arrivals travel in value
// batches so the producer pays one channel operation per batch, not per
// job. Order within and across batches is the producer's routing order.
const handoffBatch = 256

// chanFeed is a stateful front end's per-shard feed: batches of routed
// arrivals from the producer goroutine over a bounded channel. Each
// drained batch goes back to the producer on free before the next one
// is received, so a shard holds at most one buffer.
type chanFeed struct {
	ch   <-chan []Arrival
	free chan<- []Arrival
	cur  []Arrival
	i    int
}

func (f *chanFeed) Next(a *Arrival) bool {
	for f.i >= len(f.cur) {
		if f.cur != nil {
			f.free <- f.cur
			f.cur = nil
		}
		batch, ok := <-f.ch
		if !ok {
			return false
		}
		f.cur, f.i = batch, 0
	}
	*a = f.cur[f.i]
	f.i++
	return true
}

// producer routes the whole source on one goroutine — routing, then
// place, per arrival in stream order — and feeds each shard's channel
// in batches. Each shard's batches come from a fixed set of cap(ch)+2
// buffers: those queued on the channel, the one being filled and the
// one the shard is playing. Once the set is full, the producer refills
// only from the buffers the shard hands back on free, so a run
// allocates O(shards x handoff) however many arrivals it routes.
type producer struct {
	chans            []chan []Arrival
	free             []chan []Arrival
	batches          [][]Arrival
	made             []int // buffers allocated per shard
	counts           []int
	rerouted, hedged int
}

func newProducer(shards, bound int) *producer {
	p := &producer{
		chans:   make([]chan []Arrival, shards),
		free:    make([]chan []Arrival, shards),
		batches: make([][]Arrival, shards),
		made:    make([]int, shards),
		counts:  make([]int, shards),
	}
	for i := range p.chans {
		p.chans[i] = make(chan []Arrival, max(1, bound/handoffBatch))
		// Room for the whole set, so handing a buffer back never blocks.
		p.free[i] = make(chan []Arrival, p.bufs(i))
		p.batches[i] = p.next(i)
	}
	return p
}

// bufs is the size of shard's buffer set.
func (p *producer) bufs(shard int) int { return cap(p.chans[shard]) + 2 }

// next returns an empty batch buffer for shard: a new one while the set
// is not yet full, otherwise one the shard has drained. With the whole
// set allocated and none held here, at most cap(ch) are queued and one
// is being played, so a drained buffer is always on its way back.
func (p *producer) next(shard int) []Arrival {
	if p.made[shard] < p.bufs(shard) {
		p.made[shard]++
		return make([]Arrival, 0, handoffBatch)
	}
	return (<-p.free[shard])[:0]
}

func (p *producer) send(shard int, a *Arrival) {
	p.counts[shard]++
	p.batches[shard] = append(p.batches[shard], *a)
	if len(p.batches[shard]) >= handoffBatch {
		p.chans[shard] <- p.batches[shard]
		p.batches[shard] = p.next(shard)
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

// drainRest empties shard's channel, handing every batch back, so the
// producer can never block on a shard that stopped consuming early (a
// shard error before exhaustion): neither on a full channel nor waiting
// for a free buffer.
func (p *producer) drainRest(shard int) {
	for b := range p.chans[shard] {
		p.free[shard] <- b
	}
}

// run consumes the source to exhaustion. reps supplies each shard's
// catalog model for the load-model ranking; routeSpec feeds the
// health-weighted ranking (nil for plain least-outstanding) and
// faultSpec the fault pass (nil when inactive).
func (p *producer) run(src Source, reps []Replica, routeSpec, faultSpec *FaultSpec) {
	lo := newLoadModel(reps)
	var a Arrival
	for src.Next(&a) {
		s := lo.route(&a, routeSpec)
		eff, dup, hedge := faultSpec.place(len(p.chans), s, a.At)
		if eff != s {
			p.rerouted++
		}
		p.send(eff, &a)
		if hedge {
			p.hedged++
			p.send(dup, &a)
		}
	}
	p.close()
}

// RunSource plays an arrival source through a sharded serve farm without
// ever materializing the stream: shards consume their assignment as it
// is produced, so peak memory is independent of the job count. Per
// (seed, shards, front end, per-shard configs) the merged result is
// byte-identical at every goroutine interleaving.
func RunSource(cfg Config, src Source) (Result, error) {
	return runSource(cfg, src, handoff)
}

// runSource is RunSource with the hand-off bound as a parameter, so the
// oracle test can shrink it until the producer blocks on every batch.
func runSource(cfg Config, src Source, bound int) (Result, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if src == nil {
		return Result{}, fmt.Errorf("cluster: RunSource needs a non-nil source")
	}
	reps, seeds, catalog, err := buildReplicas(cfg)
	if err != nil {
		return Result{}, err
	}
	var faultSpec *FaultSpec
	if cfg.Faults.active() {
		faultSpec = cfg.Faults
	}

	feeds := make([]ArrivalFeed, cfg.Shards)
	var filters []*filterFeed // index-free front ends: one filtered clone per shard
	var p *producer           // stateful front ends: one router feeds every shard
	switch cfg.FrontEnd {
	case HashApp, RoundRobin:
		var byApp []int
		if cfg.FrontEnd == HashApp {
			byApp = hashShards(catalog, cfg.Shards)
		}
		filters = make([]*filterFeed, cfg.Shards)
		for i := range filters {
			filters[i] = &filterFeed{
				src: src.Clone(), shard: i, shards: cfg.Shards,
				byApp: byApp, spec: faultSpec,
			}
			feeds[i] = filters[i]
		}
	case LeastOutstanding, HealthWeighted:
		p = newProducer(cfg.Shards, bound)
		for i := range feeds {
			feeds[i] = &chanFeed{ch: p.chans[i], free: p.free[i]}
		}
	default:
		return Result{}, fmt.Errorf("cluster: unknown front end %d", cfg.FrontEnd)
	}

	results := make([]ShardResult, cfg.Shards)
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i, feed := range feeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p != nil {
				defer p.drainRest(i)
			}
			results[i], errs[i] = reps[i].PlayStream(cfg.Progress.Tap(feed))
		}()
	}
	if p != nil {
		// Sequential routing on this goroutine, bounded hand-off to each
		// shard. The load model reads only each shard's immutable catalog
		// (Predict), never live scheduler state, so it is safe to run
		// concurrently with the shard simulations.
		var routeSpec *FaultSpec
		if cfg.FrontEnd == HealthWeighted {
			routeSpec = cfg.Faults // ranking input even when inactive
		}
		p.run(src, reps, routeSpec, faultSpec)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return Result{}, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
	}
	counts := make([]int, cfg.Shards)
	var rerouted, hedged int
	if p != nil {
		counts, rerouted, hedged = p.counts, p.rerouted, p.hedged
	}
	for i, f := range filters {
		counts[i] = f.assigned
		rerouted += f.rerouted
		hedged += f.hedged
	}
	return finish(cfg, seeds, results, counts, src.Len()+hedged, rerouted, hedged)
}
