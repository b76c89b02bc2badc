package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"duet/internal/sim"
)

// This file is the cluster's arrival pipeline: RunSource plays a study
// straight off an O(1)-memory arrival source, so the run never
// materializes an O(jobs) stream. One producer goroutine draws the
// source once and, per arrival in stream order, applies the front end's
// routing (router: the hash-app table, the round-robin stream index, or
// the stateful front ends' load model) and the fault pass
// (FaultSpec.place: dead-shard reroute and hedge duplicates). It feeds
// each shard through a bounded hand-off channel (at most handoff
// arrivals ahead of the shard). Its batches of 40-byte arrival records
// (an AppID, not an app name) cycle through a fixed per-shard ring of
// buffers, all carved from one backing array per run, so the hand-off
// allocates O(shards x handoff) once and nothing per arrival.
// Generation costs one draw per arrival whatever the shard count.
//
// Each shard's feed is tapped for Progress and played on the shard's
// own goroutine. Per shard, it delivers exactly the arrival sequence of
// the sequential route-then-fault-pass reference kept in
// oracle_test.go, which pins the equivalence arrival for arrival.

// Source is a restartable O(1)-memory arrival generator: a pure function
// of its construction parameters that yields the stream in ascending
// arrival order. RunSource draws it once and never calls Clone. Clone
// stays in the interface only because perfbench/trace.go's traced
// source forwards Clone to the source it wraps; removing it means
// changing the benchmark program too. A Clone must restart the
// identical stream from the first arrival.
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

// handoff is the hand-off bound: how many routed arrivals the producer
// may buffer per shard before it blocks, so peak memory is
// O(shards x handoff). It affects only producer/consumer overlap, never
// results.
const handoff = 128

// handoffBatch is the channel granularity: arrivals travel in value
// batches so the producer pays one channel operation per batch, not per
// job. Order within and across batches is the producer's routing order.
const handoffBatch = 64

// chanFeed is a shard's feed: batches of routed arrivals from the
// producer goroutine over a bounded channel. Receiving a batch ends the
// shard's reads of the one before it, which is what lets the producer
// reuse that buffer (see handoffShard).
type chanFeed struct {
	ch  <-chan []Arrival
	cur []Arrival
	i   int
	// The feeds sit side by side in one slice, one per shard goroutine;
	// padding each to a 64-byte cache line keeps one shard's per-arrival
	// write of i from invalidating its neighbour's line.
	_ [24]byte
}

func (f *chanFeed) Next(a *Arrival) bool {
	for f.i >= len(f.cur) {
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

// handoffShard is the producer's side of one shard's hand-off: the
// channel its batches travel on, its ring of cap(ch)+2 batch buffers,
// the batch being filled and how many arrivals it was sent. The
// producer fills the ring's buffers in order. Once the send of batch k
// completes, the shard has received batch k-cap(ch) (a buffered
// channel's (k-C)th receive is synchronized before its kth send
// completes), so it is done reading batch k-cap(ch)-1: the buffer that
// batch k+1 reuses. No buffer ever travels back to the producer.
type handoffShard struct {
	ch    chan []Arrival
	ring  []Arrival
	next  int // offset in ring of the buffer after batch
	batch []Arrival
	count int
}

// producer routes the whole source on one goroutine — the front end's
// routing, then place, per arrival in stream order — and feeds each
// shard's channel in batches. Every shard's ring is carved from one
// backing array per run, so a run allocates O(shards x handoff) once
// however many arrivals it routes.
type producer struct {
	shards           []handoffShard
	rerouted, hedged int
}

func newProducer(shards, bound int) *producer {
	depth := max(1, bound/handoffBatch)
	ring := (depth + 2) * handoffBatch
	backing := make([]Arrival, shards*ring)
	p := &producer{shards: make([]handoffShard, shards)}
	for i := range p.shards {
		sh := &p.shards[i]
		sh.ch = make(chan []Arrival, depth)
		sh.ring = backing[i*ring : (i+1)*ring : (i+1)*ring]
		sh.batch, sh.next = sh.ring[:0:handoffBatch], handoffBatch
	}
	return p
}

// send appends a to shard's batch and, once the batch is full, queues it
// and starts the next buffer of the ring.
func (p *producer) send(shard int, a *Arrival) {
	sh := &p.shards[shard]
	sh.count++
	sh.batch = append(sh.batch, *a)
	if len(sh.batch) == handoffBatch {
		sh.ch <- sh.batch
		sh.batch = sh.ring[sh.next : sh.next : sh.next+handoffBatch]
		sh.next = (sh.next + handoffBatch) % len(sh.ring)
	}
}

func (p *producer) close() {
	for i := range p.shards {
		sh := &p.shards[i]
		if len(sh.batch) > 0 {
			sh.ch <- sh.batch
		}
		close(sh.ch)
	}
}

// run consumes the source to exhaustion, routing each arrival with r and
// then the fault pass (faultSpec nil when inactive).
func (p *producer) run(src Source, r *router, faultSpec *FaultSpec) {
	var a Arrival
	for i := 0; src.Next(&a); i++ {
		s := r.route(i, &a)
		eff, dup, hedge := faultSpec.place(len(p.shards), s, a.At)
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

// drain empties a hand-off channel, so the producer can never block on a
// shard that stopped consuming early (a shard error before exhaustion).
func drain(ch <-chan []Arrival) {
	for range ch {
	}
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
	r, err := newRouter(cfg, reps, catalog)
	if err != nil {
		return Result{}, err
	}
	var faultSpec *FaultSpec
	if cfg.Faults.active() {
		faultSpec = cfg.Faults
	}

	p := newProducer(cfg.Shards, bound)
	feeds := make([]chanFeed, cfg.Shards)
	results := make([]ShardResult, cfg.Shards)
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := range feeds {
		feeds[i].ch = p.shards[i].ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer drain(feeds[i].ch)
			results[i], errs[i] = reps[i].PlayStream(cfg.Progress.Tap(&feeds[i]))
		}()
	}
	// Sequential routing on this goroutine, bounded hand-off to each
	// shard. The load model reads only each shard's immutable catalog
	// (Predict), never live scheduler state, so it is safe to run
	// concurrently with the shard simulations.
	p.run(src, r, faultSpec)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return Result{}, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
	}
	counts := make([]int, cfg.Shards)
	for i := range p.shards {
		counts[i] = p.shards[i].count
	}
	return finish(cfg, seeds, results, counts, src.Len()+p.hedged, p.rerouted, p.hedged)
}
