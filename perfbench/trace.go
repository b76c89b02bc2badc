package main

import (
	"time"

	"duet/internal/cluster"
	"duet/internal/sched"
)

// The traced run times calls into the simulator's public functions from
// outside: it wraps the arrival source, each shard replica and its feed,
// and each scheduler backend, and never edits a layer. Every wrapper
// forwards to the wrapped value unchanged, so the traced run's simulated
// outputs equal the untraced run's (the output hash checks it).

// sourceTrace counts one arrival source's Next calls. gapNS is the time
// between a call's return and the next call's entry: on the producer of a
// stateful front end that is routing, hand-off and blocking.
type sourceTrace struct {
	calls, genNS, gapNS int64
	last                time.Time
}

// timedSource wraps a cluster.Source; clones are wrapped and registered
// with the run's trace, so per-shard filtered generation is timed too.
type timedSource struct {
	src cluster.Source
	st  *sourceTrace
	tr  *trace
}

func (s *timedSource) Next(a *cluster.Arrival) bool {
	t0 := time.Now()
	if s.st.calls > 0 {
		s.st.gapNS += int64(t0.Sub(s.st.last))
	}
	ok := s.src.Next(a)
	s.st.last = time.Now()
	s.st.genNS += int64(s.st.last.Sub(t0))
	s.st.calls++
	return ok
}

func (s *timedSource) Len() int { return s.src.Len() }

func (s *timedSource) Clone() cluster.Source {
	st := &sourceTrace{}
	s.tr.clones = append(s.tr.clones, st)
	return &timedSource{src: s.src.Clone(), st: st, tr: s.tr}
}

// dispatchCounter accumulates one backend layer's Dispatch calls.
type dispatchCounter struct{ calls, ns int64 }

// shardTrace is one shard's host-time counters. Only the shard's own
// goroutine writes it; the run reads it after cluster.RunSource has
// joined every shard.
type shardTrace struct {
	buildNS, busyNS, feedWaitNS int64
	// outer wraps the fault injector (nil plan: unused); model and cycle
	// wrap the execution backend itself, split by its kind.
	outer, model, cycle  dispatchCounter
	drainNS, drainEvents int64
}

// timedFeed times a shard's pulls from its arrival feed: blocking on the
// producer's hand-off, or generating and filtering its own clone.
type timedFeed struct {
	feed cluster.ArrivalFeed
	st   *shardTrace
}

func (f timedFeed) Next(a *cluster.Arrival) bool {
	t0 := time.Now()
	ok := f.feed.Next(a)
	f.st.feedWaitNS += int64(time.Since(t0))
	return ok
}

// timedReplica times a shard's whole PlayStream (its busy time).
type timedReplica struct {
	cluster.Replica
	st *shardTrace
}

func (r timedReplica) PlayStream(feed cluster.ArrivalFeed) (cluster.ShardResult, error) {
	t0 := time.Now()
	res, err := r.Replica.PlayStream(timedFeed{feed: feed, st: r.st})
	r.st.busyNS += int64(time.Since(t0))
	return res, err
}

// timedBackend times Dispatch on a scheduler backend. Scrub is forwarded
// explicitly: the repair process discovers it by type assertion, which an
// embedded interface would hide.
type timedBackend struct {
	sched.Backend
	c *dispatchCounter
}

func (b *timedBackend) Dispatch(j *sched.Job, app *sched.App) {
	t0 := time.Now()
	b.Backend.Dispatch(j, app)
	b.c.ns += int64(time.Since(t0))
	b.c.calls++
}

func (b *timedBackend) Scrub() {
	if sc, ok := b.Backend.(sched.Scrubber); ok {
		sc.Scrub()
	}
}

// timeBackend wraps be in the counter matching its kind.
func (st *shardTrace) timeBackend(be sched.Backend) sched.Backend {
	c := &st.model
	if be.Kind() == sched.BackendCycle {
		c = &st.cycle
	}
	return &timedBackend{Backend: be, c: c}
}

// trace collects one traced iteration. vals holds the per-layer metrics
// the workload measured directly; clusterMetrics derives the rest.
type trace struct {
	root   *sourceTrace
	clones []*sourceTrace
	shards []*shardTrace
	vals   map[string]float64
}

func newTrace() *trace { return &trace{vals: map[string]float64{}} }

// source wraps the run's root arrival source.
func (t *trace) source(src cluster.Source) cluster.Source {
	t.root = &sourceTrace{}
	return &timedSource{src: src, st: t.root, tr: t}
}

// shard registers the next shard's counters (called in shard order by
// cluster.RunSource's sequential replica build).
func (t *trace) shard() *shardTrace {
	st := &shardTrace{}
	t.shards = append(t.shards, st)
	return st
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

func perCall(ns, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return float64(ns) / float64(calls)
}

// clusterMetrics derives the workload, cluster, sched, model, core, sim
// and faults layer metrics of a traced cluster run from its counters and
// its merged scheduler statistics.
func (t *trace) clusterMetrics(st sched.Stats, offered int, faulty bool) {
	var gen, calls int64
	for _, s := range append([]*sourceTrace{t.root}, t.clones...) {
		gen += s.genNS
		calls += s.calls
	}
	// The root source is only pulled by the producer of a stateful front
	// end; index-free front ends pull per-shard clones instead.
	var producerGap int64
	if len(t.clones) == 0 {
		producerGap = t.root.gapNS
	}
	var busy, maxBusy, feed, build, backend, drain, events int64
	var outer, mdl, cyc dispatchCounter
	for _, s := range t.shards {
		busy += s.busyNS
		maxBusy = max(maxBusy, s.busyNS)
		feed += s.feedWaitNS
		build += s.buildNS
		drain += s.drainNS
		events += s.drainEvents
		for _, p := range []struct{ sum, c *dispatchCounter }{{&outer, &s.outer}, {&mdl, &s.model}, {&cyc, &s.cycle}} {
			p.sum.calls += p.c.calls
			p.sum.ns += p.c.ns
		}
	}
	dispatches, seam := mdl.calls+cyc.calls, 0.0
	backend = mdl.ns + cyc.ns
	if faulty {
		// Wedged attempts stop in the injector and never reach the inner
		// backend, so the outer wrapper counts every dispatch.
		dispatches, backend = outer.calls, outer.ns
		seam = perCall(outer.ns-mdl.ns-cyc.ns, outer.calls)
	}
	v := t.vals
	v["workload.gen_ns_per_arrival"] = perCall(gen, calls)
	v["workload.gen_calls"] = float64(calls)
	v["cluster.producer_self_s"] = secs(producerGap)
	v["cluster.feed_wait_s"] = secs(feed)
	v["cluster.shard_busy_s"] = secs(busy)
	if busy > 0 {
		v["cluster.feed_wait_frac"] = float64(feed) / float64(busy)
		v["cluster.shard_skew"] = float64(maxBusy) * float64(len(t.shards)) / float64(busy)
	}
	v["cluster.replica_build_ms"] = float64(build) / 1e6
	v["sched.self_s"] = secs(busy - backend - feed)
	v["model.dispatch_ns"] = perCall(mdl.ns, mdl.calls)
	v["model.backend_calls"] = float64(mdl.calls)
	v["core.cycle_dispatch_ns"] = perCall(cyc.ns, cyc.calls)
	v["sim.drain_s"] = secs(drain)
	v["sim.drain_events"] = float64(events)
	v["faults.seam_ns_per_dispatch"] = seam
	t.schedMetrics(st, dispatches, offered)
}

// schedMetrics fills the scheduler and fault counters read back from a
// run's merged statistics.
func (t *trace) schedMetrics(st sched.Stats, dispatches int64, offered int) {
	v := t.vals
	v["sched.dispatches"] = float64(dispatches)
	v["sched.reconfigs"] = float64(st.Reconfigs)
	if dispatches > 0 {
		v["sched.reuse_ratio"] = 1 - float64(st.Reconfigs)/float64(dispatches)
	}
	v["sched.rejected"] = float64(st.Rejected)
	v["faults.wedges"] = float64(st.Wedges)
	v["faults.retries"] = float64(st.Retries)
	v["faults.repairs"] = float64(st.Repairs)
	if offered > 0 {
		v["faults.goodput"] = float64(st.Completed-st.DeadlineMisses) / float64(offered)
	}
}
