package cluster

import (
	"fmt"
	"hash/fnv"

	"duet/internal/sim"
)

// FrontEnd selects how the cluster front end routes arriving jobs to
// shards. Every policy decides in stream order — routing decisions
// depend only on the stream, the shard count, and each shard's catalog
// model (Predict/Workers), never on live shard state, which is what
// keeps multi-shard runs
// byte-identical regardless of goroutine interleaving. Routing by
// per-shard models is also what makes heterogeneous clusters work: a
// shard with more fabrics (or a different execution backend) advertises
// its capacity through its own Workers and Predict.
type FrontEnd int

// Front-end policies.
const (
	// HashApp routes by a stable hash of the job's application name:
	// all of an app's jobs land on one shard, so each shard's fabrics
	// cycle through a small bitstream subset (bitstream affinity).
	HashApp FrontEnd = iota
	// RoundRobin deals jobs across shards in arrival order.
	RoundRobin
	// LeastOutstanding routes each job to the shard with the fewest
	// jobs still outstanding under the front end's analytic model of
	// shard occupancy. On equal outstanding counts the lowest shard
	// index wins — an explicit part of the determinism contract, pinned
	// by a regression test.
	LeastOutstanding
	// HealthWeighted is LeastOutstanding with the fault spec's health
	// signal layered on top: shards are ranked first by health class —
	// healthy, then recovering (an outage window closed less than
	// FaultSpec.RecoverHold ago: the hysteresis that keeps a freshly
	// rejoined shard from instantly absorbing the whole stream), then
	// down — and only then by outstanding count, lowest index winning
	// ties. With a nil or inactive fault spec every shard is healthy and
	// the policy IS LeastOutstanding, decision for decision. The health
	// class comes from the same outage schedule the daemon's /healthz
	// degrades on, and the ranking never reads live shard state, so
	// routing stays byte-identical at every width and on both backends.
	HealthWeighted
	NumFrontEnds
)

func (f FrontEnd) String() string {
	names := [...]string{"hash-app", "round-robin", "least-outstanding", "health-weighted"}
	if f < 0 || int(f) >= len(names) {
		return "unknown"
	}
	return names[f]
}

// MarshalText encodes the front end as its String name, so
// machine-readable study output carries it as a quoted name.
func (f FrontEnd) MarshalText() ([]byte, error) { return []byte(f.String()), nil }

// UnmarshalText parses a front-end name as printed by String.
func (f *FrontEnd) UnmarshalText(name []byte) error {
	for g := FrontEnd(0); g < NumFrontEnds; g++ {
		if g.String() == string(name) {
			*f = g
			return nil
		}
	}
	return fmt.Errorf("cluster: unknown front end %q", name)
}

func hashApp(app string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(app))
	return h.Sum32()
}

// hashShards is the hash-app routing table: element id is the shard
// every job of AppID id lands on. Built once per run from the catalog
// names, so routing an arrival never hashes a name.
func hashShards(catalog []string, shards int) []int {
	t := make([]int, len(catalog))
	for id, name := range catalog {
		t[id] = int(hashApp(name) % uint32(shards))
	}
	return t
}

// router is a front end's routing decision for each arrival, made in
// stream order: hash-app reads the per-run hashShards table, round-robin
// deals by the stream index, and the stateful front ends rank shards on
// the load model.
type router struct {
	frontEnd FrontEnd
	shards   int
	byApp    []int      // hash-app
	lo       *loadModel // least-outstanding and health-weighted
	spec     *FaultSpec // health-weighted ranking input, even when inactive
}

func newRouter(cfg Config, reps []Replica, catalog []string) (*router, error) {
	r := &router{frontEnd: cfg.FrontEnd, shards: cfg.Shards}
	switch cfg.FrontEnd {
	case HashApp:
		r.byApp = hashShards(catalog, cfg.Shards)
	case RoundRobin: // routes by the stream index alone
	case HealthWeighted:
		r.spec = cfg.Faults
		fallthrough
	case LeastOutstanding:
		r.lo = newLoadModel(reps)
	default:
		return nil, fmt.Errorf("cluster: unknown front end %d", cfg.FrontEnd)
	}
	return r, nil
}

// route returns the shard for a, the i-th arrival of the stream.
func (r *router) route(i int, a *Arrival) int {
	switch r.frontEnd {
	case HashApp:
		if uint(a.App) < uint(len(r.byApp)) {
			return r.byApp[a.App]
		}
		return 0 // an AppID outside the catalog goes to shard 0, which fails it
	case RoundRobin:
		return i % r.shards
	}
	return r.lo.route(a, r.spec)
}

// loadModel is the least-outstanding front end's analytic view of shard
// occupancy: each shard is modeled as its own Workers() virtual fabrics
// serving jobs for their catalog-predicted occupancy, FIFO per fabric.
// It tracks, per shard, when each virtual fabric frees up and the
// predicted finish times of in-flight jobs.
//
// Finishes live in one FIFO queue per virtual fabric: a fabric's charged
// finish times are strictly increasing (each new charge starts no
// earlier than the fabric's previous free estimate), so expiring the
// jobs a new arrival has outrun is a pop-from-the-front loop — amortized
// O(1) per charged job — instead of a rescan of every in-flight entry.
// That keeps billion-job streaming studies out of the O(jobs^2) regime
// the old flat finishes slice hit under saturating load.
type loadModel struct {
	reps   []Replica
	shards []loadShard
}

// loadCap bounds the outstanding jobs the model tracks per shard. Under
// sustained overload the modeled backlog would otherwise grow with the
// job count (every arrival is charged, none expire before the stream
// ends) — unbounded memory on exactly the capacity runs the streaming
// pipeline exists for. Past the cap a shard's ranking signal simply
// saturates: further charges advance the fabric-free estimates but are
// not tracked for expiry. No study at sane scale reaches 64Ki modeled
// outstanding per shard without being saturated in every sense that
// matters to a least-loaded ranking.
const loadCap = 1 << 16

type loadShard struct {
	free []sim.Time   // per-virtual-fabric earliest-free estimate
	fins [][]sim.Time // per-fabric FIFO (strictly increasing) of predicted finishes
	head []int        // per-fabric consumed prefix of fins
	n    int          // live finishes across fabrics: the outstanding count
}

// expire drops every predicted finish at or before t — the same set the
// old filter pass kept out of the outstanding count.
func (sh *loadShard) expire(t sim.Time) {
	for f := range sh.fins {
		q, h := sh.fins[f], sh.head[f]
		for h < len(q) && q[h] <= t {
			h++
			sh.n--
		}
		// Reclaim the consumed prefix once it dominates the queue, so the
		// backing array tracks the live backlog, not the all-time total.
		if h > 64 && 2*h >= len(q) {
			copy(q, q[h:])
			sh.fins[f] = q[:len(q)-h]
			h = 0
		}
		sh.head[f] = h
	}
}

func newLoadModel(reps []Replica) *loadModel {
	lm := &loadModel{reps: reps, shards: make([]loadShard, len(reps))}
	for i := range lm.shards {
		w := reps[i].Workers()
		lm.shards[i].free = make([]sim.Time, w)
		lm.shards[i].fins = make([][]sim.Time, w)
		lm.shards[i].head = make([]int, w)
	}
	return lm
}

// route picks the best shard at a.At and charges the job's predicted
// occupancy (under that shard's own catalog model) to the shard's
// earliest-free virtual fabric. Shards are ranked lexicographically by
// (health class, outstanding count, index): with a nil fault spec every
// class is 0 and the pick is plain least-outstanding.
func (lm *loadModel) route(a *Arrival, faults *FaultSpec) int {
	best, bestOut, bestClass := 0, -1, 0
	for i := range lm.shards {
		sh := &lm.shards[i]
		sh.expire(a.At)
		// Strict less-than on both keys: on full ties the earlier
		// (lowest-index) shard keeps the job — the explicit tie-break of
		// the determinism contract.
		class := faults.healthClass(i, a.At)
		if bestOut < 0 || class < bestClass ||
			(class == bestClass && sh.n < bestOut) {
			best, bestOut, bestClass = i, sh.n, class
		}
	}
	sh := &lm.shards[best]
	fab := 0
	for i, f := range sh.free {
		if f < sh.free[fab] {
			fab = i
		}
	}
	start := a.At
	if sh.free[fab] > start {
		start = sh.free[fab]
	}
	svc, _ := lm.reps[best].Predict(a.App, a.InputSize)
	fin := start + svc
	sh.free[fab] = fin
	if sh.n < loadCap {
		sh.fins[fab] = append(sh.fins[fab], fin)
		sh.n++
	}
	return best
}
