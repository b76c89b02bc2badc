package workload

import (
	"math/rand"

	"duet/internal/cluster"
	"duet/internal/sched"
	"duet/internal/sim"
)

// ArrivalSource is the serve study's arrival process as an O(1)-memory
// online generator: the exact draw sequence of serveArrivals (exponential
// gaps, uniform app choice, uniform input sizes, loose exponential
// deadline slack — in that order, per job, off one math/rand stream
// seeded with cfg.Seed), yielded one arrival at a time instead of
// materialized as an O(jobs) slice. The pinned FNV-1a stream hash and
// every golden output are therefore unchanged: the bytes a study sees
// are identical whether the stream is materialized or pulled from here.
//
// It implements cluster.Source, so cluster.RunSource can fan a
// billion-job study across shards with peak memory independent of the
// job count.
type ArrivalSource struct {
	cfg ServeConfig // defaults applied
	rng *rand.Rand
	i   int
	at  sim.Time
}

// NewArrivalSource returns the arrival generator for cfg (defaults
// applied, like Arrivals).
func NewArrivalSource(cfg ServeConfig) *ArrivalSource {
	cfg = cfg.withDefaults()
	return &ArrivalSource{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Next draws the next arrival into *a; false once Jobs have been yielded.
func (s *ArrivalSource) Next(a *cluster.Arrival) bool {
	if s.i >= s.cfg.Jobs {
		return false
	}
	s.i++
	s.at += sim.Time(s.rng.ExpFloat64() * s.cfg.MeanGapUS * float64(sim.US))
	a.At = s.at
	a.App = sched.AppID(s.rng.Intn(len(ServeApps))) // RegisterServeApps order
	a.InputSize = 64 + s.rng.Intn(2048)
	a.Priority = s.rng.Intn(4)
	a.Deadline = s.at + sim.Time((0.2+0.6*s.rng.ExpFloat64())*float64(sim.MS))
	return true
}

// Len reports the total number of arrivals the stream will yield.
func (s *ArrivalSource) Len() int { return s.cfg.Jobs }

// Clone returns an independent generator restarted at the first arrival.
// cluster.RunSource never calls it: one producer draws the stream once.
func (s *ArrivalSource) Clone() cluster.Source { return NewArrivalSource(s.cfg) }

// Span reports the stream's final arrival instant — the closed-form
// input to the telemetry window-width derivation — by draining a private
// clone in O(1) memory. It costs one extra generation pass, paid only
// when a run turns the flight recorder on (Windows > 0).
func (s *ArrivalSource) Span() sim.Time {
	c := NewArrivalSource(s.cfg)
	var a cluster.Arrival
	for c.Next(&a) {
	}
	return c.at
}
