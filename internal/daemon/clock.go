// Package daemon is the live HTTP front door over the serving
// simulator: it accepts real concurrent requests, maps their wall-clock
// arrival instants onto the simulated timeline through a monotonic
// clock bridge, pushes them through the real sched.Scheduler (cycle,
// model, or hybrid backend — the same admission queue and placement
// policies every batch study runs), and reports per-job outcomes and
// Prometheus metrics fed from the telemetry flight recorder.
//
// The pool is built by workload.NewServePool, the builder batch serve
// and every cluster shard use, and its simulated timeline advances
// through the same cluster.Pool seam they play through. On every
// backend a submission at instant t therefore precedes the completions
// due at t: a request landing exactly on a job's finish still sees that
// job pending and its worker busy.
//
// The simulated timeline only ever advances under the server's lock, at
// instants derived from the Clock — so with a FakeClock the whole
// daemon, scheduler included, is deterministic, and the e2e tests replay
// exact schedules without sleeping.
package daemon

import (
	"sync"
	"time"
)

// Clock is the daemon's monotonic wall-time source: Elapsed reports the
// time since the clock started, and must never go backwards. The server
// multiplies it by the configured timescale to get the simulated "now"
// that arrivals are stamped with.
type Clock interface {
	Elapsed() time.Duration
}

// wallClock reads the process monotonic clock.
type wallClock struct{ start time.Time }

// NewWallClock returns a Clock anchored at the current instant. Go's
// time.Time carries a monotonic reading, so Elapsed is immune to
// wall-clock steps (NTP, suspend/resume adjustments).
func NewWallClock() Clock { return wallClock{start: time.Now()} }

func (c wallClock) Elapsed() time.Duration { return time.Since(c.start) }

// FakeClock is a manually advanced Clock for deterministic tests: time
// stands still until Advance is called. The zero FakeClock starts at
// elapsed zero and is ready to use.
type FakeClock struct {
	mu sync.Mutex
	d  time.Duration
}

// Elapsed reports the accumulated advanced time.
func (c *FakeClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.d
}

// Advance moves the clock forward by d (monotonic: d must be
// non-negative). It only moves the clock — callers pair it with
// Server.Tick to run the simulated timeline up to the new instant.
func (c *FakeClock) Advance(d time.Duration) {
	if d < 0 {
		panic("daemon: FakeClock cannot go backwards")
	}
	c.mu.Lock()
	c.d += d
	c.mu.Unlock()
}
