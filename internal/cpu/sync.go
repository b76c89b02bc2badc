package cpu

// Software synchronization primitives used by the processor-only
// baselines: MCS queue locks (paper §V-D, PDES baseline: "uses MCS locks
// to arbitrate accesses to the shared event queue") and a sense-reversing
// barrier (BFS baseline: "barrier-synchronized steps").
//
// They run on the Proc API, so every atomic and every spin iteration goes
// through the simulated coherence protocol — lock handoff cost and
// contention behaviour emerge from cache-to-cache transfers rather than
// being modelled analytically.
//
// The MCS and barrier waits poll an L1-resident word through spinUntil.
// Its polls are exact: each costs what a load plus Exec(spinBackoff)
// costs, at the same instants and with the same counters. Once a poll
// hits the L1, though, the thread parks and a prebuilt engine callback
// replays the loop at the thread's would-be wakeups, so a long spin costs
// event-queue work instead of two coroutine round trips per poll. The
// callback hands control back (sim.Thread.Resume) only where the thread
// must decide: the exit value was seen, an interrupt is due, or the line
// left the L1 and the next poll misses to the L2. TASAcquire polls with
// home-side atomics and stays thread-driven.

import (
	"duet/internal/params"
	"duet/internal/sim"
)

// MCS queue-lock memory layout:
//
//	lock:  [ tail (8B) ]
//	qnode: [ next (8B) | locked (8B) ]
//
// Callers allocate one qnode per core.
const (
	mcsNextOff   = 0
	mcsLockedOff = 8
	// MCSNodeBytes is the size of one MCS queue node.
	MCSNodeBytes = 16
	// spinBackoff is the cycle cost charged per spin-loop iteration
	// (branch + load issue), limiting event-rate while staying realistic.
	spinBackoff = 4
)

// MCSAcquire acquires the MCS lock whose tail pointer lives at tailAddr,
// enqueueing the caller's qnode at nodeAddr.
func MCSAcquire(p Proc, tailAddr, nodeAddr uint64) {
	p.Store64(nodeAddr+mcsNextOff, 0)
	p.Store64(nodeAddr+mcsLockedOff, 1)
	pred := p.AmoSwap64(tailAddr, nodeAddr)
	if pred == 0 {
		return // uncontended
	}
	p.Store64(pred+mcsNextOff, nodeAddr)
	p.spinUntil(nodeAddr+mcsLockedOff, 0, true)
}

// MCSRelease releases the MCS lock acquired with the same qnode.
func MCSRelease(p Proc, tailAddr, nodeAddr uint64) {
	next := p.Load64(nodeAddr + mcsNextOff)
	if next == 0 {
		// No known successor: try to swing the tail back to empty.
		if p.Cas64(tailAddr, nodeAddr, 0) == nodeAddr {
			return
		}
		// A successor is enqueueing; wait for its link.
		next = p.spinUntil(nodeAddr+mcsNextOff, 0, false)
	}
	p.Store64(next+mcsLockedOff, 0)
}

// TASAcquire acquires a naive test-and-set spinlock: every attempt is a
// home-side atomic, so contention hammers the lock's home line and
// throughput collapses as cores multiply — the synchronization bottleneck
// the paper's BFS baseline exhibits (§V-D).
func TASAcquire(p Proc, addr uint64) {
	for p.AmoSwap64(addr, 1) != 0 {
		p.Exec(spinBackoff)
	}
}

// TASRelease releases a test-and-set spinlock.
func TASRelease(p Proc, addr uint64) {
	p.Store64(addr, 0)
}

// Barrier memory layout: [ count (8B) | sense (8B) ].
//
// BarrierBytes is the size of a barrier control block.
const BarrierBytes = 16

// BarrierWait blocks until n participants have arrived at the barrier at
// addr. localSense must alternate per participant per episode; callers
// keep it in a register (Go local) and pass the new value each time:
//
//	sense := uint64(0)
//	for step := ...; {
//	    sense ^= 1
//	    cpu.BarrierWait(p, barrier, nCores, sense)
//	}
func BarrierWait(p Proc, addr uint64, n int, localSense uint64) {
	arrived := p.AmoAdd64(addr, 1) + 1
	if arrived == uint64(n) {
		p.Store64(addr, 0)            // reset count
		p.Store64(addr+8, localSense) // flip global sense, releasing waiters
		return
	}
	p.spinUntil(addr+8, localSense, true)
}

// spinner is the engine-driven half of one core thread's spinUntil. While
// it runs, the thread is parked and ev (spinStep on the spinner, built
// once per thread) is queued at the end of the current hit or backoff.
type spinner struct {
	p          *proc
	ev         sim.Event
	addr, want uint64
	eq         bool
	v          uint64 // the value the last poll read
	hitEnd     bool   // ev ends a poll's hit latency, not a backoff
	reload     bool   // on resume: the thread issues the next poll itself
}

func spinStep(a any) { a.(*spinner).step() }

// spinUntil polls the 8-byte word at addr, with Exec(spinBackoff) between
// polls, until (value == want) == eq, and returns the value that ended
// the spin. A poll that hits the L1 hands the loop to the spinner.
func (p *proc) spinUntil(addr, want uint64, eq bool) uint64 {
	c, s := p.core, p.spin
	if s == nil {
		s = &spinner{p: p}
		s.ev = sim.Event{Fn: spinStep, Arg: s}
		p.spin = s
	}
	for {
		v, hit := p.issueLoad(addr, 8)
		if hit {
			s.addr, s.want, s.eq, s.v, s.hitEnd = addr, want, eq, v, true
			c.eng.AtEvent(c.clk.EdgesAfter(c.eng.Now(), params.L1HitCycles), &s.ev)
			p.t.Park()
			if s.reload {
				continue
			}
			v = s.v
		}
		if (v == want) == eq {
			return v
		}
		p.Exec(spinBackoff)
	}
}

// step does at one of the spinning thread's wakeups what the thread
// would have done there, up to its next wait, and schedules itself for
// that wait's end. It resumes the thread instead wherever the thread's
// path would leave the hit-and-backoff loop.
func (s *spinner) step() {
	p := s.p
	c := p.core
	now := c.eng.Now()
	if s.hitEnd {
		// The poll returns: test the value, then Exec(spinBackoff).
		if (s.v == s.want) == s.eq || c.irqDue() {
			s.reload = false
			p.t.Resume()
			return
		}
		c.Instrs += spinBackoff
		s.hitEnd = false
		c.eng.AtEvent(c.clk.EdgesAfter(now, spinBackoff), &s.ev)
		return
	}
	// The backoff ends: issue the next poll. A miss is the thread's to
	// take (and count), so test for the line before touching the L1.
	if c.irqDue() || !c.l1.holds(s.addr) {
		s.reload = true
		p.t.Resume()
		return
	}
	c.Loads++
	c.Instrs++
	s.v, _ = c.l1.load(s.addr, 8)
	c.L1Hits++
	s.hitEnd = true
	c.eng.AtEvent(c.clk.EdgesAfter(now, params.L1HitCycles), &s.ev)
}
