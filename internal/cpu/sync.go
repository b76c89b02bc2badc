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
// The MCS and barrier waits poll an 8-byte word through spinUntil: a
// load, then Exec(spinBackoff), until the value ends the spin. A poll
// that misses the L1 runs on the thread. Once a poll hits the L1 and reads
// a value that does not end the spin, that value cannot change while the
// line stays in the L1: the L1 is write-through, and every remote store
// reaches it as a back-invalidation from the L2. So the thread parks with
// nothing queued until one of the two causes that can end the wait: the
// line's back-invalidation (Core's OnLineLost hook) or a deliverable
// interrupt (RaiseIRQ). At the cause, spinner.wake charges the polls the
// loop would have run to Instrs, Loads and L1Hits by clock arithmetic,
// touches the line's LRU stamp once, and queues the thread's wakeup where
// the polled loop would next act: a hit end or a poll. A poll due at the
// cause's instant counts as already run and a hit end due then does not,
// which is the polled loop's own order (a line loss is queued
// ProxyFwdCycles ahead, fewer cycles than spinBackoff, so the poll was
// queued first). The one departure from the polled loop is same-instant
// order: the thread's next event is queued at the cause instead of one
// poll period earlier. TASAcquire polls with home-side atomics and stays
// thread-driven.

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

// A spinWait is a spin parked on its core. The core calls wake once, at
// the first cause that can end the spin, before the L1 drops the line.
type spinWait interface{ wake() }

// spinner is a core thread's parked spin, built at the thread's first
// spin. from is the parking poll's hit end: the polled loop's hit ends
// fall at from + k·period and its polls one backoff after each, where a
// period is L1HitCycles + spinBackoff cycles.
type spinner struct {
	c      *Core
	ev     sim.Event // resumes the thread
	addr   uint64
	from   sim.Time
	atPoll bool // woken at a poll, not at a hit end
}

func spinResume(a any) { a.(*sim.Thread).Resume() }

// spinUntil polls the 8-byte word at addr, with Exec(spinBackoff) between
// polls, until (value == want) == eq, and returns the value that ended
// the spin. A poll that hits the L1 without ending the spin parks the
// thread on its causes (parkSpin).
func (p *proc) spinUntil(addr, want uint64, eq bool) uint64 {
	for {
		v, hit := p.issueLoad(addr, 8)
		if (v == want) == eq {
			if hit {
				p.t.SleepCycles(p.core.clk, params.L1HitCycles)
			}
			return v
		}
		if hit && p.parkSpin(addr) {
			continue // woken at a poll: issue it
		}
		p.Exec(spinBackoff)
	}
}

// parkSpin parks the thread right after a poll of addr hit the L1, until
// the core wakes its spinner. It reports whether the thread woke at a
// poll; otherwise it woke at a hit end, with the polled value unchanged.
func (p *proc) parkSpin(addr uint64) bool {
	c, s := p.core, p.spin
	if s == nil {
		s = &spinner{c: c, ev: sim.Event{Fn: spinResume, Arg: p.t}}
		p.spin = s
	}
	s.addr, s.from = addr, c.clk.EdgesAfter(c.eng.Now(), params.L1HitCycles)
	c.parkSpin(s, addr)
	p.t.Park()
	return s.atPoll
}

// wake fast-forwards the polled loop to now: it charges the hit ends
// before now and the polls up to and including now, and queues the
// thread's wakeup at the loop's next event.
func (s *spinner) wake() {
	c := s.c
	now := c.eng.Now()
	period := c.clk.Cycles(params.L1HitCycles + spinBackoff)
	backoff := c.clk.Cycles(spinBackoff)
	var hitEnds, polls sim.Time
	if now > s.from {
		hitEnds = (now-s.from-1)/period + 1
	}
	if now >= s.from+backoff {
		polls = (now-s.from-backoff)/period + 1
		c.l1.load(s.addr, 8) // the last poll's LRU touch
	}
	c.Instrs += uint64(spinBackoff*hitEnds + polls)
	c.Loads += uint64(polls)
	c.L1Hits += uint64(polls)
	s.atPoll = hitEnds > polls
	next := s.from + polls*period
	if s.atPoll {
		next += backoff
	}
	c.eng.AtEvent(next, &s.ev)
}
