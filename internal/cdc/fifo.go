// Package cdc models clock-domain-crossing hardware: asynchronous FIFOs
// built from dual-clock RAMs with Gray-coded, multi-stage pointer
// synchronizers, as used throughout Dolly (paper §IV).
//
// The latency contract reproduced here is the one that matters for the
// paper's results: an entry written at a writer-clock edge t becomes
// visible to the reader only once the write pointer has crossed the
// synchronizer, i.e. at the SyncStages-th reader-clock edge strictly after
// t. Symmetrically, space freed by a read becomes visible to the writer
// SyncStages writer-clock edges after the read. Crossing into a slow
// domain therefore costs ~2 slow cycles while crossing into a fast domain
// costs ~2 fast cycles — the asymmetry behind Figs. 5, 6 and 9.
//
// Fifo is generic over the element type, so a small message crosses by
// value: pushing it boxes nothing and allocates nothing once the queue is
// built. Both sides are hardware. The writer pushes in order and, while
// the FIFO looks full, samples the synchronized full flag at every writer
// edge. A pure pump reads through Drain, and a consumer that spends time
// per entry is a callback state machine built on TryPop and
// AwaitNotEmpty. Neither side needs a simulation thread.
package cdc

import (
	"duet/internal/sim"
)

type entry[T any] struct {
	payload   T
	writtenAt sim.Time // writer edge the entry was committed
	visibleAt sim.Time // first reader edge the entry can be popped
	tx        *sim.TX
}

// Fifo is an asynchronous FIFO of T entries crossing from a writer clock
// domain to a reader clock domain. All methods must be called from engine
// context (an event callback or a parked-thread resumption).
type Fifo[T any] struct {
	Name       string
	eng        *sim.Engine
	wclk, rclk *sim.Clock
	depth      int
	syncStages int

	// q holds n entries committed to the FIFO, then the ones Push
	// accepted while the writer saw the FIFO full, waiting in Push order.
	// The writer never sees more than depth entries committed, so q
	// outgrows depth only under backpressure.
	q sim.Queue[entry[T]]
	n int
	// pendingFree holds the times at which consumed slots become visible
	// to the writer again, non-decreasing: pops run in time order, and
	// each slot frees SyncStages writer edges after its pop's reader edge.
	pendingFree sim.Queue[sim.Time]

	notEmpty *sim.Cond // signalled when an entry may have become poppable

	// The writer's pre-built retry record, rescheduled at each writer
	// edge while entries wait.
	retryEv sim.Event

	// The Drain consumer and its pre-built wake record.
	drainFn func(T, *sim.TX)
	drainEv sim.Event
}

// callCommit and callDrain are the trampolines behind every FIFO's retry
// and Drain wakes. They are not generic, so no FIFO builds a closure for
// them.
func callCommit(a any) { a.(interface{ commit() }).commit() }
func callDrain(a any)  { a.(interface{ drain() }).drain() }

// NewFifo creates an async FIFO with the given positive capacity
// (entries) and synchronizer depth; Dolly's are params.FifoDepth and
// params.SyncStages.
func NewFifo[T any](eng *sim.Engine, name string, wclk, rclk *sim.Clock, depth, stages int) *Fifo[T] {
	f := &Fifo[T]{
		Name:       name,
		eng:        eng,
		wclk:       wclk,
		rclk:       rclk,
		depth:      depth,
		syncStages: stages,
		notEmpty:   sim.NewCond(eng),
	}
	f.retryEv = sim.Event{Fn: callCommit, Arg: f}
	return f
}

// occupancySeenByWriter counts slots the writer believes are in use at time
// now: the committed entries plus consumed slots whose release has not yet
// crossed the synchronizer back. Releases that have crossed are dropped.
func (f *Fifo[T]) occupancySeenByWriter(now sim.Time) int {
	for f.pendingFree.Len() > 0 && *f.pendingFree.At(0) <= now {
		f.pendingFree.Pop()
	}
	return f.n + f.pendingFree.Len()
}

// Push hands payload to the writer side. Entries are committed in
// Push-call order: this one at the writer edge at or after now if the
// writer sees a free slot and nothing waits ahead of it, otherwise at the
// first later writer edge at which its credit has returned. A bare retry
// of a refused push could fall behind a later push that found space;
// Push never reorders.
func (f *Fifo[T]) Push(payload T, tx *sim.TX) {
	f.q.Push(entry[T]{payload: payload, tx: tx})
	if f.q.Len() == f.n+1 {
		// Nothing waited ahead of this entry, so no retry is pending.
		f.commit()
	}
}

// commit moves waiting entries into the FIFO, oldest first, while the
// writer sees a free slot. Each is committed at the writer edge at or
// after now, and its visibility time in the reader domain follows the
// synchronizer model. If entries still wait, commit runs again at the
// next writer edge.
func (f *Fifo[T]) commit() {
	now := f.eng.Now()
	for f.q.Len() > f.n {
		if f.occupancySeenByWriter(now) >= f.depth {
			f.eng.AtEvent(f.wclk.EdgeAfter(now), &f.retryEv)
			return
		}
		e := f.q.At(f.n)
		e.writtenAt = f.wclk.NextEdge(now)
		e.visibleAt = f.rclk.EdgesAfter(e.writtenAt, int64(f.syncStages))
		f.n++
		// Wake potential readers when the entry becomes visible.
		f.notEmpty.BroadcastAt(e.visibleAt)
	}
}

// headVisible reports whether the head entry is poppable at now.
func (f *Fifo[T]) headVisible(now sim.Time) bool {
	return f.n > 0 && f.q.At(0).visibleAt <= now
}

// TryPop pops the head entry if it is visible at the current time. The
// pop is committed at the next reader-clock edge at or after now (now is
// already a reader edge in well-formed models). It returns the payload,
// its transaction tag, and whether a pop occurred.
func (f *Fifo[T]) TryPop() (T, *sim.TX, bool) {
	now := f.eng.Now()
	if !f.headVisible(now) {
		var zero T
		return zero, nil, false
	}
	e := f.q.Pop()
	f.n--
	redge := f.rclk.NextEdge(now)
	// The slot is returned to the writer once the read pointer crosses the
	// synchronizer into the writer domain; a waiting push sees it at its
	// next retry.
	f.pendingFree.Push(f.wclk.EdgesAfter(redge, int64(f.syncStages)))
	// Attribute the CDC crossing cost to the transaction: time from write
	// commit to visibility.
	e.tx.Add(sim.CatCDC, e.visibleAt-e.writtenAt)
	return e.payload, e.tx, true
}

// AwaitNotEmpty registers ev to run when an entry may have become
// poppable: the wait of a consumer state machine whose TryPop found
// nothing. Like sim.Cond.Await it is one-shot, and the woken consumer
// re-tests with TryPop.
func (f *Fifo[T]) AwaitNotEmpty(ev *sim.Event) { f.notEmpty.Await(ev) }

// Drain makes fn the FIFO's consumer, from an event at the current
// instant on: fn gets every entry, in order, at the first reader edge it
// is poppable, and spends no simulated time of its own — a pure pump.
// This is the callback form of a thread that loops on a blocking pop: it
// pops at the same instants and in the same event order, without a
// coroutine. A FIFO has one consumer: Drain it once and pop it nowhere
// else.
func (f *Fifo[T]) Drain(fn func(T, *sim.TX)) {
	f.drainFn = fn
	f.drainEv = sim.Event{Fn: callDrain, Arg: f}
	f.eng.AtEvent(f.eng.Now(), &f.drainEv)
}

// drain hands fn every poppable entry, then waits for the next.
func (f *Fifo[T]) drain() {
	for {
		v, tx, ok := f.TryPop()
		if !ok {
			break
		}
		f.drainFn(v, tx)
	}
	f.notEmpty.Await(&f.drainEv)
}
