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
// Fifo and Pusher are generic over the element type, so a small message
// crosses by value: pushing it boxes nothing and allocates nothing once the
// ring is built.
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

	// ring holds the stored entries: n of them from head, wrapping. The
	// writer never sees more than depth slots in use, so depth slots
	// always suffice; they are allocated on the first push.
	ring    []entry[T]
	head, n int
	// freeAt[i] holds times at which previously-consumed slots become
	// visible to the writer again.
	pendingFree []sim.Time

	notEmpty *sim.Cond // signalled when an entry may have become poppable
	notFull  *sim.Cond // signalled when space may have become available

	// Pushed counts total entries ever pushed; Popped total ever popped.
	Pushed, Popped uint64
}

// NewFifo creates an async FIFO with the given positive capacity
// (entries) and synchronizer depth; Dolly's are params.FifoDepth and
// params.SyncStages.
func NewFifo[T any](eng *sim.Engine, name string, wclk, rclk *sim.Clock, depth, stages int) *Fifo[T] {
	return &Fifo[T]{
		Name:       name,
		eng:        eng,
		wclk:       wclk,
		rclk:       rclk,
		depth:      depth,
		syncStages: stages,
		notEmpty:   sim.NewCond(eng),
		notFull:    sim.NewCond(eng),
	}
}

// WriterClock reports the writer-side clock.
func (f *Fifo[T]) WriterClock() *sim.Clock { return f.wclk }

// occupancySeenByWriter counts slots the writer believes are in use at time
// now: everything in the queue plus consumed slots whose release has not yet
// crossed the synchronizer back.
func (f *Fifo[T]) occupancySeenByWriter(now sim.Time) int {
	n := f.n
	for _, t := range f.pendingFree {
		if t > now {
			n++
		}
	}
	return n
}

// CanPush reports whether a push would be accepted at time now.
func (f *Fifo[T]) CanPush(now sim.Time) bool {
	return f.occupancySeenByWriter(now) < f.depth
}

// TryPush attempts to push payload at the next writer-clock edge at or
// after now. It returns false if the FIFO appears full to the writer.
// On success the entry is committed at the writer edge and its visibility
// time in the reader domain is computed per the synchronizer model.
func (f *Fifo[T]) TryPush(payload T, tx *sim.TX) bool {
	now := f.eng.Now()
	if !f.CanPush(now) {
		return false
	}
	wedge := f.wclk.NextEdge(now)
	visible := f.rclk.EdgesAfter(wedge, int64(f.syncStages))
	if f.ring == nil {
		f.ring = make([]entry[T], f.depth)
	}
	f.ring[(f.head+f.n)%f.depth] = entry[T]{payload: payload, writtenAt: wedge, visibleAt: visible, tx: tx}
	f.n++
	f.Pushed++
	// Wake potential readers when the entry becomes visible.
	f.notEmpty.BroadcastAt(visible)
	return true
}

// headVisible reports whether the head entry is poppable at now.
func (f *Fifo[T]) headVisible(now sim.Time) bool {
	return f.n > 0 && f.ring[f.head].visibleAt <= now
}

// Len reports the number of entries currently stored (visible or not).
func (f *Fifo[T]) Len() int { return f.n }

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
	e := f.ring[f.head]
	f.ring[f.head] = entry[T]{}
	f.head = (f.head + 1) % f.depth
	f.n--
	f.Popped++
	redge := f.rclk.NextEdge(now)
	// The slot is returned to the writer once the read pointer crosses the
	// synchronizer into the writer domain.
	freeAt := f.wclk.EdgesAfter(redge, int64(f.syncStages))
	f.pendingFree = append(f.pendingFree, freeAt)
	f.gcPendingFree(now)
	f.notFull.BroadcastAt(freeAt)
	// Attribute the CDC crossing cost to the transaction: time from write
	// commit to visibility.
	e.tx.Add(sim.CatCDC, e.visibleAt-e.writtenAt)
	return e.payload, e.tx, true
}

func (f *Fifo[T]) gcPendingFree(now sim.Time) {
	keep := f.pendingFree[:0]
	for _, t := range f.pendingFree {
		if t > now {
			keep = append(keep, t)
		}
	}
	f.pendingFree = keep
}

// PopBlocking pops the head entry, parking thread t until one is visible.
func (f *Fifo[T]) PopBlocking(t *sim.Thread) (T, *sim.TX) {
	for {
		if v, tx, ok := f.TryPop(); ok {
			return v, tx
		}
		f.notEmpty.Wait(t)
	}
}
