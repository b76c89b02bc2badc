// Package sim provides the deterministic discrete-event simulation kernel
// used by every hardware model in this repository.
//
// Time is measured in integer picoseconds (Time). Components schedule
// callbacks on an Engine; clocked components derive edge times from Clock.
// Hardware blocks (coherence homes, the Duet Adapter's hubs, CDC pumps,
// the soft cache's write buffer) are callback state machines: each phase runs as an event, waits on a
// Cond through Cond.Await, and continues at a later instant through
// RunOn or a scheduled Event. Sequential "programs" (processor software,
// behavioural accelerator models) run as Threads, each on a runtime
// coroutine (iter.Pull) of its own that the engine resumes one at a time,
// which keeps the simulation fully deterministic while letting benchmark
// code be written as ordinary straight-line Go. A resume or park is a
// direct coroutine switch that bypasses the Go scheduler, and a panic in
// a thread surfaces from the Run call that resumed it. A thread that
// parks runs the queued callbacks itself until an event resumes a thread,
// so a wakeup costs two coroutine switches only when another thread ran
// in between; a thread whose next wakeup is its own switches none. A
// finished thread's coroutine is stopped when Run returns; Engine.Close
// stops the threads still parked when a simulation is discarded. A
// callback continuation costs a queue event.
//
// The event queue is a calendar of per-timestamp buckets ordered by a
// hand-rolled 4-ary heap of bucket handles. Because clocked models schedule
// almost everything on clock-edge-aligned timestamps shared by many
// components, the common enqueue/dequeue is an O(1) append/advance on an
// existing bucket, found through a fixed direct-mapped slot table; the heap
// holds about one bucket per distinct timestamp. An event scheduled at
// least farFuture (about 134 µs) ahead, such as an adapter watchdog,
// skips the calendar for a small binary heap ordered the same way, so
// thousands of pending timers do not deepen the calendar's heap; at an
// instant both hold, the far events run first, since they were scheduled
// earlier. Events run in (time, scheduling order) and carry no priority.
// Events are stored by value and callbacks are passed as (func(any), arg)
// pairs, so the schedule-and-run path performs no per-event allocation.
// See PERF.md for the layout and the determinism invariants.
//
// Component state uses two containers: a FreeList recycles per-request
// records, and a Queue holds every FIFO (CDC entries, soft-register
// queues, ordering and per-line request queues).
package sim

import (
	"fmt"
)

// Time is simulated time in picoseconds.
type Time int64

// Convenient time units.
const (
	PS Time = 1
	NS Time = 1000
	US Time = 1000 * 1000
	MS Time = 1000 * 1000 * 1000
)

// Forever is a time later than any realistic simulation instant.
const Forever Time = 1 << 62

func (t Time) String() string {
	switch {
	case t >= MS:
		return fmt.Sprintf("%.3fms", float64(t)/float64(MS))
	case t >= US:
		return fmt.Sprintf("%.3fus", float64(t)/float64(US))
	case t >= NS:
		return fmt.Sprintf("%.3fns", float64(t)/float64(NS))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Nanoseconds reports t as a float64 nanosecond count.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(NS) }

// Seconds reports t as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / 1e12 }

// event is one scheduled callback, stored by value inside its timestamp's
// bucket or its farEvent. The kernel allocates nothing per event: fn is a
// long-lived function value and arg a caller-owned pointer (or the plain
// func() for events scheduled through At/After, which boxes
// allocation-free).
type event struct {
	fn  func(any)
	arg any
}

// call0 adapts a plain func() callback to the (fn, arg) event form.
func call0(a any) { a.(func())() }

// bucket holds queued events of one timestamp in scheduling order. An
// instant normally has one live bucket; after a slot collision it can have
// several, and seq (creation order) runs the older one first. Only the
// newest bucket of an instant is ever appended to, so events at one instant
// still run in scheduling order.
type bucket struct {
	at   Time   // -1 once drained
	seq  uint64 // creation order: the heap's tie-break at equal at
	head int    // next event to pop
	evs  []event
}

// farFuture is the lead at or past which an event goes to the far-future
// heap instead of the calendar. At 2^27 ps (about 134 µs) mostly timers
// take it, such as the Duet Adapter's watchdogs 200,000 fast cycles out,
// while job completions and memory chains, microseconds out, keep the
// calendar's O(1) bucket path. Exactness needs no particular value: now
// never goes backwards, so an event at instant t enters the calendar only
// if it was scheduled after every far event at t.
const farFuture Time = 1 << 27

// farEvent is one event in the far-future heap.
type farEvent struct {
	at  Time
	seq uint64 // scheduling order among far events: the tie-break at equal at
	ev  event
}

// calSlots is the size of the calendar's direct-mapped slot table.
const calSlots = 256

// calSlot hashes t to a slot. Clock-aligned picosecond times share their
// low bits, so a multiplicative (Fibonacci) hash takes the top bits.
func calSlot(t Time) uint64 { return (uint64(t) * 0x9E3779B97F4A7C15) >> 56 }

// Event is a pre-built schedulable record. Components that repeatedly
// schedule the same callback (thread wakeups, FIFO drains) build one Event
// up front and pass it to Engine.AtEvent, so the hot path rebuilds no
// closures. Scheduling copies the record; one Event may be pending at
// several times at once.
type Event struct {
	Fn  func(any)
	Arg any
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// engines with NewEngine or NewEngineCap.
type Engine struct {
	now Time
	// horizon bounds the run-on path (RunOn), where a thread or callback
	// keeps running to a wakeup strictly before it, and a parked thread's
	// runQueue. Run(0) sets Forever and RunBefore its deadline; an event
	// budget, and the time between runs, leave it 0, which turns both off.
	horizon Time

	buckets []bucket        // bucket arena; heap and slots hold indices into it
	free    []int32         // released arena slots available for reuse
	heap    []int32         // 4-ary min-heap of live bucket indices, keyed by (at, seq)
	slots   [calSlots]int32 // newest bucket opened per calSlot; a hit needs at == t
	seq     uint64          // buckets opened so far

	far    []farEvent // binary min-heap of far-future events, keyed by (at, seq)
	farSeq uint64     // far events scheduled so far

	// threads holds every Thread whose coroutine is not yet stopped:
	// finished ones until Run returns, the rest until Close.
	threads []*Thread
	// resume is the thread the running callback resumed (dispatchThread,
	// Thread.Resume): whoever popped the event runs it as soon as the
	// callback returns.
	resume *Thread
	pops   int // events popped so far: what Run and RunBefore count
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return NewEngineCap(0) }

// NewEngineCap returns an empty engine pre-sized for roughly capHint
// concurrently queued events, so large models reach steady state without
// growing the queue's bucket arena or heap mid-run.
func NewEngineCap(capHint int) *Engine {
	e := &Engine{}
	if capHint > 0 {
		// Clocked models put several events in each bucket; a quarter of
		// the event capacity is a conservative distinct-timestamp estimate.
		nb := capHint/4 + 1
		e.buckets = make([]bucket, 0, nb)
		e.free = make([]int32, 0, nb)
		e.heap = make([]int32, 0, nb)
		// A system's core programs and accelerator kernels fit without
		// regrowing the thread list.
		e.threads = make([]*Thread, 0, 64)
	}
	return e
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug.
func (e *Engine) At(t Time, fn func()) {
	e.at(t, call0, fn)
}

// After schedules fn to run d picoseconds from now.
func (e *Engine) After(d Time, fn func()) {
	e.at(e.now+d, call0, fn)
}

// AtArg schedules fn(arg) at absolute time t. With a long-lived fn and a
// pointer-shaped arg this schedules without allocating, so per-message hot
// paths (NoC delivery, MMIO decode, job completion) avoid closure churn.
func (e *Engine) AtArg(t Time, fn func(any), arg any) {
	e.at(t, fn, arg)
}

// AfterArg schedules fn(arg) d picoseconds from now; see AtArg.
func (e *Engine) AfterArg(d Time, fn func(any), arg any) {
	e.at(e.now+d, fn, arg)
}

// AtEvent schedules the pre-built record ev at absolute time t. The record
// is copied, never retained, so it can be rescheduled freely — the
// allocation-free path behind thread wakeups and condition broadcasts.
func (e *Engine) AtEvent(t Time, ev *Event) {
	e.at(t, ev.Fn, ev.Arg)
}

// at enqueues one event. An event at least farFuture ahead goes to the
// far-future heap. Otherwise the fast path — the instant's newest bucket
// is still in its slot — is a slot load, a timestamp compare and an
// append. On a miss (no open bucket, or a colliding instant took the
// slot) a new bucket opens and takes the slot.
func (e *Engine) at(t Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if t-e.now >= farFuture {
		e.farPush(farEvent{at: t, seq: e.farSeq, ev: event{fn: fn, arg: arg}})
		e.farSeq++
		return
	}
	s := calSlot(t)
	// Unwritten slots hold 0, which may name no bucket yet.
	if bi := e.slots[s]; int(bi) < len(e.buckets) && e.buckets[bi].at == t {
		b := &e.buckets[bi]
		b.evs = append(b.evs, event{fn: fn, arg: arg})
		return
	}
	var bi int32
	if n := len(e.free); n > 0 {
		bi = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.buckets = append(e.buckets, bucket{})
		bi = int32(len(e.buckets) - 1)
	}
	b := &e.buckets[bi]
	b.at = t
	b.seq = e.seq
	e.seq++
	b.head = 0
	b.evs = append(b.evs[:0], event{fn: fn, arg: arg})
	e.slots[s] = bi
	e.heapPush(bi)
}

// pop removes the earliest queued event, the far heap's head first at
// equal times, advances the clock to it and counts it. Callers guarantee
// the queue is non-empty. The "time went backwards" guard holds for every
// execution path (the run loops and a parked thread's runQueue alike): it
// is the kernel's core determinism invariant.
func (e *Engine) pop() event {
	e.pops++
	if len(e.far) > 0 && (len(e.heap) == 0 || e.far[0].at <= e.buckets[e.heap[0]].at) {
		f := e.far[0]
		if f.at < e.now {
			panic("sim: event time went backwards")
		}
		e.now = f.at
		e.farPopTop()
		return f.ev
	}
	bi := e.heap[0]
	b := &e.buckets[bi]
	if b.at < e.now {
		panic("sim: event time went backwards")
	}
	e.now = b.at
	ev := b.evs[b.head]
	b.evs[b.head] = event{} // release the callback and payload promptly
	b.head++
	if b.head == len(b.evs) {
		// Bucket drained: mark it dead before running the callback, so a
		// callback scheduling at this same instant misses and opens a
		// fresh bucket (the newest at now, so it sorts after any other).
		b.at = -1
		b.head = 0
		b.evs = b.evs[:0]
		e.heapPopTop()
		e.free = append(e.free, bi)
	}
	return ev
}

// step pops and runs the earliest queued event, then the thread it
// resumed, if any, and each thread that thread yields to in turn. This
// loop is the only caller of Thread.dispatch, so no coroutine is ever
// resumed from inside another.
func (e *Engine) step() {
	ev := e.pop()
	ev.fn(ev.arg)
	for e.resume != nil {
		t := e.resume
		e.resume = nil
		t.dispatch()
	}
}

// due reports whether an event is queued before the run's horizon. An
// empty queue's next is Forever, which a horizon past Forever would
// otherwise pop.
func (e *Engine) due() bool {
	return (len(e.heap) > 0 || len(e.far) > 0) && e.next() < e.horizon
}

// runQueue runs queued events on the stack of t, a thread that is
// parking, exactly as the run loop would: in (time, scheduling order) and
// only before the run's horizon, so a budgeted Run, whose horizon is 0,
// never gets here. It stops at the first event that resumes a thread and
// reports whether that thread is t, which then continues with no
// coroutine switch; any other thread is left in resume for step's loop
// once t has yielded.
func (e *Engine) runQueue(t *Thread) bool {
	for e.due() {
		ev := e.pop()
		ev.fn(ev.arg)
		if r := e.resume; r != nil {
			if r != t {
				return false
			}
			e.resume = nil
			return true
		}
	}
	return false
}

// next reports the time of the earliest queued event, Forever when the
// queue is empty.
func (e *Engine) next() Time {
	t := Forever
	if len(e.heap) > 0 {
		t = e.buckets[e.heap[0]].at
	}
	if len(e.far) > 0 && e.far[0].at < t {
		t = e.far[0].at
	}
	return t
}

// RunOn is the run-on rule, for a thread's timed wait (Thread.WaitUntil)
// and for an event callback that must continue at tm. It reports true
// when the caller may go on in place: tm is now, or a wakeup at tm
// scheduled now would be the next event the current run pops (tm is
// before the run's bound, and nothing is queued at or before tm), in
// which case the clock advances to tm. Otherwise it queues ev, the
// caller's continuation, at tm and reports false. Either way the
// continuation runs at the same point of the event order; the run-on
// path only skips the queue. A callback may take it only where its
// return hands control back to the run loop, so nothing else runs at the
// advanced clock.
func (e *Engine) RunOn(tm Time, ev *Event) bool {
	if tm < e.now {
		panic(fmt.Sprintf("sim: running on to past time %v (now %v)", tm, e.now))
	}
	if tm == e.now {
		return true
	}
	if tm >= e.horizon || e.next() <= tm {
		e.AtEvent(tm, ev)
		return false
	}
	e.now = tm
	return true
}

// Run executes events until the queue drains or the event budget
// maxEvents is exhausted (0 means no budget). It returns the number of
// events executed: queue pops, including those a parked thread ran
// itself (Thread), while a continuation taken by the run-on path (see
// RunOn) does not count. Under a budget the run-on path and the parked
// threads' queue runs are off, so the run loop pops every event itself.
// On return it stops the coroutines of the threads that have finished.
func (e *Engine) Run(maxEvents int) int {
	e.horizon = Forever
	if maxEvents > 0 {
		e.horizon = 0
	}
	start := e.pops
	for len(e.heap) > 0 || len(e.far) > 0 {
		if maxEvents > 0 && e.pops-start >= maxEvents {
			break
		}
		e.step()
	}
	e.horizon = 0
	e.reapFinished()
	return e.pops - start
}

// RunBefore executes events with timestamps strictly before deadline,
// then advances the clock to deadline. Events at exactly deadline stay
// queued — the streaming submission contract: work injected at deadline
// (outside any event) precedes every already-queued callback at that
// same instant, exactly as a pre-scheduled arrival event would by bucket
// insertion order. Like Run it returns the events popped. Unlike Run it
// leaves finished threads' coroutines to the next Run or Close, so a
// caller fusing a long submission stream into the run pays no
// per-arrival scan of the engine's threads.
func (e *Engine) RunBefore(deadline Time) int {
	e.horizon = deadline
	start := e.pops
	for e.due() {
		e.step()
	}
	e.horizon = 0
	if e.now < deadline {
		e.now = deadline
	}
	return e.pops - start
}

// --- 4-ary heap of bucket handles, keyed by (at, seq) ----------------------
//
// A pushed bucket is always the newest, so sift-up compares timestamps
// alone. 4-ary halves the tree depth of a binary heap and keeps the sift
// loops free of interface dispatch.

func (e *Engine) heapPush(bi int32) {
	e.heap = append(e.heap, bi)
	i := len(e.heap) - 1
	at := e.buckets[bi].at
	for i > 0 {
		p := (i - 1) / 4
		if e.buckets[e.heap[p]].at <= at {
			break
		}
		e.heap[i] = e.heap[p]
		i = p
	}
	e.heap[i] = bi
}

// heapPopTop removes the minimum (the current top bucket handle).
func (e *Engine) heapPopTop() {
	n := len(e.heap) - 1
	moved := e.heap[n]
	e.heap = e.heap[:n]
	if n == 0 {
		return
	}
	at, seq := e.buckets[moved].at, e.buckets[moved].seq
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		mb := &e.buckets[e.heap[c]]
		for j := c + 1; j < end; j++ {
			if b := &e.buckets[e.heap[j]]; b.at < mb.at || b.at == mb.at && b.seq < mb.seq {
				m, mb = j, b
			}
		}
		if mb.at > at || mb.at == at && mb.seq > seq {
			break
		}
		e.heap[i] = e.heap[m]
		i = m
	}
	e.heap[i] = moved
}

// --- binary heap of far-future events, keyed by (at, seq) -----------------
//
// A pushed event is always the newest far event, so sift-up compares
// timestamps alone, as in the bucket heap.

func (e *Engine) farPush(f farEvent) {
	e.far = append(e.far, f)
	i := len(e.far) - 1
	for i > 0 {
		p := (i - 1) / 2
		if e.far[p].at <= f.at {
			break
		}
		e.far[i] = e.far[p]
		i = p
	}
	e.far[i] = f
}

// farPopTop removes the minimum, releasing the freed tail slot's callback
// and payload.
func (e *Engine) farPopTop() {
	n := len(e.far) - 1
	moved := e.far[n]
	e.far[n] = farEvent{}
	e.far = e.far[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && farLess(&e.far[c+1], &e.far[c]) {
			c++
		}
		if !farLess(&e.far[c], &moved) {
			break
		}
		e.far[i] = e.far[c]
		i = c
	}
	if n > 0 {
		e.far[i] = moved
	}
}

func farLess(a, b *farEvent) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}
