package sim

import (
	"fmt"
	"iter"
	"slices"
)

// Thread is a simulation thread: a runtime coroutine (iter.Pull) that the
// engine resumes one at a time. At any instant at most one thread (or
// event callback) is executing, so models need no locking and simulations
// are reproducible.
//
// Thread code interacts with simulated time only through the blocking
// methods (Sleep, WaitUntil, park via Cond/queues). All wakeups are routed
// through the event queue, never delivered inline, which preserves the
// single-runner invariant. Every wakeup reschedules the thread's pre-built
// wake record, so parking and waking allocate nothing.
type Thread struct {
	eng    *Engine
	name   string
	w      *worker // the coroutine running this thread
	parked bool
	done   bool
	wake   Event // pre-built dispatch record; see Engine.AtEvent
}

// dispatchThread is the shared trampoline behind every thread wakeup event.
func dispatchThread(a any) { a.(*Thread).dispatch() }

// worker is a pooled coroutine, reused across finished threads so models
// that spawn threads per transaction (e.g. the coherence homes) pay the
// coroutine setup once. next resumes the coroutine and returns when it
// yields; yield, called from inside it, switches back to whoever called
// next. A switch is a direct goroutine hand-off that never passes through
// the Go scheduler. All pool accesses happen in simulation context — at
// most one thread or callback runs at a time — so the pool needs no
// locking.
type worker struct {
	eng   *Engine
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	t     *Thread // thread assigned to this worker; nil while pooled
	fn    func(*Thread)
}

// threadClosed is the private panic value that unwinds a parked thread
// when its engine is closed: park raises it, the worker's loop recovers it.
type threadClosed struct{}

// loop is the worker's pulled sequence: it runs one assigned thread after
// another, yielding between them while pooled, and returns once stopped.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(threadClosed); !ok {
				panic(r) // a model panic: re-raise it to the caller of next
			}
			w.retire()
		}
	}()
	for {
		w.fn(w.t)
		w.retire()
		w.eng.pool = append(w.eng.pool, w)
		if !yield(struct{}{}) {
			return // reaped or closed while pooled
		}
	}
}

// retire marks the worker's thread finished.
func (w *worker) retire() {
	w.t.done = true
	w.eng.liveThreads--
	w.t, w.fn = nil, nil
}

// Go spawns fn as a new simulation thread named name. The thread begins
// running at the current simulation time (via a scheduled event).
func (e *Engine) Go(name string, fn func(*Thread)) *Thread {
	var w *worker
	if n := len(e.pool); n > 0 {
		w = e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
	} else {
		w = &worker{eng: e}
		w.next, w.stop = iter.Pull(w.loop)
		e.workers = append(e.workers, w)
	}
	t := &Thread{eng: e, name: name, w: w, parked: true}
	t.wake = Event{Fn: dispatchThread, Arg: t}
	w.t, w.fn = t, fn
	e.liveThreads++
	e.AtEvent(e.now, &t.wake)
	return t
}

// reapWorkers stops the idle pooled coroutines. Run and RunUntil call it
// on every return — however the run ended — so pooling never outlives the
// run that benefited from it. Workers of parked threads are mid-function
// and stay until Close. Spawns after the reap simply start fresh workers.
func (e *Engine) reapWorkers() {
	if len(e.pool) == 0 {
		return
	}
	for i, w := range e.pool {
		w.stop()
		e.pool[i] = nil
	}
	e.pool = e.pool[:0]
	e.workers = slices.DeleteFunc(e.workers, func(w *worker) bool { return w.t == nil })
}

// Close stops every coroutine the engine still holds: idle pooled workers
// and parked threads. A parked thread unwinds from its blocking call, so
// its deferred calls run; a thread spawned but never dispatched is dropped
// without running. Afterwards LiveThreads is 0 and nothing outside the
// caller's references keeps the engine reachable. Call it once a
// simulation's results have been read: its threads must not be resumed
// again. A panic raised while a thread unwinds reaches the caller.
func (e *Engine) Close() {
	for n := len(e.workers); n > 0; n = len(e.workers) {
		w := e.workers[n-1]
		e.workers[n-1] = nil
		e.workers = e.workers[:n-1]
		w.stop()
		if w.t != nil {
			w.retire() // never started, or ended by a model panic
		}
	}
	clear(e.pool)
	e.pool = e.pool[:0]
}

// dispatch resumes the thread from engine context and returns once it
// parks again or finishes. Spurious dispatches of a running or finished
// thread are ignored. A panic in the thread function surfaces here, on
// the engine's goroutine.
func (t *Thread) dispatch() {
	if !t.parked || t.done {
		return
	}
	t.parked = false
	t.w.next()
}

// park suspends the thread until the next dispatch. Must be called from the
// thread itself. If the engine is closed meanwhile, park unwinds the thread.
func (t *Thread) park() {
	t.parked = true
	if !t.w.yield(struct{}{}) {
		panic(threadClosed{})
	}
}

// Park suspends the thread until another component wakes it (Wake, a Cond
// signal, or a timed wakeup). As with Cond.Wait, callers re-check their
// predicate in a loop: dispatches may be spurious. Must be called from the
// thread itself.
func (t *Thread) Park() { t.park() }

// Wake schedules a dispatch of t at the current instant if t is parked —
// the allocation-free single-waiter completion path (a Cond degenerates to
// this when exactly one thread can be waiting). Must be called from engine
// context. Wakes delivered while t is running are dropped, matching the
// Cond contract that only parked threads are woken.
func (t *Thread) Wake() {
	if t.parked && !t.done {
		t.eng.AtEvent(t.eng.now, &t.wake)
	}
}

// Name reports the thread's name.
func (t *Thread) Name() string { return t.name }

// Engine reports the engine this thread runs on.
func (t *Thread) Engine() *Engine { return t.eng }

// Now reports the current simulation time.
func (t *Thread) Now() Time { return t.eng.Now() }

// Done reports whether the thread function has returned.
func (t *Thread) Done() bool { return t.done }

// WaitUntil suspends the thread until absolute time tm.
func (t *Thread) WaitUntil(tm Time) {
	if tm < t.eng.now {
		panic(fmt.Sprintf("sim: thread %s waiting for past time %v (now %v)", t.name, tm, t.eng.now))
	}
	if tm == t.eng.now {
		return
	}
	t.eng.AtEvent(tm, &t.wake)
	t.park()
}

// Sleep suspends the thread for duration d.
func (t *Thread) Sleep(d Time) { t.WaitUntil(t.eng.now + d) }

// SleepCycles suspends the thread for n rising edges of clk: the thread
// resumes at the n-th edge strictly after the current time. n <= 0 aligns
// to the next edge at or after now.
func (t *Thread) SleepCycles(clk *Clock, n int64) {
	t.WaitUntil(clk.EdgesAfter(t.eng.now, n))
}

// AlignTo suspends the thread until the next rising edge of clk at or after
// the current time.
func (t *Thread) AlignTo(clk *Clock) { t.WaitUntil(clk.NextEdge(t.eng.now)) }

// LiveThreads reports the number of spawned threads that have not finished.
// A nonzero value after Run returns usually means the model deadlocked.
func (e *Engine) LiveThreads() int { return e.liveThreads }

// Cond is a wait queue for threads. Waiters are woken in FIFO order, always
// via the event queue (never inline), at the simulation time of the signal.
type Cond struct {
	eng     *Engine
	waiters []*Thread
	bcast   Event // pre-built deferred-broadcast record for BroadcastAt
}

// condBroadcast is the trampoline behind Cond.BroadcastAt events.
func condBroadcast(a any) { a.(*Cond).Broadcast() }

// NewCond returns a condition bound to engine e.
func NewCond(e *Engine) *Cond {
	c := &Cond{eng: e}
	c.bcast = Event{Fn: condBroadcast, Arg: c}
	return c
}

// Wait suspends t until a Signal or Broadcast wakes it. As with sync.Cond,
// callers should re-check their predicate in a loop.
func (c *Cond) Wait(t *Thread) {
	c.waiters = append(c.waiters, t)
	t.park()
}

// Signal wakes the oldest waiter, if any. Removal shifts the FIFO in
// place (rather than re-slicing) so the queue's capacity is kept and the
// wait/signal steady state allocates nothing.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	t := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	c.eng.AtEvent(c.eng.now, &t.wake)
}

// Broadcast wakes all current waiters.
func (c *Cond) Broadcast() {
	for _, t := range c.waiters {
		c.eng.AtEvent(c.eng.now, &t.wake)
	}
	clear(c.waiters)
	c.waiters = c.waiters[:0]
}

// BroadcastAt schedules a Broadcast at absolute time tm by rescheduling the
// condition's pre-built record: the deferred-wakeup idiom (CDC visibility,
// credit return) without a per-call closure. Waiters are collected when the
// broadcast fires, not when it is scheduled.
func (c *Cond) BroadcastAt(tm Time) {
	c.eng.AtEvent(tm, &c.bcast)
}

// Waiters reports the number of threads currently waiting.
func (c *Cond) Waiters() int { return len(c.waiters) }
