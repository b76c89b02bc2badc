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
// methods (Sleep, WaitUntil, park via Cond/queues). Wakeups are routed
// through the event queue and never delivered from another thread, which
// preserves the single-runner invariant. Every wakeup reschedules the
// thread's pre-built wake record, so parking and waking allocate nothing.
// Two exact shortcuts skip the queue's coroutine round trip. A timed wait
// whose wakeup would be the next event popped keeps running (the run-on
// rule in WaitUntil). An event callback that did a parked thread's waiting
// for it hands control back in place with Resume.
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
// that start threads over and over (the cores' programs, accelerator
// kernels started per job) pay the coroutine setup once. next resumes the
// coroutine and returns when it yields; yield, called from inside it,
// switches back to whoever called next. A switch is a direct goroutine hand-off that never passes through
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
// running at the current simulation time (via a scheduled event), on a
// pooled (or new) worker.
func (e *Engine) Go(name string, fn func(*Thread)) *Thread {
	t := &Thread{eng: e, name: name}
	t.wake = Event{Fn: dispatchThread, Arg: t}
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
	t.w, t.parked = w, true
	w.t, w.fn = t, fn
	e.liveThreads++
	e.AtEvent(e.now, &t.wake)
	return t
}

// reapWorkers stops the idle pooled coroutines. Run calls it
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

// Resume runs the parked thread t in place, from the event callback that
// calls it, and returns once t parks again or finishes. A callback that
// replays what a parked thread would have done at its wakeups (the cpu
// package's L1-hit spin polls) resumes it this way when the thread must
// decide, instead of scheduling a wakeup at the current instant. Call it
// only from engine context (an event callback, never a thread); Resume
// panics if t is running or finished.
func (t *Thread) Resume() {
	if !t.parked || t.done {
		panic(fmt.Sprintf("sim: resume of running or finished thread %s", t.name))
	}
	t.dispatch()
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

// Now reports the current simulation time.
func (t *Thread) Now() Time { return t.eng.Now() }

// WaitUntil suspends the thread until absolute time tm. When the wakeup
// would be the next event the current run pops, the thread keeps running
// and the clock advances to tm: the run-on rule (Engine.RunOn). It skips
// two coroutine switches and changes no event's order.
func (t *Thread) WaitUntil(tm Time) {
	e := t.eng
	if tm < e.now {
		panic(fmt.Sprintf("sim: thread %s waiting for past time %v (now %v)", t.name, tm, e.now))
	}
	if e.RunOn(tm) {
		return
	}
	e.AtEvent(tm, &t.wake)
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

// Cond is a wait queue. Its waiters are wake records — a parked thread's
// own, or a callback's pre-built Event — so threads and callbacks share
// one FIFO. Waiters are woken in FIFO order, always via the event queue
// (never inline), at the simulation time of the signal; a wake removes
// the waiter, which must register again to wait again.
type Cond struct {
	eng     *Engine
	waiters []*Event
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

// Wait suspends t until a Broadcast wakes it. As with sync.Cond,
// callers should re-check their predicate in a loop.
func (c *Cond) Wait(t *Thread) {
	c.waiters = append(c.waiters, &t.wake)
	t.park()
}

// Await registers ev to run at the next Broadcast: the callback form of
// Wait, from a state machine that returns instead of parking. The wake is
// one-shot; a callback re-tests its predicate when it runs and calls
// Await again if it must keep waiting.
func (c *Cond) Await(ev *Event) {
	c.waiters = append(c.waiters, ev)
}

// Broadcast wakes all current waiters.
func (c *Cond) Broadcast() {
	for _, ev := range c.waiters {
		c.eng.AtEvent(c.eng.now, ev)
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
