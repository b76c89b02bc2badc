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
// methods (Sleep, WaitUntil, park via Cond/queues). Every wakeup is an
// event, routed through the queue, and every resumption a tail resume:
// the wakeup's callback (dispatchThread, or one that calls Resume) only
// names the thread, and whoever popped the event runs it as soon as the
// callback returns, so no thread is ever resumed from inside another and
// the single-runner invariant holds. Every wakeup reschedules the
// thread's pre-built wake record, so parking and waking allocate nothing.
// Three exact shortcuts skip the queue's coroutine round trip. A timed
// wait whose wakeup would be the next event popped keeps running (the
// run-on rule in WaitUntil). A thread that parks inside Run or RunBefore
// pops and runs the queued events itself, in the run loop's order and
// before the run's horizon, until one resumes a thread: its own wakeup
// continues it with no coroutine switch, and another thread's makes it
// yield so the run loop dispatches that thread next. An event callback
// that did a parked thread's waiting for it hands control back with
// Resume instead of queueing a wakeup.
type Thread struct {
	eng    *Engine
	name   string
	fn     func(*Thread) // nil once it has returned
	parked bool
	done   bool
	wake   Event // pre-built dispatch record; see Engine.AtEvent

	// The thread's own coroutine: next resumes it and returns when it
	// yields; yield, called from inside it, switches back to whoever
	// called next. A switch is a direct goroutine hand-off that never
	// passes through the Go scheduler.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// dispatchThread is the shared trampoline behind every thread wakeup
// event: it names a parked thread to run once it returns (see
// Engine.step). Spurious wakeups of a running or finished thread are
// ignored.
func dispatchThread(a any) {
	if t := a.(*Thread); t.parked && !t.done {
		t.eng.resume = t
	}
}

// threadClosed is the private panic value that unwinds a parked thread
// when its engine is closed: park raises it, body recovers it.
type threadClosed struct{}

// body is the thread's pulled sequence: it runs fn, then parks for good
// until Run or Close stops the coroutine.
func (t *Thread) body(yield func(struct{}) bool) {
	t.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(threadClosed); !ok {
				panic(r) // a model panic: re-raise it to the caller of next
			}
		}
	}()
	t.fn(t)
	t.done, t.fn = true, nil
	yield(struct{}{})
}

// Go spawns fn as a new simulation thread named name, on a coroutine of
// its own. The thread begins running at the current simulation time (via
// a scheduled event).
func (e *Engine) Go(name string, fn func(*Thread)) *Thread {
	t := &Thread{eng: e, name: name, fn: fn, parked: true}
	t.wake = Event{Fn: dispatchThread, Arg: t}
	t.next, t.stop = iter.Pull(t.body)
	e.threads = append(e.threads, t)
	e.AtEvent(e.now, &t.wake)
	return t
}

// reapFinished stops the coroutines of the threads whose function has
// returned. Run calls it on every return, so a finished coroutine never
// outlives the run it finished in; parked threads stay until Close.
func (e *Engine) reapFinished() {
	e.threads = slices.DeleteFunc(e.threads, func(t *Thread) bool {
		if t.done {
			t.stop()
		}
		return t.done
	})
}

// Close stops every coroutine the engine still holds: finished threads
// not yet reaped and parked threads. A parked thread unwinds from its
// blocking call, so its deferred calls run; a thread spawned but never
// dispatched is dropped without running. Afterwards LiveThreads is 0 and
// nothing outside the caller's references keeps the engine reachable.
// Call it once a simulation's results have been read: its threads must
// not be resumed again. A panic raised while a thread unwinds reaches
// the caller.
func (e *Engine) Close() {
	for n := len(e.threads); n > 0; n = len(e.threads) {
		t := e.threads[n-1]
		e.threads[n-1] = nil
		e.threads = e.threads[:n-1]
		t.stop()
		t.done, t.fn = true, nil // never started, or ended by a model panic
	}
}

// dispatch switches to the thread's coroutine and returns once it
// yields: parked with its wakeup out of its own reach, or finished. A
// panic in the thread, or in a callback it ran, surfaces here. Only
// Engine.step's resume loop calls it.
func (t *Thread) dispatch() {
	t.parked = false
	t.next()
}

// Resume makes the parked thread t run as soon as the event callback
// that calls it returns, before any other queued event: a callback that
// did a parked thread's waiting for it resumes it this way, instead of
// scheduling a wakeup at the current instant; the cpu package's parked
// spins resume their thread through a pre-built event that calls it.
// It is a tail call: callers call it last, since t runs only after the
// callback returns. Call it only from engine context (an event callback,
// never a thread's own code), at most once per callback; Resume panics
// if t is running or finished, or if the callback already resumed a
// thread.
func (t *Thread) Resume() {
	if !t.parked || t.done {
		panic(fmt.Sprintf("sim: resume of running or finished thread %s", t.name))
	}
	if t.eng.resume != nil {
		panic(fmt.Sprintf("sim: second resume from one callback (%s, then %s)", t.eng.resume.name, t.name))
	}
	t.eng.resume = t
}

// park suspends the thread until its next dispatch. Must be called from
// the thread itself. Inside a run it first runs the queue itself
// (Engine.runQueue) and returns in place if that reaches its own wakeup.
// If the engine is closed meanwhile, park unwinds the thread.
func (t *Thread) park() {
	t.parked = true
	if t.eng.runQueue(t) {
		t.parked = false
		return
	}
	if !t.yield(struct{}{}) {
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
	if !e.RunOn(tm, &t.wake) {
		t.park()
	}
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
func (e *Engine) LiveThreads() int {
	n := 0
	for _, t := range e.threads {
		if !t.done {
			n++
		}
	}
	return n
}

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
// condition's pre-built record: the deferred-wakeup idiom (a CDC entry's
// visibility) without a per-call closure. Waiters are collected when the
// broadcast fires, not when it is scheduled.
func (c *Cond) BroadcastAt(tm Time) {
	c.eng.AtEvent(tm, &c.bcast)
}
