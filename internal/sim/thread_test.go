package sim

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// goid reports the id of the calling goroutine, from the header of its
// stack trace: a thread's coroutine has an id of its own, so a callback
// can tell which stack it runs on.
func goid() int {
	var buf [64]byte
	s := buf[:runtime.Stack(buf[:], false)]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	n, err := strconv.Atoi(string(s[:bytes.IndexByte(s, ' ')]))
	if err != nil {
		panic(err)
	}
	return n
}

// sleeper spawns a thread that records its goroutine id, then sleeps
// until 10 ns, with five callbacks queued at 1..5 ns that each record
// the goroutine they run on.
func sleeper(e *Engine) (thread *int, ran *[]int) {
	thread, ran = new(int), new([]int)
	e.Go("sleeper", func(th *Thread) {
		*thread = goid()
		th.WaitUntil(10 * NS)
	})
	for k := 1; k <= 5; k++ {
		e.At(Time(k)*NS, func() { *ran = append(*ran, goid()) })
	}
	return thread, ran
}

// TestParkedThreadRunsQueue pins that a parked thread runs the queued
// callbacks on its own stack, and that Run and RunBefore count them: the
// thread's start, five callbacks and its wakeup are seven pops.
func TestParkedThreadRunsQueue(t *testing.T) {
	e := NewEngine()
	thread, ran := sleeper(e)
	if n := e.Run(0); n != 7 {
		t.Fatalf("Run popped %d events, want 7", n)
	}
	for k, g := range *ran {
		if g != *thread {
			t.Fatalf("callback %d ran on goroutine %d, want the parked thread's %d", k, g, *thread)
		}
	}

	e = NewEngine()
	thread, ran = sleeper(e)
	if n := e.RunBefore(8 * NS); n != 6 || len(*ran) != 5 || e.LiveThreads() != 1 {
		t.Fatalf("RunBefore(8ns) popped %d events, ran %d callbacks, %d live threads; want 6, 5, 1", n, len(*ran), e.LiveThreads())
	}
	if (*ran)[4] != *thread {
		t.Fatalf("callbacks ran on goroutine %d, want the parked thread's %d", (*ran)[4], *thread)
	}
	if n := e.RunBefore(20 * NS); n != 1 || e.LiveThreads() != 0 {
		t.Fatalf("RunBefore(20ns) popped %d events with %d live threads; want 1 and 0", n, e.LiveThreads())
	}
	e.Close()
}

// TestBudgetedRunWithParkedThread pins that a budgeted Run halts after
// exactly its budget of pops while a thread is parked: the thread leaves
// the queue to the run loop, since a budget turns its queue runs off.
func TestBudgetedRunWithParkedThread(t *testing.T) {
	e := NewEngine()
	thread, ran := sleeper(e)
	if n := e.Run(3); n != 3 || e.Now() != 2*NS || e.Pending() != 4 {
		t.Fatalf("Run(3) popped %d events, now %v, %d pending; want 3, 2ns, 4", n, e.Now(), e.Pending())
	}
	for _, g := range *ran {
		if g == *thread {
			t.Fatal("a callback of a budgeted run ran on the parked thread")
		}
	}
	if n := e.Run(0); n != 4 || e.LiveThreads() != 0 {
		t.Fatalf("Run(0) popped %d events with %d live threads; want 4 and 0", n, e.LiveThreads())
	}
}

// TestRunBeforeLeavesDeadlineQueued pins that a parked thread stops at a
// RunBefore deadline as the run loop does: the callback before it runs,
// the callback and the thread's own wakeup at it stay queued.
func TestRunBeforeLeavesDeadlineQueued(t *testing.T) {
	e := NewEngine()
	woke := false
	e.Go("sleeper", func(th *Thread) {
		th.WaitUntil(5 * NS)
		woke = true
	})
	var ran []Time
	e.At(4*NS, func() { ran = append(ran, e.Now()) })
	e.At(5*NS, func() { ran = append(ran, e.Now()) })
	if n := e.RunBefore(5 * NS); n != 2 || len(ran) != 1 || woke || e.Pending() != 2 {
		t.Fatalf("RunBefore(5ns): popped %d, ran %v, woke %v, %d pending; want 2, [4ns], false, 2", n, ran, woke, e.Pending())
	}
	e.Run(0)
	if !woke || len(ran) != 2 {
		t.Fatalf("after Run: woke %v, ran %v", woke, ran)
	}
}

// TestCallbackPanicOnParkedThread pins that a callback panicking while a
// parked thread runs the queue reaches Run's caller, and that Close then
// releases every thread and coroutine.
func TestCallbackPanicOnParkedThread(t *testing.T) {
	boom := errors.New("boom")
	before := runtime.NumGoroutine()
	e := NewEngine()
	thread := 0
	e.Go("sleeper", func(th *Thread) {
		thread = goid()
		th.WaitUntil(10 * NS)
	})
	e.Go("stuck", func(th *Thread) { th.Park() })
	ranOn := 0
	e.At(NS, func() {
		ranOn = goid()
		panic(boom)
	})
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("Run panicked with %v, want %v", r, boom)
			}
		}()
		e.Run(0)
		t.Fatal("Run returned despite the callback panic")
	}()
	if ranOn == 0 || ranOn == goid() {
		t.Fatalf("the callback ran on goroutine %d, want a parked thread's (the sleeper is %d)", ranOn, thread)
	}
	e.Close()
	if n := e.LiveThreads(); n != 0 {
		t.Fatalf("live threads after Close = %d, want 0", n)
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before the engine, %d after Close", before, after)
	}
}

// TestSecondResumePanics pins that one callback resumes at most one
// thread: a resume is a tail call, and a second has no place to run.
func TestSecondResumePanics(t *testing.T) {
	e := NewEngine()
	a := e.Go("a", func(th *Thread) { th.Park() })
	b := e.Go("b", func(th *Thread) { th.Park() })
	e.At(NS, func() {
		a.Resume()
		b.Resume()
	})
	defer func() {
		r := recover()
		if s, _ := r.(string); !strings.Contains(s, "second resume") {
			t.Fatalf("Run panicked with %v, want a second-resume panic", r)
		}
		e.Close()
	}()
	e.Run(0)
	t.Fatal("Run returned despite two resumes from one callback")
}

// TestResumeFromParkedThreadRunsNext pins the tail resume from a callback
// that a parked thread A runs: the thread B it resumes runs as soon as
// the callback returns, before the next queued event, on its own
// coroutine.
func TestResumeFromParkedThreadRunsNext(t *testing.T) {
	e := NewEngine()
	var log []string
	aID, bID, cbID := 0, 0, 0
	// B parks first, so A's start is popped on B's stack and A is
	// dispatched; A then runs the queue until its own wakeup.
	b := e.Go("b", func(th *Thread) {
		th.Park()
		bID = goid()
		log = append(log, "b")
	})
	e.Go("a", func(th *Thread) {
		aID = goid()
		th.WaitUntil(10 * NS)
		log = append(log, "a")
	})
	e.At(NS, func() {
		cbID = goid()
		log = append(log, "cb")
		b.Resume()
	})
	e.At(NS, func() { log = append(log, "next") })
	e.Run(0)
	if got := strings.Join(log, " "); got != "cb b next a" {
		t.Fatalf("order %q, want %q", got, "cb b next a")
	}
	if cbID != aID || bID == aID {
		t.Fatalf("goroutines: callback %d, a %d, b %d; want the callback on a's, b on its own", cbID, aID, bID)
	}
}
