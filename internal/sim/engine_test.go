package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30*NS, func() { got = append(got, 3) })
	e.At(10*NS, func() { got = append(got, 1) })
	e.At(20*NS, func() { got = append(got, 2) })
	e.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*NS {
		t.Fatalf("Now = %v, want 30ns", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*NS, func() { got = append(got, i) })
	}
	e.Run(0)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	n := 0
	var rec func()
	rec = func() {
		n++
		if n < 100 {
			e.After(1*NS, rec)
		}
	}
	e.After(0, rec)
	e.Run(0)
	if n != 100 {
		t.Fatalf("n = %d, want 100", n)
	}
	if e.Now() != 99*NS {
		t.Fatalf("Now = %v, want 99ns", e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*NS, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5*NS, func() {})
	})
	e.Run(0)
}

// TestRunBefore pins the strictly-before contract: events at exactly the
// deadline stay pending — the streaming cluster path depends on it so a
// submission at t still precedes completions at t, matching the
// pre-scheduled arrival ordering of the materialized path. Run then
// drains what RunBefore left.
func TestRunBefore(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(10*NS, func() { ran++ })
	e.At(20*NS, func() { ran++ })
	e.At(30*NS, func() { ran++ })
	if n := e.RunBefore(20 * NS); n != 1 || ran != 1 {
		t.Fatalf("RunBefore(20ns) ran %d events (n=%d), want 1", ran, n)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2 (the 20ns event must stay queued)", e.Pending())
	}
	if e.Now() != 20*NS {
		t.Fatalf("Now = %v, want 20ns", e.Now())
	}
	// The held-back event runs on the next call past it.
	if n := e.RunBefore(21 * NS); n != 1 || ran != 2 {
		t.Fatalf("second RunBefore ran %d events (n=%d), want 1", ran, n)
	}
	if n := e.Run(0); n != 1 || ran != 3 || e.Pending() != 0 {
		t.Fatalf("Run ran %d events (n=%d), pending %d; want all 3 run", ran, n, e.Pending())
	}
	if e.Now() != 30*NS {
		t.Fatalf("Now = %v after Run, want 30ns", e.Now())
	}
	// Deadline with no events advances time.
	e2 := NewEngine()
	e2.RunBefore(42 * NS)
	if e2.Now() != 42*NS {
		t.Fatalf("empty RunBefore Now = %v", e2.Now())
	}
}

// TestRunBeforeTimeWentBackwardsPanics pins the "event time went
// backwards" invariant on the RunBefore pop path. The invariant cannot be
// violated through the public API (scheduling in the past panics at
// enqueue), so the test corrupts a queued bucket's timestamp directly.
func TestRunBeforeTimeWentBackwardsPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*NS, func() {})
	e.At(20*NS, func() {})
	e.RunBefore(11 * NS) // now = 11ns; the 20ns event stays queued
	e.buckets[e.heap[0]].at = 5 * NS
	defer func() {
		if recover() == nil {
			t.Fatal("RunBefore executed an event behind the current time without panicking")
		}
	}()
	e.RunBefore(30 * NS)
}

// TestRunTimeWentBackwardsPanics pins the same guard on the Run path.
func TestRunTimeWentBackwardsPanics(t *testing.T) {
	e := NewEngine()
	e.At(10*NS, func() {})
	e.At(20*NS, func() {})
	e.Run(1)
	e.buckets[e.heap[0]].at = 5 * NS
	defer func() {
		if recover() == nil {
			t.Fatal("Run executed an event behind the current time without panicking")
		}
	}()
	e.Run(0)
}

// TestRunBudgetResumesMidBucket pins that a budgeted Run which halts
// partway through a same-instant bucket resumes exactly where it left off.
func TestRunBudgetResumesMidBucket(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 6; i++ {
		i := i
		e.At(5*NS, func() { got = append(got, i) })
	}
	if n := e.Run(2); n != 2 {
		t.Fatalf("ran %d, want 2", n)
	}
	if e.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", e.Pending())
	}
	e.Run(0)
	for i := 0; i < 6; i++ {
		if got[i] != i {
			t.Fatalf("order = %v", got)
		}
	}
}

// TestSlotCollisionKeepsSchedulingOrder forces two live buckets at one
// instant: an event at the colliding instant takes the first instant's
// slot, so the next events at the first instant miss and open a second
// bucket there. The older bucket must run first, and every event at the
// instant — including one scheduled at now while the older bucket drains —
// must run in scheduling order.
func TestSlotCollisionKeepsSchedulingOrder(t *testing.T) {
	for _, swap := range []bool{false, true} {
		t1, t2 := collidingInstants(NS, NS)
		if swap {
			t1, t2 = t2, t1 // the colliding instant runs first
		}
		e := NewEngine()
		var got []string
		rec := func(s string) func() { return func() { got = append(got, s) } }
		e.At(t1, func() {
			got = append(got, "a1")
			e.At(e.Now(), rec("a-child"))
		})
		e.At(t1, rec("a2"))
		e.At(t2, rec("b"))
		e.At(t1, rec("a3"))
		e.At(t1, rec("a4"))
		if live := len(e.heap); live != 3 {
			t.Fatalf("swap=%v: %d live buckets, want 3 (two at %v, one at %v)", swap, live, t1, t2)
		}
		e.Run(0)
		want := []string{"a1", "a2", "a3", "a4", "a-child", "b"}
		if swap {
			want = []string{"b", "a1", "a2", "a3", "a4", "a-child"}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("swap=%v: order = %v, want %v", swap, got, want)
		}
	}
}

// TestFarFutureTier pins the far-future heap: an event scheduled at least
// farFuture ahead skips the calendar, Pending and event budgets count it,
// a RunBefore deadline at its instant leaves it queued, and at its instant
// it runs before a calendar event scheduled there later, while far events
// among themselves keep scheduling order.
func TestFarFutureTier(t *testing.T) {
	e := NewEngine()
	var got []string
	rec := func(s string) func() { return func() { got = append(got, s) } }
	tf := farFuture + 5*NS
	e.At(tf, rec("far1"))
	e.At(6*NS, func() {
		got = append(got, "near")
		e.At(tf, rec("calendar"))                 // lead under farFuture
		e.At(e.Now()+farFuture, rec("far-child")) // lead exactly farFuture
	})
	e.At(tf, rec("far2"))
	if e.Pending() != 3 || len(e.far) != 2 || len(e.heap) != 1 {
		t.Fatalf("pending %d, far %d, buckets %d; want 3, 2, 1", e.Pending(), len(e.far), len(e.heap))
	}
	if n := e.Run(1); n != 1 || e.Pending() != 4 || len(e.far) != 3 {
		t.Fatalf("Run(1) popped %d, pending %d, far %d; want 1, 4, 3", n, e.Pending(), len(e.far))
	}
	if n := e.RunBefore(tf); n != 0 || e.Now() != tf || e.Pending() != 4 {
		t.Fatalf("RunBefore(%v) popped %d, now %v, pending %d; want 0, %v, 4", tf, n, e.Now(), e.Pending(), tf)
	}
	if n := e.Run(2); n != 2 || e.Pending() != 2 {
		t.Fatalf("Run(2) popped %d, pending %d; want 2, 2", n, e.Pending())
	}
	if n := e.Run(0); n != 2 || e.Pending() != 0 || len(e.far) != 0 {
		t.Fatalf("Run(0) popped %d, pending %d, far %d; want 2, 0, 0", n, e.Pending(), len(e.far))
	}
	want := []string{"near", "far1", "far2", "calendar", "far-child"}
	if !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if e.Now() != 6*NS+farFuture {
		t.Fatalf("Now = %v, want %v", e.Now(), 6*NS+farFuture)
	}
}

// TestRunOnWithFarEventQueued pins the run-on rule against the far-future
// heap: a callback may run on up to a queued far event's instant but not
// to it, and the continuation it queues there runs after the far event.
func TestRunOnWithFarEventQueued(t *testing.T) {
	e := NewEngine()
	tf := farFuture + 10*NS
	var trace []string
	e.At(tf, func() { trace = append(trace, fmt.Sprintf("far@%d", e.Now())) })
	var ev Event
	ev.Fn = func(any) {
		if e.Now() == tf {
			trace = append(trace, fmt.Sprintf("continued@%d", e.Now()))
			return
		}
		if !e.RunOn(tf - 1) {
			t.Fatal("RunOn before the far event's instant refused")
		}
		if e.RunOn(tf) || e.RunOn(tf+1) {
			t.Fatal("RunOn ran on to or past a queued far event")
		}
		trace = append(trace, fmt.Sprintf("ran-on@%d", e.Now()))
		e.AtEvent(tf, &ev)
	}
	e.AtEvent(0, &ev)
	n := e.Run(0)
	want := []string{fmt.Sprintf("ran-on@%d", tf-1), fmt.Sprintf("far@%d", tf), fmt.Sprintf("continued@%d", tf)}
	if fmt.Sprint(trace) != fmt.Sprint(want) || n != 3 {
		t.Fatalf("trace = %v after %d pops, want %v after 3", trace, n, want)
	}
}

func TestNewEngineCap(t *testing.T) {
	e := NewEngineCap(1024)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(Time(i%10)*NS, func() { got = append(got, i) })
	}
	e.Run(0)
	if len(got) != 100 {
		t.Fatalf("ran %d events, want 100", len(got))
	}
	// Same-instant events stay FIFO; instants run in time order.
	for i := 1; i < len(got); i++ {
		if got[i]%10 == got[i-1]%10 && got[i] < got[i-1] {
			t.Fatalf("same-instant FIFO violated: %v", got)
		}
	}
}

func TestAtArgAndAtEvent(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(a any) { got = append(got, *a.(*int)) }
	one, two, three := 1, 2, 3
	ev := Event{Fn: record, Arg: &three}
	e.AtArg(20*NS, record, &two)
	e.AfterArg(10*NS, record, &one)
	e.AtEvent(30*NS, &ev)
	e.AtEvent(40*NS, &ev) // records reschedule freely
	e.Run(0)
	want := []int{1, 2, 3, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestParkWake exercises the single-waiter blocking idiom the blocking
// cache wrappers use: the thread parks in a predicate loop and the
// completion callback wakes it directly.
func TestParkWake(t *testing.T) {
	e := NewEngine()
	done := false
	var wokeAt Time
	th := e.Go("waiter", func(th *Thread) {
		for !done {
			th.Park()
		}
		wokeAt = th.Now()
	})
	e.At(30*NS, func() {
		done = true
		th.Wake()
	})
	e.Run(0)
	if wokeAt != 30*NS {
		t.Fatalf("woke at %v, want 30ns", wokeAt)
	}
	if e.LiveThreads() != 0 {
		t.Fatalf("live threads = %d, want 0", e.LiveThreads())
	}
}

// TestWakeOfFinishedThreadDropped pins that Wake is a no-op on a thread
// whose function has returned: no dispatch is scheduled, nothing panics.
func TestWakeOfFinishedThreadDropped(t *testing.T) {
	e := NewEngine()
	var trace []Time
	th := e.Go("sleeper", func(th *Thread) {
		th.Sleep(50 * NS)
		trace = append(trace, th.Now())
	})
	e.At(60*NS, func() { th.Wake() })
	e.Run(0)
	if len(trace) != 1 || trace[0] != 50*NS {
		t.Fatalf("trace = %v, want [50ns]", trace)
	}
	if e.LiveThreads() != 0 {
		t.Fatalf("live threads = %d", e.LiveThreads())
	}
}

// TestRunOnFromCallback: a callback that must continue at tm goes on in
// place when nothing is queued at or before tm, and otherwise schedules
// its continuation; Run counts only queue pops.
func TestRunOnFromCallback(t *testing.T) {
	e := NewEngine()
	var trace []string
	var ev Event
	step := 0
	ev.Fn = func(any) {
		for ; step < 3; step++ {
			trace = append(trace, fmt.Sprintf("step%d@%v", step, e.Now()))
			if tm := e.Now() + 10*NS; !e.RunOn(tm) {
				step++
				e.AtEvent(tm, &ev)
				return
			}
		}
	}
	e.AtEvent(0, &ev)
	e.At(15*NS, func() { trace = append(trace, fmt.Sprintf("other@%v", e.Now())) })
	n := e.Run(0)
	want := []string{"step0@0ps", "step1@10.000ns", "other@15.000ns", "step2@20.000ns"}
	if fmt.Sprint(trace) != fmt.Sprint(want) || n != 3 {
		t.Fatalf("trace = %v after %d pops, want %v after 3", trace, n, want)
	}
	if e.Now() != 30*NS {
		t.Fatalf("clock ran on to %v, want 30ns", e.Now())
	}
}

func TestCondBroadcastAt(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var woke []Time
	for i := 0; i < 3; i++ {
		e.Go("w", func(th *Thread) {
			c.Wait(th)
			woke = append(woke, th.Now())
		})
	}
	c.BroadcastAt(25 * NS)
	e.Run(0)
	if len(woke) != 3 {
		t.Fatalf("woke %d threads, want 3", len(woke))
	}
	for _, at := range woke {
		if at != 25*NS {
			t.Fatalf("woke at %v, want 25ns", at)
		}
	}
	if e.LiveThreads() != 0 {
		t.Fatal("threads leaked")
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.At(1*NS, func() { ran++; e.Stop() })
	e.At(2*NS, func() { ran++ })
	e.Run(0)
	if ran != 1 {
		t.Fatalf("Stop did not halt the engine: ran=%d", ran)
	}
}

func TestClockEdges(t *testing.T) {
	c := NewClock("fast", 1000) // 1 GHz
	cases := []struct {
		at   Time
		next Time
	}{
		{0, 0}, {1, 1000}, {999, 1000}, {1000, 1000}, {1001, 2000},
	}
	for _, cse := range cases {
		if got := c.NextEdge(cse.at); got != cse.next {
			t.Errorf("NextEdge(%d) = %d, want %d", cse.at, got, cse.next)
		}
	}
	if c.EdgeAfter(1000) != 2000 {
		t.Errorf("EdgeAfter(1000) = %d", c.EdgeAfter(1000))
	}
	if c.EdgeAfter(1) != 1000 {
		t.Errorf("EdgeAfter(1) = %d", c.EdgeAfter(1))
	}
	if c.EdgesAfter(0, 3) != 3000 {
		t.Errorf("EdgesAfter(0,3) = %d", c.EdgesAfter(0, 3))
	}
}

func TestClockMHz(t *testing.T) {
	c := ClockMHz("efpga", 100)
	if c.Period != 10000 {
		t.Fatalf("100MHz period = %dps, want 10000", c.Period)
	}
	if f := c.FreqMHz(); f < 99.9 || f > 100.1 {
		t.Fatalf("FreqMHz = %f", f)
	}
	c2 := ClockMHz("odd", 282)
	if f := c2.FreqMHz(); f < 281 || f > 283 {
		t.Fatalf("282MHz round-trip = %f", f)
	}
}

func TestClockPhase(t *testing.T) {
	c := &Clock{Name: "p", Period: 1000, Phase: 300}
	if c.NextEdge(0) != 300 {
		t.Fatalf("NextEdge(0) = %d", c.NextEdge(0))
	}
	if c.NextEdge(301) != 1300 {
		t.Fatalf("NextEdge(301) = %d", c.NextEdge(301))
	}
	if c.EdgeAt(2) != 2300 {
		t.Fatalf("EdgeAt(2) = %d", c.EdgeAt(2))
	}
}

// Property: NextEdge always returns an edge (multiple of period plus phase)
// that is >= the query time and < query + period.
func TestClockNextEdgeProperty(t *testing.T) {
	f := func(periodRaw uint16, atRaw uint32) bool {
		period := Time(periodRaw%5000) + 1
		c := NewClock("q", period)
		at := Time(atRaw % 1000000)
		e := c.NextEdge(at)
		if e < at || e >= at+period {
			return false
		}
		return e%period == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestThreadBasic(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Go("worker", func(th *Thread) {
		trace = append(trace, th.Now())
		th.Sleep(5 * NS)
		trace = append(trace, th.Now())
		th.Sleep(10 * NS)
		trace = append(trace, th.Now())
	})
	e.Run(0)
	want := []Time{0, 5 * NS, 15 * NS}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if e.LiveThreads() != 0 {
		t.Fatalf("live threads = %d", e.LiveThreads())
	}
}

func TestThreadInterleavingDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 4; i++ {
			name := string(rune('a' + i))
			d := Time(i+1) * NS
			e.Go(name, func(th *Thread) {
				for k := 0; k < 3; k++ {
					th.Sleep(d)
					log = append(log, name)
				}
			})
		}
		e.Run(0)
		return log
	}
	// Threads waking at one instant run in the order their wakeups were
	// scheduled: at 2ns b (scheduled at 0) precedes a (scheduled at 1ns).
	want := []string{"a", "b", "a", "c", "a", "d", "b", "c", "b", "d", "c", "d"}
	for trial := 0; trial < 5; trial++ {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("trial %d: interleaving = %q, want %q", trial, got, want)
		}
	}
}

func TestThreadSleepCycles(t *testing.T) {
	e := NewEngine()
	clk := NewClock("c", 10*NS)
	var at Time
	e.Go("t", func(th *Thread) {
		th.Sleep(3 * NS) // now at 3ns, mid-cycle
		th.SleepCycles(clk, 2)
		at = th.Now()
	})
	e.Run(0)
	// Edges at 0,10,20,...; 2 edges strictly after 3ns -> 20ns.
	if at != 20*NS {
		t.Fatalf("SleepCycles landed at %v, want 20ns", at)
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var woke []string
	for _, n := range []string{"x", "y", "z"} {
		n := n
		e.Go(n, func(th *Thread) {
			c.Wait(th)
			woke = append(woke, n)
		})
	}
	e.At(10*NS, func() { c.Signal() })
	e.At(20*NS, func() { c.Broadcast() })
	e.Run(0)
	if len(woke) != 3 || woke[0] != "x" {
		t.Fatalf("woke = %v", woke)
	}
	if e.LiveThreads() != 0 {
		t.Fatalf("threads leaked")
	}
}

func TestCondFIFOOrder(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	var woke []int
	for i := 0; i < 8; i++ {
		i := i
		e.Go("w", func(th *Thread) {
			c.Wait(th)
			woke = append(woke, i)
		})
	}
	e.At(1*NS, func() {
		for i := 0; i < 8; i++ {
			c.Signal()
		}
	})
	e.Run(0)
	for i := range woke {
		if woke[i] != i {
			t.Fatalf("wake order = %v", woke)
		}
	}
}

func TestDeadlockedThreadDetectable(t *testing.T) {
	e := NewEngine()
	c := NewCond(e)
	e.Go("stuck", func(th *Thread) { c.Wait(th) })
	e.Run(0)
	if e.LiveThreads() != 1 {
		t.Fatalf("expected 1 live (deadlocked) thread, got %d", e.LiveThreads())
	}
	// Wake it so the thread finishes.
	c.Broadcast()
	e.Run(0)
	if e.LiveThreads() != 0 {
		t.Fatal("thread did not drain")
	}
}

func TestCloseReleasesParkedThreads(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	c := NewCond(e)
	unwound := false
	stuck := e.Go("stuck", func(th *Thread) {
		defer func() { unwound = true }()
		for {
			c.Wait(th) // never signalled
		}
	})
	brief := func(th *Thread) { th.Sleep(NS) }
	for i := 0; i < 3; i++ {
		e.Go("brief", brief)
	}
	e.Run(0)
	// RunBefore keeps the finished threads' workers pooled and idle.
	for i := 0; i < 3; i++ {
		e.Go("brief", brief)
	}
	e.RunBefore(e.Now() + 10*NS)
	ran := false
	late := e.Go("late", func(*Thread) { ran = true }) // takes a pooled worker
	if e.LiveThreads() != 2 || len(e.pool) != 2 {
		t.Fatalf("before Close: live threads %d, idle workers %d; want 2 and 2", e.LiveThreads(), len(e.pool))
	}

	e.Close()
	if !unwound || !stuck.Done() {
		t.Fatalf("parked thread not unwound: deferred call ran %v, done %v", unwound, stuck.Done())
	}
	if ran || !late.Done() {
		t.Fatalf("undispatched thread: ran %v, done %v; want false, true", ran, late.Done())
	}
	if e.LiveThreads() != 0 {
		t.Fatalf("live threads after Close = %d", e.LiveThreads())
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the engine, %d after Close", before, after)
	}
	e.Run(0) // the late thread's queued wakeup is dropped
	e.Close()
}

func TestThreadPanicReachesRun(t *testing.T) {
	boom := errors.New("boom")
	e := NewEngine()
	defer e.Close()
	e.Go("fine", func(th *Thread) { th.Sleep(5 * NS) })
	e.Go("bad", func(th *Thread) {
		th.Sleep(NS)
		panic(boom)
	})
	defer func() {
		if r := recover(); r != boom {
			t.Fatalf("Run panicked with %v, want %v", r, boom)
		}
	}()
	e.Run(0)
	t.Fatal("Run returned despite the thread panic")
}

func TestTXBreakdown(t *testing.T) {
	tx := new(TX)
	tx.Add(CatNoC, 10*NS)
	tx.Add(CatFast, 5*NS)
	tx.Add(CatFast, 2*NS)
	tx.Add(CatCDC, 0)    // ignored
	tx.Add(CatSlow, -NS) // ignored
	want := [NumCategories]Time{CatNoC: 10 * NS, CatFast: 7 * NS}
	if tx.Parts != want {
		t.Fatalf("parts = %v, want %v", tx.Parts, want)
	}
	// nil-safety
	var nilTX *TX
	nilTX.Add(CatSlow, NS)
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		500:       "500ps",
		1500:      "1.500ns",
		2500 * NS: "2.500us",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}
