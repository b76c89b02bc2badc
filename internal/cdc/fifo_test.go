package cdc

import (
	"fmt"
	"testing"
	"testing/quick"

	"duet/internal/sim"
)

func clocks() (*sim.Clock, *sim.Clock) {
	fast := sim.NewClock("fast", 1000)  // 1 GHz
	slow := sim.NewClock("slow", 10000) // 100 MHz
	return fast, slow
}

func TestFifoVisibilityLatencyFastToSlow(t *testing.T) {
	eng := sim.NewEngine()
	fast, slow := clocks()
	f := NewFifo[int](eng, "f2s", fast, slow, 8, 2)

	var poppedAt sim.Time
	var got int
	eng.Go("reader", func(th *sim.Thread) {
		got, _ = f.PopBlocking(th)
		poppedAt = th.Now()
	})
	eng.At(0, func() {
		f.Push(42, nil)
		if f.n != 1 {
			t.Error("push into an empty fifo did not commit at once")
		}
	})
	eng.Run(0)
	if got != 42 {
		t.Fatalf("popped %v, want 42", got)
	}
	// Written at fast edge 0; visible at the 2nd slow edge strictly after 0
	// = 20000ps.
	if poppedAt != 20000 {
		t.Fatalf("popped at %v, want 20ns (2 slow edges)", poppedAt)
	}
}

func TestFifoVisibilityLatencySlowToFast(t *testing.T) {
	eng := sim.NewEngine()
	fast, slow := clocks()
	f := NewFifo[string](eng, "s2f", slow, fast, 8, 2)
	var poppedAt sim.Time
	eng.Go("reader", func(th *sim.Thread) {
		f.PopBlocking(th)
		poppedAt = th.Now()
	})
	eng.At(3000, func() {
		// Writer is slow: commit lands on next slow edge = 10000.
		f.Push("x", nil)
	})
	eng.Run(0)
	// Visible at 2 fast edges strictly after 10000 = 12000ps.
	if poppedAt != 12000 {
		t.Fatalf("popped at %v, want 12ns", poppedAt)
	}
}

func TestFifoOrderPreserved(t *testing.T) {
	eng := sim.NewEngine()
	fast, slow := clocks()
	f := NewFifo[int](eng, "ord", fast, slow, 4, 2)
	var got []int
	eng.Go("writer", func(th *sim.Thread) {
		for i := 0; i < 20; i++ {
			f.Push(i, nil)
			th.SleepCycles(fast, 1)
		}
	})
	eng.Go("reader", func(th *sim.Thread) {
		for i := 0; i < 20; i++ {
			v, _ := f.PopBlocking(th)
			got = append(got, v)
			th.SleepCycles(slow, 1)
		}
	})
	eng.Run(0)
	if len(got) != 20 {
		t.Fatalf("got %d entries", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated: %v", got)
		}
	}
}

func TestFifoCapacityBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	fast, slow := clocks()
	f := NewFifo[int](eng, "bp", fast, slow, 2, 2)
	eng.At(0, func() {
		for i := 0; i < 11; i++ {
			f.Push(i, nil)
		}
	})
	// With no reader no credit returns, so the writer retries forever:
	// run a while and look.
	eng.RunBefore(sim.US)
	if f.n != 2 || f.waiting() != 9 {
		t.Fatalf("committed %d (waiting %d) of 11 pushes into depth-2 fifo with no reader", f.n, f.waiting())
	}
}

func TestFifoCreditReturnDelay(t *testing.T) {
	eng := sim.NewEngine()
	fast, slow := clocks()
	f := NewFifo[int](eng, "credit", fast, slow, 1, 2)
	eng.At(0, func() {
		f.Push(1, nil)
		f.Push(2, nil) // must wait for pop + credit return
	})
	var popAt, secondPushAt sim.Time
	eng.Go("reader", func(th *sim.Thread) {
		f.PopBlocking(th)
		popAt = th.Now()
		secondPushAt = f.popEntry(th).writtenAt
	})
	eng.Run(0)
	if popAt != 20000 {
		t.Fatalf("pop at %v", popAt)
	}
	// Free slot visible to writer 2 fast edges strictly after the slow read
	// edge (20000) = 22000.
	if secondPushAt != 22000 {
		t.Fatalf("second push at %v, want 22ns", secondPushAt)
	}
}

func TestFifoTXAttribution(t *testing.T) {
	eng := sim.NewEngine()
	fast, slow := clocks()
	f := NewFifo[string](eng, "tx", fast, slow, 8, 2)
	tx := new(sim.TX)
	eng.At(0, func() { f.Push("p", tx) })
	eng.Go("r", func(th *sim.Thread) { f.PopBlocking(th) })
	eng.Run(0)
	if tx.Parts[sim.CatCDC] != 20000 {
		t.Fatalf("CDC attribution = %v, want 20ns", tx.Parts[sim.CatCDC])
	}
}

func TestFifoSameClockDomain(t *testing.T) {
	// Degenerate but legal: both sides on the same clock. Latency is still
	// 2 cycles (synchronizer flops), as in real designs that keep the async
	// FIFO for timing closure.
	eng := sim.NewEngine()
	fast, _ := clocks()
	f := NewFifo[int](eng, "same", fast, fast, 8, 2)
	var at sim.Time
	eng.Go("r", func(th *sim.Thread) {
		f.PopBlocking(th)
		at = th.Now()
	})
	eng.At(0, func() { f.Push(1, nil) })
	eng.Run(0)
	if at != 2000 {
		t.Fatalf("same-domain latency %v, want 2ns", at)
	}
}

// Property: for random clock periods and push times, entries pop in order,
// none are lost or duplicated, and every entry becomes visible at the
// stages-th reader edge strictly after its write edge: more than
// (stages-1) and at most stages reader periods later.
func TestFifoProperty(t *testing.T) {
	f := func(wp, rp uint16, seed uint8) bool {
		wper := sim.Time(wp%9000) + 500
		rper := sim.Time(rp%9000) + 500
		eng := sim.NewEngine()
		wclk := sim.NewClock("w", wper)
		rclk := sim.NewClock("r", rper)
		fifo := NewFifo[int](eng, "p", wclk, rclk, 4, 2)
		const n = 25
		var got []int
		delayOK := true
		eng.Go("writer", func(th *sim.Thread) {
			for i := 0; i < n; i++ {
				fifo.Push(i, nil)
				th.SleepCycles(wclk, int64(seed%3)+1)
			}
		})
		eng.Go("reader", func(th *sim.Thread) {
			for i := 0; i < n; i++ {
				e := fifo.popEntry(th)
				got = append(got, e.payload)
				if d := e.visibleAt - e.writtenAt; d <= rper || d > 2*rper {
					delayOK = false
				}
				th.SleepCycles(rclk, int64(seed%2)+1)
			}
		})
		eng.Run(0)
		if len(got) != n || !delayOK {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return eng.LiveThreads() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestFifoDrainMatchesBlockingPop: a Drain consumer pops every entry at
// the instant, and in the order, a thread looping on a blocking pop
// would, under backpressure and across both crossing directions.
func TestFifoDrainMatchesBlockingPop(t *testing.T) {
	type pop struct {
		v  int
		at sim.Time
	}
	run := func(drain bool, wclk, rclk *sim.Clock) []pop {
		eng := sim.NewEngine()
		f := NewFifo[int](eng, "drain", wclk, rclk, 2, 2)
		var got []pop
		if drain {
			f.Drain(func(v int, _ *sim.TX) { got = append(got, pop{v, eng.Now()}) })
		} else {
			eng.Go("reader", func(th *sim.Thread) {
				for {
					v, _ := f.PopBlocking(th)
					got = append(got, pop{v, th.Now()})
				}
			})
		}
		for i := 0; i < 12; i++ {
			eng.At(sim.Time(i/3)*7000, func() { f.Push(i, nil) })
		}
		eng.Run(0)
		eng.Close()
		return got
	}
	fast, slow := clocks()
	for _, dir := range [][2]*sim.Clock{{fast, slow}, {slow, fast}} {
		want, got := run(false, dir[0], dir[1]), run(true, dir[0], dir[1])
		if len(want) != 12 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s->%s: Drain popped %v, a blocking reader %v", dir[0].Name, dir[1].Name, got, want)
		}
	}
}

// TestFifoPushPreservesOrderUnderBackpressure fills a tiny FIFO, keeps
// pushing, and verifies the reader sees strict FIFO order — the property
// a naive retry loop violates.
func TestFifoPushPreservesOrderUnderBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	fast, slow := clocks()
	f := NewFifo[int](eng, "p", fast, slow, 2, 2)

	const n = 30
	eng.At(0, func() {
		for i := 0; i < n; i++ {
			f.Push(i, nil)
		}
	})
	var got []int
	eng.Go("reader", func(th *sim.Thread) {
		for i := 0; i < n; i++ {
			v, _ := f.PopBlocking(th)
			got = append(got, v)
			th.SleepCycles(slow, 2)
		}
	})
	eng.Run(0)
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: %v", i, got)
		}
	}
}

// TestFifoPushInterleavedProducers: pushes from different engine events
// keep their global submission order.
func TestFifoPushInterleavedProducers(t *testing.T) {
	eng := sim.NewEngine()
	fast, _ := clocks()
	f := NewFifo[int](eng, "p2", fast, fast, 1, 2)
	want := []int{}
	for i := 0; i < 12; i++ {
		want = append(want, i)
		eng.At(sim.Time(i)*500, func() { f.Push(i, nil) })
	}
	var got []int
	eng.Go("reader", func(th *sim.Thread) {
		for range want {
			v, _ := f.PopBlocking(th)
			got = append(got, v)
		}
	})
	eng.Run(0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
	if f.waiting() != 0 {
		t.Fatalf("%d entries still waiting", f.waiting())
	}
}

// TestFifoCrossingCost pins what a crossing costs in queue pops, counted
// by Engine.Run: an entry pushed into a FIFO with room and taken by a
// Drain consumer costs two (its visibility broadcast and the consumer's
// wake), and a push blocked by a full FIFO costs one retry per writer
// edge until the first edge at which its credit has returned, where it
// commits. The blocked case is TestFifoCreditReturnDelay's: a depth-1
// FIFO into the 10 ns domain, whose reader pops the first entry at
// 20 ns; its credit returns two writer edges later.
func TestFifoCrossingCost(t *testing.T) {
	fast, slow := clocks()
	t.Run("free", func(t *testing.T) {
		eng := sim.NewEngine()
		f := NewFifo[int](eng, "cost", fast, slow, 8, 2)
		var got []int
		f.Drain(func(v int, _ *sim.TX) { got = append(got, v) })
		eng.Run(0) // the consumer's first wake finds nothing and waits
		f.Push(7, nil)
		if n := eng.Run(0); n != 2 || len(got) != 1 {
			t.Fatalf("one crossing took %d queue pops and delivered %v, want 2 pops and [7]", n, got)
		}
	})
	for _, c := range []struct {
		name    string
		writer  *sim.Clock
		commit  sim.Time // the first writer edge with the credit back
		retries int      // writer edges in (0, commit]
	}{
		{"fast writer", fast, 22 * sim.NS, 22},
		{"slow writer", sim.NewClock("slower", 25000), 50 * sim.NS, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine()
			f := NewFifo[int](eng, "credit", c.writer, slow, 1, 2)
			type pop struct {
				v      int
				at     sim.Time
				commit sim.Time
			}
			var got []pop
			f.Drain(func(v int, tx *sim.TX) {
				// A Drain consumer pops at the entry's visibility, so the
				// commit edge is the CDC charge before it.
				got = append(got, pop{v, eng.Now(), eng.Now() - tx.Parts[sim.CatCDC]})
			})
			eng.At(0, func() {
				f.Push(1, new(sim.TX))
				f.Push(2, new(sim.TX))
			})
			n := eng.Run(0)
			want := []pop{
				{1, 20 * sim.NS, 0},
				{2, slow.EdgesAfter(c.commit, 2), c.commit},
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("pops %v, want %v", got, want)
			}
			// The push callback, the consumer's first wake, two pops per
			// crossing and the retries.
			if wantN := 1 + 1 + 2*2 + c.retries; n != wantN {
				t.Fatalf("%d queue pops, want %d (%d retries)", n, wantN, c.retries)
			}
		})
	}
}
