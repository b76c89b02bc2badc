package cdc

import (
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
		if !f.TryPush(42, nil) {
			t.Error("push failed on empty fifo")
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
		f.TryPush("x", nil)
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
			f.PushBlocking(th, i, nil)
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
	pushed := 0
	eng.At(0, func() {
		for f.TryPush(pushed, nil) {
			pushed++
			if pushed > 10 {
				break
			}
		}
	})
	eng.Run(0)
	if pushed != 2 {
		t.Fatalf("accepted %d pushes into depth-2 fifo with no reader", pushed)
	}
}

func TestFifoCreditReturnDelay(t *testing.T) {
	eng := sim.NewEngine()
	fast, slow := clocks()
	f := NewFifo[int](eng, "credit", fast, slow, 1, 2)
	var secondPushAt sim.Time
	eng.Go("writer", func(th *sim.Thread) {
		f.PushBlocking(th, 1, nil)
		f.PushBlocking(th, 2, nil) // must wait for pop + credit return
		secondPushAt = th.Now()
	})
	var popAt sim.Time
	eng.Go("reader", func(th *sim.Thread) {
		f.PopBlocking(th)
		popAt = th.Now()
		f.PopBlocking(th)
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
	eng.At(0, func() { f.TryPush("p", tx) })
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
	eng.At(0, func() { f.TryPush(1, nil) })
	eng.Run(0)
	if at != 2000 {
		t.Fatalf("same-domain latency %v, want 2ns", at)
	}
}

// Property: for random clock periods and push times, entries pop in order,
// none are lost or duplicated, and every entry's visibility delay is at
// least stages * readerPeriod relative to its write edge.
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
		eng.Go("writer", func(th *sim.Thread) {
			for i := 0; i < n; i++ {
				fifo.PushBlocking(th, i, nil)
				th.SleepCycles(wclk, int64(seed%3)+1)
			}
		})
		eng.Go("reader", func(th *sim.Thread) {
			for i := 0; i < n; i++ {
				v, _ := fifo.PopBlocking(th)
				got = append(got, v)
				th.SleepCycles(rclk, int64(seed%2)+1)
			}
		})
		eng.Run(0)
		if len(got) != n {
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
