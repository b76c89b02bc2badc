package cdc

import (
	"testing"

	"duet/internal/sim"
)

// TestPusherPreservesOrderUnderBackpressure fills a tiny FIFO, keeps
// pushing through the Pusher, and verifies the reader sees strict FIFO
// order — the property a naive retry loop violates.
func TestPusherPreservesOrderUnderBackpressure(t *testing.T) {
	eng := sim.NewEngine()
	fast := sim.NewClock("fast", 1000)
	slow := sim.NewClock("slow", 10000)
	f := NewFifo[int](eng, "p", fast, slow, 2, 2)
	p := NewPusher(eng, f)

	const n = 30
	eng.At(0, func() {
		for i := 0; i < n; i++ {
			p.Push(i, nil)
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

// TestPusherInterleavedProducers: pushes from different engine events keep
// their global submission order.
func TestPusherInterleavedProducers(t *testing.T) {
	eng := sim.NewEngine()
	fast := sim.NewClock("fast", 1000)
	f := NewFifo[int](eng, "p2", fast, fast, 1, 2)
	p := NewPusher(eng, f)
	want := []int{}
	for i := 0; i < 12; i++ {
		i := i
		want = append(want, i)
		eng.At(sim.Time(i)*500, func() { p.Push(i, nil) })
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
	if p.Backlog() != 0 {
		t.Fatalf("backlog = %d", p.Backlog())
	}
}
