package cdc

import (
	"testing"

	"duet/internal/sim"
)

// BenchmarkCDCCrossing measures one entry's crossing from the fast into
// the slow clock domain: an ordered push at a writer edge, the
// synchronizer's visibility wakeup, and a Drain consumer's pop, with the
// credit return behind it. The acceptance bar is 0 allocs/op — the ring,
// the pusher and the calendar's buckets are all reused.
func BenchmarkCDCCrossing(b *testing.B) {
	eng := sim.NewEngine()
	fast, slow := clocks()
	f := NewFifo[uint64](eng, "bench", fast, slow, 8, 2)
	p := NewPusher(eng, f)
	var sum uint64
	f.Drain(func(v uint64, _ *sim.TX) { sum += v })
	cross := func(i int) {
		p.Push(uint64(i), nil)
		eng.Run(0)
	}
	cross(0) // reach steady state before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cross(i)
	}
	b.StopTimer()
	if f.Popped != uint64(b.N)+1 {
		b.Fatalf("popped %d of %d entries", f.Popped, b.N+1)
	}
}
