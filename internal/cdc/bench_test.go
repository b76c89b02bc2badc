package cdc

import (
	"testing"

	"duet/internal/sim"
)

// BenchmarkCDCCrossing measures one entry's crossing from the fast into
// the slow clock domain: an ordered push at a writer edge, the
// synchronizer's visibility wakeup, and a Drain consumer's pop, which
// returns the credit. The acceptance bar is 0 allocs/op — the ring and
// the calendar's buckets are all reused.
func BenchmarkCDCCrossing(b *testing.B) {
	eng := sim.NewEngine()
	fast, slow := clocks()
	f := NewFifo[uint64](eng, "bench", fast, slow, 8, 2)
	var popped uint64
	f.Drain(func(uint64, *sim.TX) { popped++ })
	cross := func(i int) {
		f.Push(uint64(i), nil)
		eng.Run(0)
	}
	cross(0) // reach steady state before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cross(i)
	}
	b.StopTimer()
	if popped != uint64(b.N)+1 {
		b.Fatalf("popped %d of %d entries", popped, b.N+1)
	}
}

// BenchmarkCDCBackpressure measures a burst of 4×depth entries pushed at
// one instant into a depth-8 fast-to-slow FIFO and drained: most of the
// burst waits behind the full FIFO and commits, in order, at the writer
// edges where credits return. Once the ring has grown to hold a burst,
// the acceptance bar is 0 allocs/op.
func BenchmarkCDCBackpressure(b *testing.B) {
	const depth, burst = 8, 4 * 8
	eng := sim.NewEngine()
	fast, slow := clocks()
	f := NewFifo[uint64](eng, "bench", fast, slow, depth, 2)
	var popped uint64
	f.Drain(func(uint64, *sim.TX) { popped++ })
	flood := func() {
		for i := 0; i < burst; i++ {
			f.Push(uint64(i), nil)
		}
		eng.Run(0)
	}
	flood() // grow the ring before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flood()
	}
	b.StopTimer()
	if popped != uint64(b.N+1)*burst {
		b.Fatalf("popped %d of %d entries", popped, (b.N+1)*burst)
	}
}
