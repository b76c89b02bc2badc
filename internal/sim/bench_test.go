package sim

import "testing"

// BenchmarkEngineSchedule measures the bare schedule-and-run path: a wave
// of events over a handful of near-future timestamps, drained to empty.
// The acceptance bar is 0 allocs/op — the queue stores events by value and
// reuses its buckets, so steady state never touches the heap allocator.
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngineCap(1024)
	fn := func() {}
	warm := func() {
		for k := 0; k < 256; k++ {
			e.At(e.Now()+Time(k%8)*NS, fn)
		}
		e.Run(0)
	}
	warm() // reach steady state before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 256; k++ {
			e.At(e.Now()+Time(k%8)*NS, fn)
		}
		e.Run(0)
	}
	b.ReportMetric(256, "events/op")
}

// BenchmarkEngineClockTicks models the kernel's dominant production load:
// many clocked components rescheduling themselves edge to edge on two
// clock domains, so almost every enqueue lands in an existing clock-edge
// bucket (the calendar fast path).
func BenchmarkEngineClockTicks(b *testing.B) {
	const components = 32
	e := NewEngineCap(components)
	fast := NewClock("fast", 1400)  // ~714 MHz processor domain
	slow := NewClock("slow", 10000) // 100 MHz eFPGA domain
	ticks := 0
	budget := 0
	var fns [components]func()
	for i := 0; i < components; i++ {
		clk := fast
		if i%4 == 0 {
			clk = slow
		}
		c := clk
		var self func()
		self = func() {
			ticks++
			if ticks < budget {
				e.At(c.EdgeAfter(e.Now()), self)
			}
		}
		fns[i] = self
	}
	prime := func(n int) {
		ticks, budget = 0, n
		for _, fn := range fns {
			e.At(e.Now(), fn)
		}
		e.Run(0)
	}
	prime(components) // steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prime(1024)
	}
	b.ReportMetric(1024, "ticks/op")
}

// BenchmarkThreadPingPong measures the thread wakeup path: two coroutine
// threads handing control back and forth through a pair of conditions.
// Each round trip is two parks, two wakeup events, and four coroutine
// switches; it must not allocate (only each op's engine and thread set-up
// does).
func BenchmarkThreadPingPong(b *testing.B) {
	const rounds = 512
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		ping, pong := NewCond(e), NewCond(e)
		turn := 0
		e.Go("ping", func(t *Thread) {
			for k := 0; k < rounds; k++ {
				for turn != 0 {
					ping.Wait(t)
				}
				turn = 1
				pong.Signal()
			}
		})
		e.Go("pong", func(t *Thread) {
			for k := 0; k < rounds; k++ {
				for turn != 1 {
					pong.Wait(t)
				}
				turn = 0
				ping.Signal()
			}
		})
		e.Run(0)
	}
	b.ReportMetric(rounds, "roundtrips/op")
}

// BenchmarkEngineSameInstantBurst measures the O(1) same-instant path:
// bursts of events all landing on one timestamp (the shape Cond.Broadcast
// and back-to-back NoC ejections produce).
func BenchmarkEngineSameInstantBurst(b *testing.B) {
	e := NewEngineCap(512)
	fn := func() {}
	burst := func() {
		at := e.Now() + NS
		for k := 0; k < 256; k++ {
			e.At(at, fn)
		}
		e.Run(0)
	}
	burst()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		burst()
	}
	b.ReportMetric(256, "events/op")
}
