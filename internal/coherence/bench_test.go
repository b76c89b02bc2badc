package coherence

import (
	"encoding/binary"
	"testing"

	"duet/internal/sim"
)

// BenchmarkCoherenceMiss times one round of protocol transactions on a
// two-cache domain: c1's load miss (an E grant from the L3), c0's load
// miss (a downgrade forward to c1, leaving both in S), c0's store (an
// S→M upgrade that invalidates c1) and c1's AMO (a home-side atomic that
// invalidates c0's M copy). The AMO leaves no private copy, so every
// round repeats the same transactions on one L3-resident line. allocs/op
// is the per-transaction allocation count of the coherence path; the two
// load results are the only objects a round must allocate.
func BenchmarkCoherenceMiss(b *testing.B) {
	r := newRig(b, 2)
	c0, c1 := r.caches[0], r.caches[1]
	const addr = 0x8000
	var buf [8]byte
	round := func(th *sim.Thread, i int) {
		c1.Load(th, addr, 8, nil)
		c0.Load(th, addr, 8, nil)
		binary.LittleEndian.PutUint64(buf[:], uint64(i))
		c0.Store(th, addr, buf[:], nil)
		c1.Amo(th, AmoAdd, addr, 8, 1, 0, nil)
	}
	// One warm-up round fills the L3 and the free lists.
	r.eng.Go("warm", func(th *sim.Thread) { round(th, 0) })
	r.eng.Run(0)

	b.ReportAllocs()
	b.ResetTimer()
	r.eng.Go("bench", func(th *sim.Thread) {
		for i := 1; i <= b.N; i++ {
			round(th, i)
		}
	})
	r.eng.Run(0)
	b.StopTimer()
	if !r.dom.Quiet() {
		b.Fatal("domain not quiescent after the rounds")
	}
	if err := CheckCoherence(r.dom); err != nil {
		b.Fatal(err)
	}
	line := r.dom.DebugReadLine(addr)
	if got, want := Uint64At(line[:8]), uint64(b.N+1); got != want {
		b.Fatalf("line holds %d after %d rounds, want %d", got, b.N, want)
	}
}
