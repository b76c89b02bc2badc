package coherence

import (
	"fmt"
	"testing"

	"duet/internal/params"
	"duet/internal/sim"
)

// TestL3VictimBusyRetry: a miss whose only L3 victim is mid-transaction
// (a forwarded load waiting on the owner's downgrade ack) retries each
// cycle until the victim line goes idle, then evicts it. Lines x and y
// both live at home tile 3 and share the one-way, one-set L3.
func TestL3VictimBusyRetry(t *testing.T) {
	const x, y = 0x1030, 0x1070
	r := newRig(t, 2)
	r.dom.shrinkL3(params.LineBytes, 1)
	r.eng.Go("owner", func(th *sim.Thread) {
		r.caches[0].Store(th, x, le64(11), nil)
	})
	r.settle(t)
	var xv, yv uint64
	var xAt, yAt sim.Time
	r.eng.Go("x", func(th *sim.Thread) {
		xv = Uint64At(r.caches[1].Load(th, x, 8, nil))
		xAt = th.Now()
	})
	r.eng.Go("y", func(th *sim.Thread) {
		th.Sleep(sim.NS)
		yv = Uint64At(r.caches[0].Load(th, y, 8, nil))
		yAt = th.Now()
	})
	r.settle(t)
	got := fmt.Sprintf("%d %d %d %d %s %s", xv, xAt, yv, yAt, StateName(r.caches[0].State(x)), StateName(r.caches[1].State(x)))
	if want := "11 166000 0 283000 I I"; got != want {
		t.Fatalf("x, done, y, done, x's states = %s, want %s", got, want)
	}
}

// TestL3VictimRestartsQueuedWork: the owner's write-back of an L3 victim
// races the home's back-invalidation of it. The write-back queues behind
// the eviction, whose end restarts the victim line's worker to answer it
// (stale: the line has left the directory).
func TestL3VictimRestartsQueuedWork(t *testing.T) {
	// x and y share an L3 set of a one-way L3 with 1024 sets; the four
	// lines the evictor stores alias x in its L2 set, but not in the L3.
	const x, y = 0x1030, 0x1030 + 1024*params.LineBytes
	r := newRig(t, 2)
	r.dom.shrinkL3(1024*params.LineBytes, 1)
	r.eng.Go("owner", func(th *sim.Thread) {
		r.caches[0].Store(th, x, le64(21), nil)
	})
	r.settle(t)
	var yv uint64
	var evAt, yAt sim.Time
	r.eng.Go("evictor", func(th *sim.Thread) {
		for k := uint64(1); k <= 4; k++ {
			r.caches[0].Store(th, x+k*params.L2Bytes/params.L2Ways, le64(k), nil)
		}
		evAt = th.Now()
	})
	r.eng.Go("y", func(th *sim.Thread) {
		th.Sleep(468 * sim.NS)
		yv = Uint64At(r.caches[1].Load(th, y, 8, nil))
		yAt = th.Now()
	})
	r.settle(t)
	var xv uint64
	r.eng.Go("x", func(th *sim.Thread) { xv = Uint64At(r.caches[1].Load(th, x, 8, nil)) })
	r.settle(t)
	got := fmt.Sprintf("%d %d %d %d", evAt, yv, yAt, xv)
	for k := uint64(0); k <= 4; k++ {
		got += " " + StateName(r.caches[0].State(x+k*params.L2Bytes/params.L2Ways))
	}
	if want := "605000 0 724000 21 I M M M M"; got != want {
		t.Fatalf("evictor done, y, done, x, the L2 set's states = %s, want %s", got, want)
	}
}

// TestL3ConcurrentFillsOfOneSet: misses to two lines of one L3 set that
// are in flight together both pick the set's first invalid way. The
// second fill finds it taken when its DRAM data arrives and picks a
// victim again, evicting the first line if the set has no other way.
func TestL3ConcurrentFillsOfOneSet(t *testing.T) {
	// Lines 64 KB apart share a home (4 homes) and an L3 set (1024 sets).
	const a, b = 0x100000, 0x100000 + 64*1024
	for _, ways := range []int{params.L3Ways, 1} {
		r := newRig(t, 2)
		if ways == 1 {
			r.dom.shrinkL3(1024*params.LineBytes, 1)
		}
		r.dom.DRAM.Write64(a, 1)
		r.dom.DRAM.Write64(b, 2)
		var av, bv uint64
		r.eng.Go("a", func(th *sim.Thread) { av = Uint64At(r.caches[0].Load(th, a, 8, nil)) })
		r.eng.Go("b", func(th *sim.Thread) { bv = Uint64At(r.caches[1].Load(th, b, 8, nil)) })
		r.settle(t)
		if av != 1 || bv != 2 {
			t.Fatalf("%d-way L3: loaded %d and %d, want 1 and 2", ways, av, bv)
		}
	}
}
