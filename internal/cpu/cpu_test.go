package cpu

import (
	"fmt"
	"testing"

	"duet/internal/coherence"
	"duet/internal/mmio"
	"duet/internal/noc"
	"duet/internal/params"
	"duet/internal/sim"
)

type rig struct {
	eng   *sim.Engine
	mesh  *noc.Mesh
	dom   *coherence.Domain
	cores []*Core
}

func newRig(t testing.TB, n int, route mmio.Router) *rig {
	t.Helper()
	eng := sim.NewEngine()
	clk := sim.NewClock("fast", params.CPUClockPS)
	w, h := 2, 2
	if n > 4 {
		w, h = 4, 4
	}
	mesh := noc.NewMesh(eng, clk, w, h)
	var tiles []int
	for i := 0; i < mesh.Tiles(); i++ {
		tiles = append(tiles, i)
	}
	dom := coherence.NewDomain(eng, mesh, tiles)
	r := &rig{eng: eng, mesh: mesh, dom: dom}
	for i := 0; i < n; i++ {
		r.cores = append(r.cores, New(eng, mesh, dom, i, i%mesh.Tiles(), route))
	}
	return r
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	r.eng.Run(0)
	if !r.dom.Quiet() {
		t.Fatal("domain not quiescent")
	}
	if err := coherence.CheckCoherence(r.dom); err != nil {
		t.Fatalf("coherence: %v", err)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	r := newRig(t, 1, nil)
	var got uint64
	var got32 uint32
	r.cores[0].Run("prog", func(p Proc) {
		p.Store64(0x1000, 0xfeedface)
		p.Store32(0x2000, 77)
		got = p.Load64(0x1000)
		got32 = p.Load32(0x2000)
	})
	r.run(t)
	if got != 0xfeedface || got32 != 77 {
		t.Fatalf("got %#x, %d", got, got32)
	}
}

func TestL1CachesLoads(t *testing.T) {
	r := newRig(t, 1, nil)
	r.cores[0].Run("prog", func(p Proc) {
		p.Load64(0x1000)
		p.Load64(0x1000)
		p.Load64(0x1008) // same line
	})
	r.run(t)
	c := r.cores[0]
	if c.L1Misses != 1 || c.L1Hits != 2 {
		t.Fatalf("L1 hits=%d misses=%d, want 2/1", c.L1Hits, c.L1Misses)
	}
}

func TestCrossCoreVisibility(t *testing.T) {
	r := newRig(t, 2, nil)
	var seen uint64
	r.cores[0].Run("writer", func(p Proc) {
		p.Store64(0x3000, 1)
		p.Exec(100)
		p.Store64(0x3000, 2)
	})
	r.cores[1].Run("reader", func(p Proc) {
		// Warm own copy, then wait for the writer's second store to
		// invalidate it.
		for seen != 2 {
			seen = p.Load64(0x3000)
			p.Exec(10)
		}
	})
	r.run(t)
	if seen != 2 {
		t.Fatalf("reader stuck at %d", seen)
	}
}

func TestL1BackInvalidation(t *testing.T) {
	// Core 1 must not satisfy loads from a stale L1 line after core 0
	// writes: the L2's OnLineLost hook invalidates the L1 copy.
	r := newRig(t, 2, nil)
	order := make(chan int, 2)
	_ = order
	var first, second uint64
	r.cores[1].Run("reader", func(p Proc) {
		first = p.Load64(0x4000) // caches 0 in L1
		p.Exec(3000)
		second = p.Load64(0x4000) // must observe 9 despite the L1
	})
	r.cores[0].Run("writer", func(p Proc) {
		p.Exec(1000)
		p.Store64(0x4000, 9)
	})
	r.run(t)
	if first != 0 || second != 9 {
		t.Fatalf("reads = %d then %d, want 0 then 9", first, second)
	}
}

func TestAtomicsThroughProc(t *testing.T) {
	r := newRig(t, 4, nil)
	for _, c := range r.cores {
		c.Run("inc", func(p Proc) {
			for i := 0; i < 50; i++ {
				p.AmoAdd64(0x5000, 1)
			}
		})
	}
	r.run(t)
	var total uint64
	r.cores[0].Run("read", func(p Proc) { total = p.Load64(0x5000) })
	r.run(t)
	if total != 200 {
		t.Fatalf("counter = %d", total)
	}
}

func TestMCSLockMutualExclusion(t *testing.T) {
	const nCores, iters = 4, 30
	r := newRig(t, nCores, nil)
	const (
		tail    = uint64(0x6000)
		nodes   = uint64(0x6100)
		counter = uint64(0x7000)
		owner   = uint64(0x7008)
	)
	violations := 0
	for i, c := range r.cores {
		i := i
		c.Run("lock", func(p Proc) {
			node := nodes + uint64(i)*MCSNodeBytes
			for k := 0; k < iters; k++ {
				MCSAcquire(p, tail, node)
				// Critical section: non-atomic read-modify-write plus an
				// exclusivity witness.
				if p.Load64(owner) != 0 {
					violations++
				}
				p.Store64(owner, uint64(i+1))
				v := p.Load64(counter)
				p.Exec(20)
				p.Store64(counter, v+1)
				p.Store64(owner, 0)
				MCSRelease(p, tail, node)
			}
		})
	}
	r.run(t)
	if violations != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations)
	}
	var total uint64
	r.cores[0].Run("read", func(p Proc) { total = p.Load64(counter) })
	r.run(t)
	if total != nCores*iters {
		t.Fatalf("counter = %d, want %d (lost updates)", total, nCores*iters)
	}
}

func TestMCSLockContentionCost(t *testing.T) {
	// Lock handoff under contention must cost significantly more than
	// uncontended acquisition — the effect the paper's PDES/BFS baselines
	// suffer from.
	measure := func(nCores int) sim.Time {
		r := newRig(t, nCores, nil)
		const tail, nodes, counter = uint64(0x6000), uint64(0x6100), uint64(0x7000)
		var finish sim.Time
		for i, c := range r.cores {
			i := i
			c.Run("lock", func(p Proc) {
				node := nodes + uint64(i)*MCSNodeBytes
				for k := 0; k < 20; k++ {
					MCSAcquire(p, tail, node)
					v := p.Load64(counter)
					p.Exec(10)
					p.Store64(counter, v+1)
					MCSRelease(p, tail, node)
				}
				if p.Now() > finish {
					finish = p.Now()
				}
			})
		}
		r.run(t)
		return finish
	}
	t1 := measure(1)
	t4 := measure(4)
	if t4 < 2*t1 {
		t.Fatalf("contention too cheap: 1 core %v, 4 cores %v", t1, t4)
	}
	t.Logf("MCS: 1 core %v, 4 cores %v", t1, t4)
}

func TestBarrier(t *testing.T) {
	const nCores = 4
	r := newRig(t, nCores, nil)
	const barrier = uint64(0x8000)
	const log = uint64(0x9000)
	for i, c := range r.cores {
		i := i
		c.Run("bar", func(p Proc) {
			sense := uint64(0)
			for step := 0; step < 5; step++ {
				p.Exec(int64(100 * (i + 1))) // staggered arrival
				p.AmoAdd64(log+uint64(step)*8, 1)
				sense ^= 1
				BarrierWait(p, barrier, nCores, sense)
				// After the barrier, all arrivals for this step are visible.
				if got := p.Load64(log + uint64(step)*8); got != nCores {
					t.Errorf("core %d step %d: saw %d arrivals", i, step, got)
				}
			}
		})
	}
	r.run(t)
}

// testDevice is a minimal MMIO register file device.
type testDevice struct {
	eng  *sim.Engine
	mesh *noc.Mesh
	tile int
	regs map[uint64]uint64
}

func newTestDevice(eng *sim.Engine, mesh *noc.Mesh, tile int) *testDevice {
	d := &testDevice{eng: eng, mesh: mesh, tile: tile, regs: make(map[uint64]uint64)}
	mesh.Register(tile, noc.VNMMIOReq, d.onReq)
	return d
}

func (d *testDevice) onReq(m *noc.Msg) {
	msg := m.Payload.(*mmio.Msg)
	var data uint64
	if msg.Req.Write {
		d.regs[msg.Req.Addr] = msg.Req.Data
	} else {
		data = d.regs[msg.Req.Addr]
	}
	// Respond after a cycle of device latency.
	d.eng.After(sim.Time(params.CPUClockPS), func() {
		d.mesh.Send(msg.Reply(d.tile, data, false))
	})
}

func TestMMIORoundTrip(t *testing.T) {
	devTile := 3
	route := func(addr uint64) (int, bool) { return devTile, addr >= params.MMIOBase }
	r := newRig(t, 2, route)
	newTestDevice(r.eng, r.mesh, devTile)
	reg := params.MMIOBase + 0x10
	var got uint64
	var wlat sim.Time
	r.cores[0].Run("prog", func(p Proc) {
		start := p.Now()
		p.MMIOWrite64(reg, 4242)
		wlat = p.Now() - start
		got = p.MMIORead64(reg)
	})
	r.run(t)
	if got != 4242 {
		t.Fatalf("MMIO read = %d", got)
	}
	if wlat < 5*sim.NS {
		t.Fatalf("MMIO write latency %v implausibly low (must round-trip)", wlat)
	}
	t.Logf("MMIO write round-trip: %v", wlat)
}

func TestIRQDeliveredAtBoundary(t *testing.T) {
	r := newRig(t, 1, nil)
	c := r.cores[0]
	var handled []uint64
	var handledAt sim.Time
	c.SetIRQHandler(func(p Proc, irq IRQ) {
		handled = append(handled, irq.Info)
		handledAt = p.Now()
		p.Exec(30) // handler body
	})
	c.Run("prog", func(p Proc) {
		p.Exec(10)
		p.Exec(1000) // IRQ arrives during this block
		p.Load64(0x100)
	})
	r.eng.At(500*sim.NS, func() { c.RaiseIRQ(IRQ{Cause: "test", Info: 7}) })
	r.run(t)
	if len(handled) != 1 || handled[0] != 7 {
		t.Fatalf("handled = %v", handled)
	}
	// Delivered at the next instruction boundary (>= 1010ns), not mid-Exec.
	if handledAt < 1010*sim.NS {
		t.Fatalf("IRQ handled mid-instruction at %v", handledAt)
	}
}

func TestMultipleProgramsDeterministic(t *testing.T) {
	run := func() sim.Time {
		r := newRig(t, 4, nil)
		for i, c := range r.cores {
			i := i
			c.Run("p", func(p Proc) {
				for k := 0; k < 20; k++ {
					p.Store64(uint64(0x1000+i*8), uint64(k))
					p.Load64(uint64(0x1000 + ((i + 1) % 4 * 8)))
					p.Exec(int64(i + 1))
				}
			})
		}
		r.eng.Run(0)
		return r.eng.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic end times %v vs %v", a, b)
	}
}

func ExampleProc() {
	eng := sim.NewEngine()
	clk := sim.NewClock("fast", params.CPUClockPS)
	mesh := noc.NewMesh(eng, clk, 2, 1)
	dom := coherence.NewDomain(eng, mesh, []int{0, 1})
	core := New(eng, mesh, dom, 0, 0, nil)
	core.Run("hello", func(p Proc) {
		p.Store64(0x1000, 41)
		p.Store64(0x1000, p.Load64(0x1000)+1)
		fmt.Println("value:", p.Load64(0x1000), "cycles:", int64(p.Now()/sim.NS))
	})
	eng.Run(0)
	// Output:
	// value: 42 cycles: 119
}
