package coherence

import (
	"fmt"
	"testing"

	"duet/internal/noc"
	"duet/internal/params"
	"duet/internal/sim"
)

// testRig builds a 2x2 mesh with homes on every tile and n fast caches on
// distinct tiles.
type testRig struct {
	eng    *sim.Engine
	mesh   *noc.Mesh
	dom    *Domain
	caches []*PCache
}

func newRig(t testing.TB, nCaches int) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	clk := sim.NewClock("fast", params.CPUClockPS)
	w, h := 2, 2
	if nCaches > 4 {
		w, h = 4, 4
	}
	mesh := noc.NewMesh(eng, clk, w, h)
	var homeTiles []int
	for i := 0; i < mesh.Tiles(); i++ {
		homeTiles = append(homeTiles, i)
	}
	dom := NewDomain(eng, mesh, homeTiles)
	rig := &testRig{eng: eng, mesh: mesh, dom: dom}
	for i := 0; i < nCaches; i++ {
		c := dom.NewCache(PCacheConfig{
			Name: "L2", ID: i, Tile: i % mesh.Tiles(),
			Clk: clk, Cat: sim.CatFast,
			SizeBytes: params.L2Bytes, Ways: params.L2Ways, MSHRs: params.L2MSHRs,
			HitCycles: params.L2HitCycles, MissIssueCycles: params.L2MissIssue,
			FillCycles: params.L2FillCycles, FwdCycles: params.ProxyFwdCycles,
		})
		rig.caches = append(rig.caches, c)
	}
	return rig
}

// settle runs the engine dry and asserts protocol quiescence + invariants.
func (r *testRig) settle(t *testing.T) {
	t.Helper()
	r.eng.Run(0)
	if !r.dom.Quiet() {
		t.Fatal("domain not quiescent after event drain")
	}
	if err := CheckCoherence(r.dom); err != nil {
		t.Fatalf("coherence invariants violated: %v", err)
	}
}

func TestLoadMissGrantsExclusive(t *testing.T) {
	r := newRig(t, 1)
	c := r.caches[0]
	r.dom.DRAM.Write64(0x1000, 77)
	var got uint64
	r.eng.Go("prog", func(th *sim.Thread) {
		got = Uint64At(c.Load(th, 0x1000, 8, nil))
	})
	r.settle(t)
	if got != 77 {
		t.Fatalf("loaded %d, want 77", got)
	}
	if s := c.State(0x1000); s != StateE {
		t.Fatalf("state = %s, want E (sole copy)", StateName(s))
	}
}

func TestSilentUpgradeEtoM(t *testing.T) {
	r := newRig(t, 1)
	c := r.caches[0]
	var took sim.Time
	r.eng.Go("prog", func(th *sim.Thread) {
		c.Load(th, 0x2000, 8, nil)
		start := th.Now()
		c.Store(th, 0x2000, []byte{1, 2, 3, 4, 5, 6, 7, 8}, nil)
		took = th.Now() - start
	})
	r.settle(t)
	if s := c.State(0x2000); s != StateM {
		t.Fatalf("state = %s, want M", StateName(s))
	}
	if hit := params.L2HitCycles * params.CPUClockPS; took != hit {
		t.Fatalf("E->M upgrade took %v, want the %v hit latency (no home round trip)", took, hit)
	}
}

func TestReadSharing(t *testing.T) {
	r := newRig(t, 2)
	r.dom.DRAM.Write64(0x3000, 123)
	var v0, v1 uint64
	r.eng.Go("p0", func(th *sim.Thread) { v0 = Uint64At(r.caches[0].Load(th, 0x3000, 8, nil)) })
	r.eng.Go("p1", func(th *sim.Thread) {
		th.Sleep(200 * sim.NS) // ensure p0 went first (gets E, then downgraded)
		v1 = Uint64At(r.caches[1].Load(th, 0x3000, 8, nil))
	})
	r.settle(t)
	if v0 != 123 || v1 != 123 {
		t.Fatalf("values %d, %d", v0, v1)
	}
	if s0, s1 := r.caches[0].State(0x3000), r.caches[1].State(0x3000); s0 != StateS || s1 != StateS {
		t.Fatalf("states %s/%s, want S/S", StateName(s0), StateName(s1))
	}
}

func TestDirtyDataForwardedOnLoad(t *testing.T) {
	// Fig. 9's pull pattern: requester misses, other cache holds M.
	r := newRig(t, 2)
	var got uint64
	r.eng.Go("writer", func(th *sim.Thread) {
		r.caches[0].Store(th, 0x4000, le64(0xabcdef), nil)
	})
	r.eng.Go("reader", func(th *sim.Thread) {
		th.Sleep(500 * sim.NS)
		got = Uint64At(r.caches[1].Load(th, 0x4000, 8, nil))
	})
	r.settle(t)
	if got != 0xabcdef {
		t.Fatalf("got %#x, want dirty value", got)
	}
	// After downgrade, writer holds S and home has the data.
	if s := r.caches[0].State(0x4000); s != StateS {
		t.Fatalf("writer state %s, want S", StateName(s))
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	r := newRig(t, 3)
	r.dom.DRAM.Write64(0x5000, 9)
	r.eng.Go("p0", func(th *sim.Thread) { r.caches[0].Load(th, 0x5000, 8, nil) })
	r.eng.Go("p1", func(th *sim.Thread) {
		th.Sleep(300 * sim.NS)
		r.caches[1].Load(th, 0x5000, 8, nil)
	})
	r.eng.Go("p2", func(th *sim.Thread) {
		th.Sleep(600 * sim.NS)
		r.caches[2].Store(th, 0x5000, le64(55), nil)
	})
	r.settle(t)
	if s := r.caches[0].State(0x5000); s != StateI {
		t.Fatalf("sharer 0 not invalidated: %s", StateName(s))
	}
	if s := r.caches[1].State(0x5000); s != StateI {
		t.Fatalf("sharer 1 not invalidated: %s", StateName(s))
	}
	if s := r.caches[2].State(0x5000); s != StateM {
		t.Fatalf("writer state %s", StateName(s))
	}
}

func TestWriteBackOnEviction(t *testing.T) {
	r := newRig(t, 1)
	c := r.caches[0]
	// The L2 is 8KB/4-way = 128 sets; lines that alias the same set are
	// 128*16 = 2KB apart. Write 5 aliasing lines to force an eviction.
	base := uint64(0x10000)
	stride := uint64(params.L2Bytes / params.L2Ways)
	r.eng.Go("prog", func(th *sim.Thread) {
		for i := uint64(0); i < 5; i++ {
			c.Store(th, base+i*stride, le64(100+i), nil)
		}
	})
	r.settle(t)
	if s := c.State(base); s != StateI {
		t.Fatalf("LRU line of the full set is %s, want I (no eviction happened)", StateName(s))
	}
	// The evicted line's data must be recoverable through the home.
	var got uint64
	r.eng.Go("check", func(th *sim.Thread) {
		got = Uint64At(c.Load(th, base, 8, nil))
	})
	r.settle(t)
	if got != 100 {
		t.Fatalf("evicted line lost: %d", got)
	}
}

func TestFlushMovesDataHome(t *testing.T) {
	r := newRig(t, 1)
	c := r.caches[0]
	r.eng.Go("prog", func(th *sim.Thread) {
		c.Store(th, 0x6000, le64(4242), nil)
	})
	r.eng.Run(0)
	c.FlushAll()
	r.settle(t)
	if got := r.dom.HomeFor(0x6000); got != nil {
		data, owner, _ := got.SnapshotLine(0x6000)
		if owner != -1 {
			t.Fatalf("owner after flush = %d", owner)
		}
		if Uint64At(data[0:8]) != 4242 {
			t.Fatal("flushed data not at home")
		}
	}
}

func TestAtomicCounterExactness(t *testing.T) {
	// N caches increment a shared counter concurrently; the total must be
	// exact — the core atomicity property the PDES/BFS baselines rely on.
	const nCaches, incsEach = 4, 25
	r := newRig(t, nCaches)
	addr := uint64(0x7000)
	for i, c := range r.caches {
		c, i := c, i
		r.eng.Go("inc", func(th *sim.Thread) {
			th.Sleep(sim.Time(i) * sim.NS)
			for k := 0; k < incsEach; k++ {
				c.Amo(th, AmoAdd, addr, 8, 1, 0, nil)
			}
		})
	}
	r.settle(t)
	var got uint64
	r.eng.Go("read", func(th *sim.Thread) {
		got = Uint64At(r.caches[0].Load(th, addr, 8, nil))
	})
	r.settle(t)
	if got != nCaches*incsEach {
		t.Fatalf("counter = %d, want %d", got, nCaches*incsEach)
	}
}

func TestAmoSwapAndCAS(t *testing.T) {
	r := newRig(t, 2)
	var old1, old2, casOld uint64
	r.eng.Go("prog", func(th *sim.Thread) {
		old1 = r.caches[0].Amo(th, AmoSwap, 0x8000, 8, 111, 0, nil)
		old2 = r.caches[1].Amo(th, AmoSwap, 0x8000, 8, 222, 0, nil)
		casOld = r.caches[0].Amo(th, AmoCAS, 0x8000, 8, 222, 333, nil)
	})
	r.settle(t)
	if old1 != 0 || old2 != 111 || casOld != 222 {
		t.Fatalf("swap/cas olds = %d, %d, %d", old1, old2, casOld)
	}
	var final uint64
	r.eng.Go("read", func(th *sim.Thread) {
		final = Uint64At(r.caches[1].Load(th, 0x8000, 8, nil))
	})
	r.settle(t)
	if final != 333 {
		t.Fatalf("final = %d, want 333 (CAS succeeded)", final)
	}
}

func TestAmoInvalidatesRequesterCopy(t *testing.T) {
	r := newRig(t, 1)
	c := r.caches[0]
	r.eng.Go("prog", func(th *sim.Thread) {
		c.Load(th, 0x9000, 8, nil) // E copy
		c.Amo(th, AmoAdd, 0x9000, 8, 5, 0, nil)
	})
	r.settle(t)
	if s := c.State(0x9000); s != StateI {
		t.Fatalf("requester copy after AMO = %s, want I", StateName(s))
	}
}

func TestWriteNoAllocateMode(t *testing.T) {
	r := newRig(t, 1)
	wna := r.dom.NewCache(PCacheConfig{
		Name: "proxy-wna", ID: 10, Tile: 1,
		Clk: r.mesh.Clock(), Cat: sim.CatFast,
		SizeBytes: params.L2Bytes, Ways: params.L2Ways, MSHRs: 4,
		HitCycles: 1, MissIssueCycles: 1, FillCycles: 1, FwdCycles: 1,
		WriteNoAllocate: true,
	})
	r.eng.Go("prog", func(th *sim.Thread) {
		wna.Store(th, 0xa000, le64(31337), nil)
	})
	r.settle(t)
	if s := wna.State(0xa000); s != StateI {
		t.Fatalf("WNA store allocated a line: %s", StateName(s))
	}
	var got uint64
	r.eng.Go("read", func(th *sim.Thread) {
		got = Uint64At(r.caches[0].Load(th, 0xa000, 8, nil))
	})
	r.settle(t)
	if got != 31337 {
		t.Fatalf("WT value lost: %d", got)
	}

	// A write-through to a line another cache owns dirty invalidates the
	// owner, merges its data at the home, and writes its bytes over it.
	var wtAt sim.Time
	r.eng.Go("own", func(th *sim.Thread) {
		r.caches[0].Store(th, 0xb000, le64(7), nil)
		r.caches[0].Store(th, 0xb008, le64(8), nil)
	})
	r.settle(t)
	r.eng.Go("wt", func(th *sim.Thread) {
		wna.Store(th, 0xb008, le64(9), nil)
		wtAt = th.Now()
	})
	r.settle(t)
	if s := r.caches[0].State(0xb000); s != StateI {
		t.Fatalf("owner kept %s through a write-through", StateName(s))
	}
	var lo, hi uint64
	var readAt sim.Time
	r.eng.Go("read", func(th *sim.Thread) {
		lo = Uint64At(r.caches[0].Load(th, 0xb000, 8, nil))
		hi = Uint64At(r.caches[0].Load(th, 0xb008, 8, nil))
		readAt = th.Now()
	})
	r.settle(t)
	if got := fmt.Sprintf("%d %d %d %d", lo, hi, wtAt, readAt); got != "7 9 273000 297000" {
		t.Fatalf("lo, hi, write-through done, read done = %s", got)
	}
}

func TestOnLineLostHook(t *testing.T) {
	r := newRig(t, 1)
	var lost []uint64
	proxy := r.dom.NewCache(PCacheConfig{
		Name: "proxy", ID: 11, Tile: 2,
		Clk: r.mesh.Clock(), Cat: sim.CatFast,
		SizeBytes: params.L2Bytes, Ways: params.L2Ways, MSHRs: 4,
		HitCycles: 1, MissIssueCycles: 1, FillCycles: 1, FwdCycles: 1,
		OnLineLost: func(line, vpn uint64) { lost = append(lost, line) },
	})
	r.eng.Go("acc", func(th *sim.Thread) {
		proxy.Store(th, 0xb000, le64(1), nil)
	})
	r.eng.Go("cpu", func(th *sim.Thread) {
		th.Sleep(500 * sim.NS)
		r.caches[0].Store(th, 0xb000, le64(2), nil) // invalidates the proxy
	})
	r.settle(t)
	if len(lost) != 1 || lost[0] != 0xb000 {
		t.Fatalf("OnLineLost = %v", lost)
	}
}

func TestL3VictimBackInvalidation(t *testing.T) {
	// Touch enough distinct lines mapping to one home to overflow an L3
	// set, forcing back-invalidation of a privately-held line.
	r := newRig(t, 1)
	c := r.caches[0]
	home := r.dom.HomeFor(0)
	_ = home
	// L3 shard: 64KB/4-way = 1024 sets; with 4 homes, lines interleave.
	// Lines mapping to home tile 0 and the same L3 set are spaced
	// 4 (homes) * 1024 (sets) * 16B = 64KB apart.
	base := uint64(0x100000)
	stride := uint64(4 * 1024 * params.LineBytes)
	r.eng.Go("prog", func(th *sim.Thread) {
		for i := uint64(0); i < 6; i++ {
			c.Store(th, base+i*stride, le64(i+1), nil)
		}
	})
	r.settle(t)
	// At least one early line must have been back-invalidated from the L2
	// (it maps to different L2 sets, so only L3 pressure explains loss).
	invalidated := 0
	for i := uint64(0); i < 6; i++ {
		if c.State(base+i*stride) == StateI {
			invalidated++
		}
	}
	if invalidated == 0 {
		t.Fatal("no back-invalidation despite L3 set overflow")
	}
	// Data must survive in DRAM/L3: read everything back.
	vals := make([]uint64, 6)
	r.eng.Go("check", func(th *sim.Thread) {
		for i := uint64(0); i < 6; i++ {
			vals[i] = Uint64At(c.Load(th, base+i*stride, 8, nil))
		}
	})
	r.settle(t)
	for i, v := range vals {
		if v != uint64(i+1) {
			t.Fatalf("line %d lost after back-invalidation: %d", i, v)
		}
	}
}

func le64(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}
