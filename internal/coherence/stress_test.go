package coherence

import (
	"fmt"
	"testing"

	"duet/internal/noc"
	"duet/internal/params"
	"duet/internal/sim"
)

// TestRandomStress drives random loads, stores and atomics from several
// caches over a tiny address pool (maximizing conflicts, upgrades,
// forwards, write-back races and evictions — the caches are deliberately
// miniature), then verifies:
//
//   - per-address data integrity: each 8-byte slot is written by exactly
//     one cache with monotonically increasing unique values, and every
//     load observes a value that existed within the load's lifetime;
//   - final memory state: after flushing all caches, each slot holds its
//     last completed write;
//   - protocol invariants (SWMR + directory exactness) at quiescence.
//
// It runs each seed on both stress layouts.
func TestRandomStress(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runStress(t, seed, denseLayout)
		})
	}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("sparse/seed=%d", seed), func(t *testing.T) {
			runStress(t, seed, sparseLayout)
		})
	}
}

// FuzzCoherenceStress runs TestRandomStress's load/store/AMO mix at a
// fuzzed seed, on the layout its input picks. It ends on CheckCoherence
// and the stress test's value checks, so a protocol record recycled while
// still in use (a message, front-end op or MSHR reused before its last
// reader is done) shows up as a data or directory violation.
func FuzzCoherenceStress(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed, false)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed uint64, sparse bool) {
		l := denseLayout
		if sparse {
			l = sparseLayout
		}
		runStress(t, seed, l)
	})
}

// stressLayout places runStress's four caches: cache i gets ID ids[i] and
// tile tiles[i], and with slowLast the last cache runs in a slow clock
// domain behind a CDC bridge.
type stressLayout struct {
	ids, tiles []int
	slowLast   bool
}

var (
	// denseLayout gives each cache its own tile and an ID equal to its
	// slot.
	denseLayout = stressLayout{ids: []int{0, 1, 2, 3}, tiles: []int{0, 1, 2, 3}}
	// sparseLayout's IDs ascend with gaps, like a system's cores and
	// Memory Hub caches, so no ID but the first equals its slot; tile 2
	// hosts two caches, the second a slow one. Taking an ID for a slot,
	// or routing by tile alone, breaks it.
	sparseLayout = stressLayout{ids: []int{0, 7, 1000, 1100}, tiles: []int{0, 1, 2, 2}, slowLast: true}
)

type slotHistory struct {
	vals  []uint64   // every committed value, in completion order
	times []sim.Time // completion time of each value
	// firsts holds the earliest instant each value can be visible: a
	// store's completion, since it writes the owner's copy as it
	// completes, but an atomic's issue, since the home applies it while
	// its response is still on the way back.
	firsts []sim.Time
}

func runStress(t *testing.T, seed uint64, layout stressLayout) {
	eng := sim.NewEngine()
	clk := sim.NewClock("fast", params.CPUClockPS)
	mesh := noc.NewMesh(eng, clk, 2, 2)
	dom := NewDomain(eng, mesh, []int{0, 1, 2, 3})

	const nCaches = 4
	const nLines = 12
	const opsEach = 120
	base := uint64(0x40000)

	var caches []*PCache
	for i := 0; i < nCaches; i++ {
		cfg := PCacheConfig{
			Name: fmt.Sprintf("c%d", i), ID: layout.ids[i], Tile: layout.tiles[i],
			Clk: clk, Cat: sim.CatFast,
			// Tiny: 8 lines, 2-way -> constant evictions.
			SizeBytes: 8 * params.LineBytes, Ways: 2, MSHRs: 2,
			HitCycles: params.L2HitCycles, MissIssueCycles: params.L2MissIssue,
			FillCycles: params.L2FillCycles, FwdCycles: params.ProxyFwdCycles,
		}
		if layout.slowLast && i == nCaches-1 {
			caches = append(caches, dom.NewSlowCache(cfg, sim.ClockMHz("efpga", 100)))
		} else {
			caches = append(caches, dom.NewCache(cfg))
		}
	}

	// Each cache owns one 8-byte slot per line: slot address = line + 8 *
	// (cacheID % 2). Two caches share each slot-offset, so we partition:
	// cache i writes slots of lines where line% nCaches... simpler: cache i
	// exclusively writes slot (line*2 + half) where half = i%2 and
	// line%2 == i/2, and can read anything.
	slotAddr := func(line int, half int) uint64 {
		return base + uint64(line)*params.LineBytes + uint64(half)*8
	}
	ownsSlot := func(cacheID, line, half int) bool {
		return half == cacheID%2 && line%2 == cacheID/2
	}

	hist := make(map[uint64]*slotHistory)
	for l := 0; l < nLines; l++ {
		for h := 0; h < 2; h++ {
			hist[slotAddr(l, h)] = &slotHistory{vals: []uint64{0}, times: []sim.Time{0}, firsts: []sim.Time{0}}
		}
	}
	counterAddr := base + uint64(nLines)*params.LineBytes
	totalIncs := 0

	type loadCheck struct {
		addr     uint64
		started  sim.Time
		finished sim.Time
		value    uint64
	}
	var loads []loadCheck

	rng := seed
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(mod))
	}

	for i := 0; i < nCaches; i++ {
		i := i
		c := caches[i]
		eng.Go(fmt.Sprintf("prog%d", i), func(th *sim.Thread) {
			wcount := uint64(0)
			for op := 0; op < opsEach; op++ {
				line := next(nLines)
				half := next(2)
				switch next(10) {
				case 0, 1, 2, 3: // load anywhere
					addr := slotAddr(line, half)
					start := th.Now()
					v := Uint64At(c.Load(th, addr, 8, nil))
					loads = append(loads, loadCheck{addr: addr, started: start, finished: th.Now(), value: v})
				case 4, 5, 6, 7: // store to an owned slot
					if !ownsSlot(i, line, half) {
						half = i % 2
						line = (line/2)*2 + i/2
						if line >= nLines {
							line -= 2
						}
					}
					addr := slotAddr(line, half)
					wcount++
					val := uint64(i+1)<<32 | wcount
					c.Store(th, addr, le64(val), nil)
					h := hist[addr]
					h.vals = append(h.vals, val)
					h.times = append(h.times, th.Now())
					h.firsts = append(h.firsts, th.Now())
				case 8: // atomic increment of the shared counter
					c.Amo(th, AmoAdd, counterAddr, 8, 1, 0, nil)
					totalIncs++
				case 9: // atomic swap on an owned slot
					if ownsSlot(i, line, half) {
						addr := slotAddr(line, half)
						wcount++
						val := uint64(i+1)<<32 | wcount
						issued := th.Now()
						c.Amo(th, AmoSwap, addr, 8, val, 0, nil)
						h := hist[addr]
						h.vals = append(h.vals, val)
						h.times = append(h.times, th.Now())
						h.firsts = append(h.firsts, issued)
					}
				}
				th.Sleep(sim.Time(next(30)) * sim.NS)
			}
		})
	}
	eng.Run(0)
	if !dom.Quiet() {
		t.Fatal("not quiescent")
	}
	if err := CheckCoherence(dom); err != nil {
		t.Fatalf("invariants: %v", err)
	}

	// Load linearizability-ish check: the observed value must be one that
	// was current at some instant within [start, finish]: i.e. it could
	// be visible at time <= finish, and no newer committed value existed
	// before start (value's successor committed after start).
	for _, lc := range loads {
		h := hist[lc.addr]
		okv := false
		for k, v := range h.vals {
			if v != lc.value {
				continue
			}
			if h.firsts[k] > lc.finished {
				continue
			}
			succAfterStart := k+1 >= len(h.vals) || h.times[k+1] >= lc.started
			if succAfterStart {
				okv = true
				break
			}
		}
		if !okv {
			t.Fatalf("load at %#x observed stale/phantom value %#x (window %v..%v; history %v @ %v)",
				lc.addr, lc.value, lc.started, lc.finished, h.vals, h.times)
		}
	}

	// Flush everything home and verify final values.
	for _, c := range caches {
		c.FlushAll()
	}
	eng.Run(0)
	if !dom.Quiet() {
		t.Fatal("not quiescent after flush")
	}
	for addr, h := range hist {
		home := dom.HomeFor(addr)
		data, owner, sharers := home.SnapshotLine(mem64(addr))
		if owner != -1 || len(sharers) != 0 {
			t.Fatalf("slot %#x: residual directory state after flush", addr)
		}
		off := int(addr % params.LineBytes)
		got := Uint64At(data[off : off+8])
		want := h.vals[len(h.vals)-1]
		if got != want {
			t.Fatalf("slot %#x: final=%#x want=%#x", addr, got, want)
		}
	}
	var counter uint64
	eng.Go("final", func(th *sim.Thread) {
		counter = Uint64At(caches[0].Load(th, counterAddr, 8, nil))
	})
	eng.Run(0)
	if counter != uint64(totalIncs) {
		t.Fatalf("counter = %d, want %d", counter, totalIncs)
	}
}

func mem64(addr uint64) uint64 { return addr &^ (params.LineBytes - 1) }

// TestSlowCacheBridge verifies the CDC-bridged slow cache (the FPSoC
// baseline organization): functional correctness and the expected latency
// penalty versus a fast-domain cache.
func TestSlowCacheBridge(t *testing.T) {
	eng := sim.NewEngine()
	fast := sim.NewClock("fast", params.CPUClockPS)
	slow := sim.ClockMHz("efpga", 100)
	mesh := noc.NewMesh(eng, fast, 2, 1)
	dom := NewDomain(eng, mesh, []int{0, 1})

	cpu := dom.NewCache(PCacheConfig{
		Name: "L2", ID: 0, Tile: 0, Clk: fast, Cat: sim.CatFast,
		SizeBytes: params.L2Bytes, Ways: params.L2Ways, MSHRs: params.L2MSHRs,
		HitCycles: params.L2HitCycles, MissIssueCycles: params.L2MissIssue,
		FillCycles: params.L2FillCycles, FwdCycles: params.ProxyFwdCycles,
	})
	slowC := dom.NewSlowCache(PCacheConfig{
		Name: "slow", ID: 1, Tile: 1,
		SizeBytes: params.L2Bytes, Ways: params.L2Ways, MSHRs: 1,
		HitCycles: params.SlowCacheTagCycles, MissIssueCycles: 1,
		FillCycles: params.SlowCacheProtoCycles, FwdCycles: params.SlowCacheFwdCycles,
	}, slow)

	// The slow cache writes; the CPU pulls the line (the "CPU Pull w/
	// Slow Cache" pattern of Fig. 9).
	var pullLatency sim.Time
	var got uint64
	eng.Go("acc", func(th *sim.Thread) {
		slowC.Store(th, 0xc000, le64(777), nil)
	})
	eng.Go("cpu", func(th *sim.Thread) {
		th.Sleep(2 * sim.US)
		start := th.Now()
		got = Uint64At(cpu.Load(th, 0xc000, 8, nil))
		pullLatency = th.Now() - start
	})
	eng.Run(0)
	if got != 777 {
		t.Fatalf("pulled %d", got)
	}
	if err := CheckCoherence(dom); err != nil {
		t.Fatal(err)
	}
	// The pull crossed into the 100MHz domain (>=2 slow edges = 20ns) and
	// paid slow processing (6 slow cycles = 60ns): it must be far slower
	// than a fast-domain transfer.
	if pullLatency < 80*sim.NS {
		t.Fatalf("slow-cache pull suspiciously fast: %v", pullLatency)
	}

	// Same pattern against a fast proxy-like cache for contrast.
	eng2 := sim.NewEngine()
	mesh2 := noc.NewMesh(eng2, fast, 2, 1)
	dom2 := NewDomain(eng2, mesh2, []int{0, 1})
	cpu2 := dom2.NewCache(PCacheConfig{
		Name: "L2", ID: 0, Tile: 0, Clk: fast, Cat: sim.CatFast,
		SizeBytes: params.L2Bytes, Ways: params.L2Ways, MSHRs: params.L2MSHRs,
		HitCycles: params.L2HitCycles, MissIssueCycles: params.L2MissIssue,
		FillCycles: params.L2FillCycles, FwdCycles: params.ProxyFwdCycles,
	})
	proxy := dom2.NewCache(PCacheConfig{
		Name: "proxy", ID: 1, Tile: 1, Clk: fast, Cat: sim.CatFast,
		SizeBytes: params.L2Bytes, Ways: params.L2Ways, MSHRs: params.L2MSHRs,
		HitCycles: params.L2HitCycles, MissIssueCycles: params.L2MissIssue,
		FillCycles: params.L2FillCycles, FwdCycles: params.ProxyFwdCycles,
	})
	var fastLatency sim.Time
	eng2.Go("acc", func(th *sim.Thread) { proxy.Store(th, 0xc000, le64(1), nil) })
	eng2.Go("cpu", func(th *sim.Thread) {
		th.Sleep(2 * sim.US)
		start := th.Now()
		cpu2.Load(th, 0xc000, 8, nil)
		fastLatency = th.Now() - start
	})
	eng2.Run(0)
	if fastLatency >= pullLatency {
		t.Fatalf("fast-domain pull (%v) not faster than slow-domain pull (%v)", fastLatency, pullLatency)
	}
	t.Logf("CPU pull: proxy(fast)=%v slow(100MHz)=%v", fastLatency, pullLatency)
}
