package duet

import (
	"testing"

	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/mmu"
	"duet/internal/params"
	"duet/internal/sim"
	"duet/internal/softcache"
)

// TestVIVTSoftCacheSynonymRule exercises the paper's §II-D corner case: a
// virtually-indexed, virtually-tagged soft cache with two virtual pages
// mapping to the same physical page. The Proxy Cache stores the virtual
// page number beside each physical tag; when the accelerator loads the
// same physical line through a different virtual address, the proxy first
// pushes an invalidation for the old VA so synonym aliases never coexist
// in the soft cache — and ordinary coherence invalidations reverse-map
// to the right virtual line. A last load through va1 must miss: were the
// synonym invalidation lost, va1's stale copy would still hit.
func TestVIVTSoftCacheSynonymRule(t *testing.T) {
	sys := New(Config{
		Cores: 1, MemHubs: 1, Style: StyleDuet,
		RegSpecs: []core.SoftRegSpec{
			{Kind: core.RegFIFOToFPGA},
			{Kind: core.RegFIFOToCPU},
		},
	})
	pa := allocPage(sys)
	va1 := uint64(0x4000_0000)
	va2 := uint64(0x4100_0000)
	sys.PT.Map(va1, pa)
	sys.PT.Map(va2, pa)

	var sc *softcache.Cache
	var hit, reuse sim.Time
	bs := efpga.Synthesize(efpga.Design{Name: "vivt", LUTLogic: 60, RAMKb: 16, PipelineDepth: 3},
		func() efpga.Accelerator {
			return accelFunc(func(env *efpga.Env) {
				sc = softcache.New(env, env.Mem[0], softcache.Config{
					SizeBytes: 1024, Ways: 2, VIVT: true,
				})
				env.Eng.Go("vivt", func(th *sim.Thread) {
					report := func(v uint64, err error) {
						if err != nil {
							env.Regs.PushCPU(th, 1, ^uint64(0))
							return
						}
						env.Regs.PushCPU(th, 1, v)
					}
					env.Regs.PopFPGA(th, 0)
					sc.Load64(th, va1+0x40) // fill under va1
					hit = env.Clk.Cycles(params.SoftCacheHitCycles)
					start := th.Now()
					v, err := sc.Load64(th, va1+0x40) // immediate reuse: soft-cache hit
					reuse = th.Now() - start
					report(v, err)
					env.Regs.PopFPGA(th, 0)
					report(sc.Load64(th, va1+0x40)) // after CPU store: must see new value
					env.Regs.PopFPGA(th, 0)
					report(sc.Load64(th, va2+0x40)) // synonym: same PA via va2
					env.Regs.PopFPGA(th, 0)
					report(sc.Load64(th, va2+0x40)) // after second CPU store
					env.Regs.PopFPGA(th, 0)
					report(sc.Load64(th, va1+0x40)) // back to va1: its copy left at the synonym access
				})
			})
		})
	if err := sys.InstallAccelerator(bs); err != nil {
		t.Fatal(err)
	}

	var r1, r2, r3, r4, r5 uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.Store64(pa+0x40, 5)
		p.MMIOWrite64(HubSwitchAddr(0, core.SwFwdInv), 1)
		p.MMIOWrite64(HubSwitchAddr(0, core.SwVirtMode), 1)
		p.MMIOWrite64(HubSwitchAddr(0, core.SwEnable), 1)
		step := func() uint64 {
			p.MMIOWrite64(SoftRegAddr(0), 1)
			return p.MMIORead64(SoftRegAddr(1))
		}
		r1 = step() // accel caches 5 under va1
		p.Store64(pa+0x40, 6)
		r2 = step() // coherence inv must reverse-map to va1: reload -> 6
		r3 = step() // synonym access via va2: proxy invalidates va1 first
		p.Store64(pa+0x40, 7)
		r4 = step() // inv now reverse-maps to va2: reload -> 7
		r5 = step() // va1 misses and reloads -> 7
	})
	if _, err := sys.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if r1 != 5 || r2 != 6 || r3 != 6 || r4 != 7 || r5 != 7 {
		t.Fatalf("VIVT sequence = %d,%d,%d,%d,%d; want 5,6,6,7,7", r1, r2, r3, r4, r5)
	}
	if reuse > hit {
		t.Fatalf("reuse load took %v, longer than a %v soft-cache hit (locality not exercised)", reuse, hit)
	}
	_ = mmu.PageSize
}

// TestSystemDeterminism runs an identical multi-core, multi-mechanism
// workload twice and demands bit-identical timing — the property that
// makes every experiment in this repository reproducible.
func TestSystemDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64) {
		sys := New(Config{Cores: 4, MemHubs: 1, Style: StyleDuet,
			RegSpecs: []core.SoftRegSpec{{Kind: core.RegFIFOToFPGA}, {Kind: core.RegFIFOToCPU}}})
		bs := efpga.Synthesize(efpga.Design{Name: "echo", LUTLogic: 50, PipelineDepth: 3},
			func() efpga.Accelerator {
				return accelFunc(func(env *efpga.Env) {
					env.Eng.Go("echo", func(th *sim.Thread) {
						for {
							v := env.Regs.PopFPGA(th, 0)
							env.Regs.PushCPU(th, 1, v+1)
						}
					})
				})
			})
		if err := sys.InstallAccelerator(bs); err != nil {
			t.Fatal(err)
		}
		var sum uint64
		shared := sys.Alloc(64)
		for c := 0; c < 4; c++ {
			c := c
			sys.Cores[c].Run("mix", func(p cpu.Proc) {
				if c == 0 {
					EnableHub(p, 0, false, false, false)
				}
				for i := 0; i < 24; i++ {
					p.AmoAdd64(shared, uint64(c+1))
					p.Store64(uint64(0x9000+c*64), uint64(i))
					p.Load64(uint64(0x9000 + ((c + 1) % 4 * 64)))
					if c == 0 {
						p.MMIOWrite64(SoftRegAddr(0), uint64(i))
						sum += p.MMIORead64(SoftRegAddr(1))
					}
				}
			})
		}
		end := sys.Run()
		return end, sum
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, s1, t2, s2)
	}
}

// TestAcceleratorResetViaMMIO exercises the FPGA manager's reset command
// (paper §II-E: feature switches can "reset the soft accelerator").
func TestAcceleratorResetViaMMIO(t *testing.T) {
	instances := 0
	sys := New(Config{Cores: 1, MemHubs: 0, Style: StyleDuet,
		RegSpecs: []core.SoftRegSpec{{Kind: core.RegFIFOToFPGA}, {Kind: core.RegFIFOToCPU}}})
	bs := efpga.Synthesize(efpga.Design{Name: "counted", LUTLogic: 20, PipelineDepth: 2},
		func() efpga.Accelerator {
			instances++
			return accelFunc(func(env *efpga.Env) {})
		})
	if err := sys.InstallAccelerator(bs); err != nil {
		t.Fatal(err)
	}
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(MgrRegAddr(core.RegCtrl), 2) // reset accelerator
	})
	sys.Run()
	if instances != 2 {
		t.Fatalf("accelerator instantiated %d times, want 2 (initial + reset)", instances)
	}
	if sys.Fabric.Generation != 2 {
		t.Fatalf("fabric generation = %d", sys.Fabric.Generation)
	}
}
