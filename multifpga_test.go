package duet

import (
	"testing"

	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/params"
	"duet/internal/sim"
)

// scaleAccel doubles values popped from FIFO 0 into FIFO 1 after touching
// a line of coherent memory.
type scaleAccel struct {
	gain uint64
	addr uint64
}

func (a *scaleAccel) Start(env *efpga.Env) {
	env.Eng.Go("scale", func(t *sim.Thread) {
		for {
			v := env.Regs.PopFPGA(t, 0)
			b, err := env.Mem[0].Load(t, a.addr, 8)
			if err != nil {
				return
			}
			base := uint64(b[0])
			t.SleepCycles(env.Clk, 2)
			env.Regs.PushCPU(t, 1, v*a.gain+base)
		}
	})
}

// installOn is InstallAccelerator on eFPGA idx.
func installOn(s *System, idx int, bs *efpga.Bitstream) error {
	fab := s.Fabrics[idx]
	if _, err := fab.Register(bs); err != nil {
		return err
	}
	if err := fab.Configure(bs); err != nil {
		return err
	}
	if bs.FmaxMHz > 0 {
		fab.SetFreqMHz(bs.FmaxMHz)
	}
	s.Adapters[idx].StartAccelerator()
	return nil
}

// TestMultipleEFPGAs exercises the paper's scalability claim (Fig. 1c):
// multiple independent eFPGAs, each behind its own Duet Adapter, serving
// different cores concurrently while sharing one coherent memory system.
func TestMultipleEFPGAs(t *testing.T) {
	sys := New(Config{
		Cores: 2, MemHubs: 1, EFPGAs: 2, Style: StyleDuet,
		RegSpecs: []core.SoftRegSpec{
			{Kind: core.RegFIFOToFPGA},
			{Kind: core.RegFIFOToCPU},
		},
	})
	if len(sys.Adapters) != 2 || len(sys.Fabrics) != 2 {
		t.Fatalf("adapters=%d fabrics=%d", len(sys.Adapters), len(sys.Fabrics))
	}
	addr0 := sys.Alloc(64)
	addr1 := sys.Alloc(64)
	mk := func(gain, addr uint64) *efpga.Bitstream {
		return efpga.Synthesize(efpga.Design{Name: "scale", LUTLogic: 60, RegBits: 128, PipelineDepth: 3},
			func() efpga.Accelerator { return &scaleAccel{gain: gain, addr: addr} })
	}
	if err := sys.InstallAccelerator(mk(3, addr0)); err != nil {
		t.Fatal(err)
	}
	if err := installOn(sys, 1, mk(5, addr1)); err != nil {
		t.Fatal(err)
	}

	results := make([][]uint64, 2)
	for c := 0; c < 2; c++ {
		c := c
		sys.Cores[c].Run("driver", func(p cpu.Proc) {
			addr := addr0
			if c == 1 {
				addr = addr1
			}
			p.Store64(addr, uint64(c+10)) // accelerator pulls this coherently
			p.MMIOWrite64(core.HubSwitchAddr(c, 0, core.SwEnable), 1)
			for i := uint64(1); i <= 6; i++ {
				p.MMIOWrite64(core.SoftRegAddr(c, 0), i)
				results[c] = append(results[c], p.MMIORead64(core.SoftRegAddr(c, 1)))
			}
		})
	}
	if _, err := sys.RunChecked(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 6; i++ {
		if results[0][i-1] != i*3+10 {
			t.Fatalf("adapter0 results: %v", results[0])
		}
		if results[1][i-1] != i*5+11 {
			t.Fatalf("adapter1 results: %v", results[1])
		}
	}
}

// TestMultiEFPGATLBIsolation verifies per-adapter fault dispatch: a TLB
// fault on adapter 1 is resolved by the kernel without touching adapter 0.
func TestMultiEFPGATLBIsolation(t *testing.T) {
	sys := New(Config{
		Cores: 1, MemHubs: 1, EFPGAs: 2, Style: StyleDuet,
		RegSpecs: []core.SoftRegSpec{
			{Kind: core.RegFIFOToFPGA},
			{Kind: core.RegFIFOToCPU},
		},
	})
	faults := countTLBFaults(sys)
	pa := allocPage(sys)
	va := uint64(0x5000_0000)
	sys.PT.Map(va, pa)
	sys.Dom.DRAM.Write64(pa+8, 777)

	bs := efpga.Synthesize(efpga.Design{Name: "virt", LUTLogic: 40, PipelineDepth: 2},
		func() efpga.Accelerator {
			return accelFunc(func(env *efpga.Env) {
				env.Eng.Go("virt", func(th *sim.Thread) {
					env.Regs.PopFPGA(th, 0)
					b, err := env.Mem[0].Load(th, va+8, 8)
					if err != nil {
						env.Regs.PushCPU(th, 1, 0)
						return
					}
					var v uint64
					for i := range b {
						v |= uint64(b[i]) << (8 * i)
					}
					env.Regs.PushCPU(th, 1, v)
				})
			})
		})
	if err := installOn(sys, 1, bs); err != nil {
		t.Fatal(err)
	}
	var got uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(core.HubSwitchAddr(1, 0, core.SwVirtMode), 1)
		p.MMIOWrite64(core.HubSwitchAddr(1, 0, core.SwEnable), 1)
		p.MMIOWrite64(core.SoftRegAddr(1, 0), 1)
		got = p.MMIORead64(core.SoftRegAddr(1, 1))
	})
	if _, err := sys.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if got != 777 {
		t.Fatalf("virtual load through adapter 1 = %d", got)
	}
	if faults[sys.Adapters[1].Hub(0)] == 0 {
		t.Fatal("no fault exercised")
	}
	if faults[sys.Adapters[0].Hub(0)] != 0 {
		t.Fatal("adapter 0's hub raised a fault for adapter 1's access")
	}
}

// TestRouterSteersToOwningAdapter: every address core's encoders produce
// for adapter a must route to adapter a's control-hub tile, and
// addresses outside every window must be unclaimed.
func TestRouterSteersToOwningAdapter(t *testing.T) {
	sys := New(Config{Cores: 2, MemHubs: 2, EFPGAs: 2, Style: StyleDuet})
	route := sys.route
	if route == nil {
		t.Fatal("no router on an eFPGA system")
	}
	inWindow := func(a int, addr uint64) bool {
		return addr >= core.BaseAddr(a) && addr < core.BaseAddr(a)+core.AdapterStride
	}
	for a, ad := range sys.Adapters {
		want := ad.CtrlTile()
		addrs := map[string]uint64{
			"soft reg":   core.SoftRegAddr(a, 5),
			"hub switch": core.HubSwitchAddr(a, 1, core.SwAtomics),
			"tlb reg":    core.TLBRegAddr(a, 1, core.TLBVPN),
			"mgr reg":    core.BaseAddr(a) + core.RegStatus,
			"base":       core.BaseAddr(a),
		}
		for what, addr := range addrs {
			tile, ok := route(addr)
			if !ok || tile != want {
				t.Fatalf("adapter %d %s %#x routed to (%d,%v), want tile %d", a, what, addr, tile, ok, want)
			}
			if !inWindow(a, addr) {
				t.Fatalf("adapter %d's %s address %#x is outside its window", a, what, addr)
			}
			if inWindow(1-a, addr) {
				t.Fatalf("adapter %d's window holds adapter %d's %s address %#x", 1-a, a, what, addr)
			}
		}
	}
	// The adapter-0 helpers land in adapter 0's window.
	for _, addr := range []uint64{SoftRegAddr(3), HubSwitchAddr(1, core.SwEnable), MgrRegAddr(core.RegCtrl)} {
		if tile, ok := route(addr); !ok || tile != sys.Adapters[0].CtrlTile() {
			t.Fatalf("adapter-0 address %#x routed to (%d,%v)", addr, tile, ok)
		}
	}

	// Out of range: below the MMIO base, address zero, and one adapter
	// past the last configured window.
	for _, addr := range []uint64{0, params.MMIOBase - 8, core.BaseAddr(2)} {
		if tile, ok := route(addr); ok {
			t.Fatalf("unclaimed address %#x routed to tile %d", addr, tile)
		}
	}

	// CPU-only systems expose no MMIO devices at all.
	if New(Config{Cores: 1, Style: StyleCPUOnly}).route != nil {
		t.Fatal("CPU-only system has a router")
	}
}
