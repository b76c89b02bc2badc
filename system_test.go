package duet

import (
	"fmt"
	"testing"

	"duet/internal/coherence"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/mmu"
	"duet/internal/sim"
)

// echoAccel pops values from FPGA-bound FIFO 0, transforms them, and
// pushes results into CPU-bound FIFO 1.
type echoAccel struct{ gain uint64 }

func (a *echoAccel) Start(env *efpga.Env) {
	env.Eng.Go("echo", func(t *sim.Thread) {
		for {
			v := env.Regs.PopFPGA(t, 0)
			t.SleepCycles(env.Clk, 2) // compute
			env.Regs.PushCPU(t, 1, v*a.gain)
		}
	})
}

func echoSpecs() []core.SoftRegSpec {
	return []core.SoftRegSpec{
		{Kind: core.RegFIFOToFPGA},
		{Kind: core.RegFIFOToCPU},
		{Kind: core.RegPlain},
		{Kind: core.RegNormal},
		{Kind: core.RegTokenFIFO},
	}
}

// allocPage reserves one page-aligned page of simulated memory and
// returns its base.
func allocPage(s *System) uint64 {
	s.next = (s.next + mmu.PageSize - 1) &^ uint64(mmu.PageSize-1)
	base := s.next
	s.next += mmu.PageSize
	return base
}

func newEchoSystem(t *testing.T, style Style) *System {
	t.Helper()
	sys := New(Config{Cores: 1, MemHubs: 1, Style: style, RegSpecs: echoSpecs(), FPGAFreqMHz: 100})
	bs := efpga.Synthesize(efpga.Design{Name: "echo", LUTLogic: 100, RegBits: 64, PipelineDepth: 3},
		func() efpga.Accelerator { return &echoAccel{gain: 3} })
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	return sys
}

func TestShadowFIFORoundTrip(t *testing.T) {
	for _, style := range []Style{StyleDuet, StyleFPSoC} {
		style := style
		t.Run(style.String(), func(t *testing.T) {
			sys := newEchoSystem(t, style)
			var got []uint64
			sys.Cores[0].Run("host", func(p cpu.Proc) {
				for i := uint64(1); i <= 8; i++ {
					p.MMIOWrite64(SoftRegAddr(0), i)
				}
				for i := 0; i < 8; i++ {
					got = append(got, p.MMIORead64(SoftRegAddr(1)))
				}
			})
			if _, err := sys.RunChecked(); err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if v != uint64(i+1)*3 {
					t.Fatalf("%s: got %v", style, got)
				}
			}
		})
	}
}

func TestShadowVsNormalLatency(t *testing.T) {
	// Shadow register writes complete in the fast domain; FPSoC downgrades
	// them to full round-trips. Paper Fig. 9: 50-80% reduction.
	measure := func(style Style) sim.Time {
		sys := newEchoSystem(t, style)
		var lat sim.Time
		sys.Cores[0].Run("host", func(p cpu.Proc) {
			p.Exec(100)
			start := p.Now()
			p.MMIOWrite64(SoftRegAddr(2), 42) // plain register write
			lat = p.Now() - start
		})
		sys.Run()
		return lat
	}
	duet := measure(StyleDuet)
	fpsoc := measure(StyleFPSoC)
	if duet >= fpsoc {
		t.Fatalf("shadow write (%v) not faster than normal write (%v)", duet, fpsoc)
	}
	red := 1 - float64(duet)/float64(fpsoc)
	if red < 0.30 {
		t.Fatalf("latency reduction only %.0f%%", red*100)
	}
	t.Logf("plain shadow write: duet=%v fpsoc=%v (reduction %.0f%%)", duet, fpsoc, red*100)
}

func TestPlainShadowSyncsBothWays(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet, RegSpecs: echoSpecs()})
	type watcher struct{ seen uint64 }
	w := &watcher{}
	bs := efpga.Synthesize(efpga.Design{Name: "w", LUTLogic: 10, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Eng.Go("w", func(th *sim.Thread) {
				// Wait for the CPU's plain write to sync down, then write
				// back a response through the same shadow machinery.
				for env.Regs.ReadPlain(2) != 77 {
					th.SleepCycles(env.Clk, 1)
				}
				w.seen = env.Regs.ReadPlain(2)
				env.Regs.WritePlain(th, 2, 88)
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	var final uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(SoftRegAddr(2), 77)
		for final != 88 {
			final = p.MMIORead64(SoftRegAddr(2))
			p.Exec(20)
		}
	})
	sys.Run()
	if w.seen != 77 || final != 88 {
		t.Fatalf("sync: accel saw %d, cpu saw %d", w.seen, final)
	}
}

// accelFunc adapts a func to efpga.Accelerator.
type accelFunc func(*efpga.Env)

func (f accelFunc) Start(env *efpga.Env) { f(env) }

func TestTokenFIFO(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 0, Style: StyleDuet, RegSpecs: echoSpecs()})
	bs := efpga.Synthesize(efpga.Design{Name: "tok", LUTLogic: 10, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Eng.Go("tok", func(th *sim.Thread) {
				th.SleepCycles(env.Clk, 50)
				env.Regs.PushToken(th, 4)
				env.Regs.PushToken(th, 4)
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	var early, later1, later2, later3 uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		early = p.MMIORead64(SoftRegAddr(4)) // before any push: empty, non-blocking
		p.Exec(2000)
		later1 = p.MMIORead64(SoftRegAddr(4))
		later2 = p.MMIORead64(SoftRegAddr(4))
		later3 = p.MMIORead64(SoftRegAddr(4))
	})
	sys.Run()
	if early != 0 || later1 != 1 || later2 != 1 || later3 != 0 {
		t.Fatalf("token reads = %d,%d,%d,%d want 0,1,1,0", early, later1, later2, later3)
	}
}

// TestFPSoCNormalFIFOOps: in FPSoC mode every soft register is a normal
// register, and the fabric emulates the FIFO kinds' semantics: a read of
// an FPGA-bound FIFO reports its fill, a write to a CPU-bound FIFO is
// acknowledged and dropped, and a token read takes a token when there is
// one.
func TestFPSoCNormalFIFOOps(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 0, Style: StyleFPSoC, RegSpecs: echoSpecs(), FPGAFreqMHz: 100})
	bs := efpga.Synthesize(efpga.Design{Name: "tok", LUTLogic: 10, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Eng.Go("tok", func(th *sim.Thread) {
				th.SleepCycles(env.Clk, 50)
				env.Regs.PushToken(th, 4)
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	var vals []uint64
	var ats []sim.Time
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		rd := func(reg int) {
			vals = append(vals, p.MMIORead64(SoftRegAddr(reg)))
			ats = append(ats, p.Now())
		}
		rd(4) // no token yet
		p.MMIOWrite64(SoftRegAddr(0), 5)
		p.MMIOWrite64(SoftRegAddr(0), 6)
		rd(0) // two entries queued, nothing pops them
		p.MMIOWrite64(SoftRegAddr(1), 7)
		ats = append(ats, p.Now())
		p.Exec(2000)
		rd(4) // the token has landed
		rd(4) // and is gone
	})
	if _, err := sys.RunChecked(); err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(vals, ats)
	if want := "[0 2 1 0] [77.000ns 317.000ns 397.000ns 2.477us 2.557us]"; got != want {
		t.Fatalf("values, times = %s, want %s", got, want)
	}
}

func TestClaimedNormalRegisterBarrier(t *testing.T) {
	// The paper's barrier example: the processor reads a normal soft
	// register; the accelerator acknowledges the read when it reaches the
	// barrier.
	sys := New(Config{Cores: 1, MemHubs: 0, Style: StyleDuet, RegSpecs: echoSpecs()})
	const barrierReg = 3
	accelArrive := sim.Time(5 * sim.US)
	bs := efpga.Synthesize(efpga.Design{Name: "bar", LUTLogic: 10, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Regs.Claim(barrierReg)
			env.Eng.Go("bar", func(th *sim.Thread) {
				op := env.Regs.WaitOp(th, barrierReg)
				th.WaitUntil(accelArrive) // accelerator reaches the barrier late
				env.Regs.Complete(op, 1)
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	var releaseAt sim.Time
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIORead64(SoftRegAddr(barrierReg)) // blocks at the barrier
		releaseAt = p.Now()
	})
	sys.Run()
	if releaseAt < accelArrive {
		t.Fatalf("barrier released at %v before accelerator arrived at %v", releaseAt, accelArrive)
	}
}

func TestIOOrderingShadowBehindNormal(t *testing.T) {
	// Fig. 6c: a shadowed access issued by a source while its normal
	// write is still pending must not complete before the normal write.
	// The only way one in-order core has two MMIO ops in flight is a trap
	// handler preempting a stalled access, so that is how we test it.
	sys := New(Config{Cores: 1, MemHubs: 0, Style: StyleDuet, RegSpecs: echoSpecs()})
	const normalReg, plainReg = 3, 2
	release := sim.Time(8 * sim.US)
	bs := efpga.Synthesize(efpga.Design{Name: "slowreg", LUTLogic: 10, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Regs.Claim(normalReg)
			env.Eng.Go("slowreg", func(th *sim.Thread) {
				op := env.Regs.WaitOp(th, normalReg)
				th.WaitUntil(release) // accelerator holds the write pending
				env.Regs.Complete(op, 0)
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	var shadowDone, normalDone sim.Time
	sys.Cores[0].SetIRQHandler(func(p cpu.Proc, irq cpu.IRQ) {
		p.MMIOWrite64(SoftRegAddr(plainReg), 2) // shadowed write behind the normal write
		shadowDone = p.Now()
	})
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(SoftRegAddr(normalReg), 1) // held by the accelerator
		normalDone = p.Now()
	})
	sys.Eng.At(2*sim.US, func() { sys.Cores[0].RaiseIRQ(cpu.IRQ{Cause: "test"}) })
	sys.Run()
	if normalDone < release {
		t.Fatalf("normal write completed at %v before the accelerator released it", normalDone)
	}
	if shadowDone < release {
		t.Fatalf("shadow write completed at %v, jumping ahead of the pending normal write (released %v)", shadowDone, release)
	}
}

// memAccel drives the memory hub: it loads a value, doubles it, stores it
// back, then signals completion through a CPU-bound FIFO.
type memAccel struct{ addr uint64 }

func (a *memAccel) Start(env *efpga.Env) {
	env.Eng.Go("memaccel", func(t *sim.Thread) {
		env.Regs.PopFPGA(t, 0) // wait for the host's go signal
		port := env.Mem[0]
		b, err := port.Load(t, a.addr, 8)
		if err != nil {
			return
		}
		v := coherence.Uint64At(b)
		t.SleepCycles(env.Clk, 2)
		var buf [8]byte
		for i := range buf {
			buf[i] = byte((v * 2) >> (8 * i))
		}
		if err := port.Store(t, a.addr, buf[:]); err != nil {
			return
		}
		env.Regs.PushCPU(t, 1, 1)
	})
}

func TestMemoryHubCoherentAccess(t *testing.T) {
	for _, style := range []Style{StyleDuet, StyleFPSoC} {
		style := style
		t.Run(style.String(), func(t *testing.T) {
			sys := New(Config{Cores: 1, MemHubs: 1, Style: style, RegSpecs: echoSpecs()})
			addr := sys.Alloc(64)
			bs := efpga.Synthesize(efpga.Design{Name: "mem", LUTLogic: 50, PipelineDepth: 3},
				func() efpga.Accelerator { return &memAccel{addr: addr} })
			sys.Fabric.MustRegister(bs)
			if err := sys.Fabric.Configure(bs); err != nil {
				t.Fatal(err)
			}
			var got uint64
			sys.Cores[0].Run("host", func(p cpu.Proc) {
				p.Store64(addr, 21) // CPU writes; accelerator must pull coherently
				EnableHub(p, 0, false, false, false)
				p.MMIOWrite64(SoftRegAddr(0), 1) // go
				_ = p.MMIORead64(SoftRegAddr(1)) // wait for completion signal
				got = p.Load64(addr)             // CPU pulls the accelerator's store
			})
			sys.Adapter.StartAccelerator()
			if _, err := sys.RunChecked(); err != nil {
				t.Fatal(err)
			}
			if got != 42 {
				t.Fatalf("%v: round trip = %d, want 42", style, got)
			}
		})
	}
}

func TestHubInvalidationPushToSoftCacheSink(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet, RegSpecs: echoSpecs()})
	addr := sys.Alloc(64)
	var invs []uint64
	bs := efpga.Synthesize(efpga.Design{Name: "sink", LUTLogic: 10, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Mem[0].SetInvSink(func(pa, vpn uint64) { invs = append(invs, pa) })
			env.Eng.Go("toucher", func(th *sim.Thread) {
				env.Regs.PopFPGA(th, 0)      // wait for the host's go signal
				env.Mem[0].Load(th, addr, 8) // the proxy now owns the line
				env.Regs.PushCPU(th, 1, 1)
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		EnableHub(p, 0, true, false, false) // fwdInv on
		p.MMIOWrite64(SoftRegAddr(0), 1)    // go
		_ = p.MMIORead64(SoftRegAddr(1))
		p.Store64(addr, 5) // invalidates the proxy -> push into fabric
	})
	if _, err := sys.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if len(invs) != 1 || invs[0] != addr {
		t.Fatalf("invalidation pushes = %#v", invs)
	}
}

// countTLBFaults replaces core 0's IRQ handler with one that counts the
// TLB-fault interrupts each Memory Hub raises, then passes every interrupt
// to the kernel handlers of all of sys's adapters, as New's handler does.
func countTLBFaults(sys *System) map[*core.MemHub]int {
	faults := make(map[*core.MemHub]int)
	var kernel []func(cpu.Proc, cpu.IRQ)
	for _, ad := range sys.Adapters {
		kernel = append(kernel, ad.KernelTLBHandler(sys.PT))
	}
	sys.Cores[0].SetIRQHandler(func(p cpu.Proc, irq cpu.IRQ) {
		if irq.Cause == core.IRQTLBFault {
			faults[irq.Source.(*core.MemHub)]++
		}
		for _, h := range kernel {
			h(p, irq)
		}
	})
	return faults
}

func TestTLBFaultResolvedByKernel(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet, RegSpecs: echoSpecs()})
	faults := countTLBFaults(sys)
	pa := allocPage(sys)
	va := uint64(0x7000_0000)
	sys.PT.Map(va, pa)
	var result uint64
	bs := efpga.Synthesize(efpga.Design{Name: "virt", LUTLogic: 10, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Eng.Go("virt", func(th *sim.Thread) {
				env.Regs.PopFPGA(th, 0) // wait for the host's go signal
				b, err := env.Mem[0].Load(th, va+0x18, 8)
				if err != nil {
					env.Regs.PushCPU(th, 1, 0)
					return
				}
				env.Regs.PushCPU(th, 1, coherence.Uint64At(b))
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.Store64(pa+0x18, 31415)
		EnableHub(p, 0, false, false, true) // virtual mode
		p.MMIOWrite64(SoftRegAddr(0), 1)    // go
		result = p.MMIORead64(SoftRegAddr(1))
	})
	if _, err := sys.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if result != 31415 {
		t.Fatalf("virtual load = %d", result)
	}
	if faults[sys.Adapter.Hub(0)] == 0 {
		t.Fatal("no TLB fault delivered (fault path not exercised)")
	}
}

func TestTLBFaultUnmappedKillsAccelerator(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet, RegSpecs: echoSpecs()})
	var loadErr error
	bs := efpga.Synthesize(efpga.Design{Name: "bad", LUTLogic: 10, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Eng.Go("bad", func(th *sim.Thread) {
				env.Regs.PopFPGA(th, 0) // wait for the host's go signal
				_, loadErr = env.Mem[0].Load(th, 0xdead0000, 8)
				env.Regs.PushCPU(th, 1, 1)
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		EnableHub(p, 0, false, false, true)
		p.MMIOWrite64(SoftRegAddr(0), 1) // go
		_ = p.MMIORead64(SoftRegAddr(1))
	})
	sys.Run()
	if loadErr == nil {
		t.Fatal("unmapped access did not fail")
	}
	if sys.Adapter.Hub(0).Enabled() {
		t.Fatal("hub still enabled after kill")
	}
	if sys.Adapter.ErrCode() != core.ErrKilled {
		t.Fatalf("error code = %d", sys.Adapter.ErrCode())
	}
}

func TestParityExceptionContainment(t *testing.T) {
	// A corrupted eFPGA request must deactivate the hubs without breaking
	// the coherence protocol: the Proxy Cache keeps answering, so a CPU
	// can still pull a line the proxy holds in M.
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet, RegSpecs: echoSpecs()})
	addr := sys.Alloc(64)
	bs := efpga.Synthesize(efpga.Design{Name: "par", LUTLogic: 10, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Eng.Go("par", func(th *sim.Thread) {
				env.Regs.PopFPGA(th, 0) // go signal 1
				var buf [8]byte
				buf[0] = 99
				env.Mem[0].Store(th, addr, buf[:]) // proxy now holds M
				env.Regs.PushCPU(th, 1, 1)
				env.Regs.PopFPGA(th, 0)                // go signal 2 (after fault injection)
				_, err := env.Mem[0].Load(th, addr, 8) // corrupted request
				if err == nil {
					env.Regs.PushCPU(th, 1, 2)
				} else {
					env.Regs.PushCPU(th, 1, 3)
				}
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	var pulled, errSignal uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		EnableHub(p, 0, false, false, false)
		p.MMIOWrite64(SoftRegAddr(0), 1)
		_ = p.MMIORead64(SoftRegAddr(1)) // store done; proxy holds M
		sys.Adapter.Hub(0).InjectParityFaults(1)
		p.MMIOWrite64(SoftRegAddr(0), 1)
		errSignal = p.MMIORead64(SoftRegAddr(1)) // accel's error signal
		pulled = p.Load64(addr)                  // coherence must still work
	})
	if _, err := sys.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if errSignal != 3 {
		t.Fatalf("accelerator did not observe the rejected request: %d", errSignal)
	}
	if sys.Adapter.ErrCode() != core.ErrParity {
		t.Fatalf("error code = %d, want parity", sys.Adapter.ErrCode())
	}
	if sys.Adapter.Hub(0).Enabled() {
		t.Fatal("hub not deactivated")
	}
	if pulled != 99 {
		t.Fatalf("CPU pull after exception = %d (coherence broken)", pulled)
	}
}

func TestTimeoutExceptionOnHungAccelerator(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet, RegSpecs: echoSpecs()})
	// The accelerator never pushes: a blocking CPU-bound FIFO read must
	// time out, latch an error, and return bogus data instead of hanging.
	bs := efpga.Synthesize(efpga.Design{Name: "hung", LUTLogic: 10, PipelineDepth: 2},
		func() efpga.Accelerator { return accelFunc(func(env *efpga.Env) {}) })
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	done := false
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(MgrRegAddr(core.RegTimeout), 5000) // 5us watchdog
		_ = p.MMIORead64(SoftRegAddr(1))                 // would hang forever
		done = true
	})
	sys.Run()
	if !done {
		t.Fatal("blocking read hung despite watchdog")
	}
	if sys.Adapter.ErrCode() != core.ErrTimeout {
		t.Fatalf("error code = %d, want timeout", sys.Adapter.ErrCode())
	}
}

func TestMMIOProgrammingFlow(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet, RegSpecs: echoSpecs()})
	good := efpga.Synthesize(efpga.Design{Name: "echo", LUTLogic: 100, PipelineDepth: 3},
		func() efpga.Accelerator { return &echoAccel{gain: 5} })
	bad := efpga.Synthesize(efpga.Design{Name: "corrupt", LUTLogic: 100, PipelineDepth: 3},
		func() efpga.Accelerator { return &echoAccel{gain: 1} })
	bad.Corrupt()
	goodID := sys.Fabric.MustRegister(good)
	badID := sys.Fabric.MustRegister(bad)
	var progBad, progGood bool
	var echoed uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		progBad = Program(p, badID) // integrity check must fail
		p.MMIOWrite64(MgrRegAddr(core.RegCtrl), 1)
		progGood = Program(p, goodID)
		p.MMIOWrite64(SoftRegAddr(0), 7)
		echoed = p.MMIORead64(SoftRegAddr(1))
	})
	sys.Run()
	if progBad {
		t.Fatal("corrupted bitstream programmed successfully")
	}
	if !progGood {
		t.Fatal("valid bitstream failed to program")
	}
	if echoed != 35 {
		t.Fatalf("echo after programming = %d", echoed)
	}
}

func TestProgrammingRequiresDisabledHubs(t *testing.T) {
	sys := newEchoSystem(t, StyleDuet)
	bs := efpga.Synthesize(efpga.Design{Name: "x", LUTLogic: 10, PipelineDepth: 2},
		func() efpga.Accelerator { return accelFunc(func(*efpga.Env) {}) })
	id := sys.Fabric.MustRegister(bs)
	var ok bool
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		EnableHub(p, 0, false, false, false)
		ok = Program(p, id)
	})
	sys.Run()
	if ok {
		t.Fatal("programming succeeded with enabled memory hubs")
	}
}

func TestWriteNoAllocateSwitch(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet, RegSpecs: echoSpecs()})
	addr := sys.Alloc(64)
	bs := efpga.Synthesize(efpga.Design{Name: "wna", LUTLogic: 10, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Eng.Go("wna", func(th *sim.Thread) {
				env.Regs.PopFPGA(th, 0) // wait for the host's go signal
				var buf [8]byte
				buf[0] = 11
				env.Mem[0].Store(th, addr, buf[:])
				env.Regs.PushCPU(th, 1, 1)
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	var got uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(HubSwitchAddr(0, core.SwWriteAlloc), 0) // write-no-allocate
		EnableHub(p, 0, false, false, false)
		p.MMIOWrite64(SoftRegAddr(0), 1) // go
		_ = p.MMIORead64(SoftRegAddr(1))
		got = p.Load64(addr)
	})
	if _, err := sys.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if got != 11 {
		t.Fatalf("WNA store lost: %d", got)
	}
	// The directory tracks every cache holding the line: after the host's
	// load, only core 0's (cache ID 0) may, never the hub's proxy.
	_, owner, sharers := sys.Dom.HomeFor(addr).SnapshotLine(addr)
	if owner > 0 || len(sharers) > 1 || len(sharers) == 1 && sharers[0] != 0 {
		t.Fatalf("WNA store allocated a proxy line: owner %d, sharers %v", owner, sharers)
	}
}

func TestAtomicsSwitchGate(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet, RegSpecs: echoSpecs()})
	addr := sys.Alloc(64)
	var errWithout, errWith error
	var old uint64
	bs := efpga.Synthesize(efpga.Design{Name: "amo", LUTLogic: 10, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Eng.Go("amo", func(th *sim.Thread) {
				_, errWithout = env.Mem[0].Amo(th, int(coherence.AmoAdd), addr, 8, 5, 0)
				env.Regs.PushCPU(th, 1, 1)
				env.Regs.PopFPGA(th, 0) // wait for the host to flip the switch
				old, errWith = env.Mem[0].Amo(th, int(coherence.AmoAdd), addr, 8, 5, 0)
				env.Regs.PushCPU(th, 1, 2)
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		EnableHub(p, 0, false, false, false) // atomics off
		_ = p.MMIORead64(SoftRegAddr(1))
		p.MMIOWrite64(HubSwitchAddr(0, core.SwAtomics), 1)
		p.MMIOWrite64(SoftRegAddr(0), 1)
		_ = p.MMIORead64(SoftRegAddr(1))
	})
	if _, err := sys.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if errWithout == nil {
		t.Fatal("AMO succeeded with atomics disabled")
	}
	if errWith != nil || old != 0 {
		t.Fatalf("AMO with atomics enabled: old=%d err=%v", old, errWith)
	}
}

func TestMultiHubSystem(t *testing.T) {
	// P1M2: two memory hubs (sort uses one for input, one for output).
	sys := New(Config{Cores: 1, MemHubs: 2, Style: StyleDuet, RegSpecs: echoSpecs()})
	src := sys.Alloc(64)
	dst := sys.Alloc(64)
	bs := efpga.Synthesize(efpga.Design{Name: "copy", LUTLogic: 20, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Eng.Go("copy", func(th *sim.Thread) {
				env.Regs.PopFPGA(th, 0) // wait for the host's go signal
				b, err := env.Mem[0].Load(th, src, 8)
				if err != nil {
					return
				}
				if err := env.Mem[1].Store(th, dst, b); err != nil {
					return
				}
				env.Regs.PushCPU(th, 1, 1)
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	var got uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.Store64(src, 123456)
		EnableHub(p, 0, false, false, false)
		EnableHub(p, 1, false, false, false)
		p.MMIOWrite64(SoftRegAddr(0), 1) // go
		_ = p.MMIORead64(SoftRegAddr(1))
		got = p.Load64(dst)
	})
	if _, err := sys.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if got != 123456 {
		t.Fatalf("cross-hub copy = %d", got)
	}
}

func TestStyleStringBounds(t *testing.T) {
	if got := Style(99).String(); got != "unknown" {
		t.Fatalf("Style(99) = %q, want unknown", got)
	}
	if got := Style(-1).String(); got != "unknown" {
		t.Fatalf("Style(-1) = %q, want unknown", got)
	}
	if got := StyleDuet.String(); got != "duet" {
		t.Fatalf("StyleDuet = %q", got)
	}
}

// TestProgramPollBound: a programming engine that stays busy past the
// poll bound must fail the poll loop with a distinct wedged status
// instead of spinning forever.
func TestProgramPollBound(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet})
	// A huge configuration image streams for ~1M fast cycles — far past
	// the poll bound — so the engine reports neither ready nor error
	// while the host is polling.
	slow := efpga.NewBitstream("glacial", efpga.Resources{}, 0, make([]byte, 16<<20),
		func() efpga.Accelerator { return accelFunc(func(*efpga.Env) {}) })
	id := sys.Fabric.MustRegister(slow)
	var st ProgStatus
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		st = ProgramStatus(p, id)
	})
	sys.Run()
	if st != ProgWedged {
		t.Fatalf("poll status = %v, want %v", st, ProgWedged)
	}
	// The background stream still completes after the host gives up.
	if sys.Fabric.Current() != slow {
		t.Fatal("bitstream never configured")
	}
}

// TestOnAccelStartHook: the adapter-wide start notification must fire on
// every start path — direct install and the MMIO programming flow.
func TestOnAccelStartHook(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet})
	var started []string
	sys.Adapter.OnAccelStart = func(bs *efpga.Bitstream) { started = append(started, bs.Name) }
	bs := efpga.Synthesize(efpga.Design{Name: "hooked", LUTLogic: 20, PipelineDepth: 2},
		func() efpga.Accelerator { return accelFunc(func(*efpga.Env) {}) })
	if err := sys.InstallAccelerator(bs); err != nil {
		t.Fatal(err)
	}
	var prog bool
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		prog = Program(p, 0) // reprogram the same image over MMIO
	})
	sys.Run()
	if !prog {
		t.Fatal("programming failed")
	}
	if len(started) != 2 || started[0] != "hooked" || started[1] != "hooked" {
		t.Fatalf("OnAccelStart fired %v, want twice for %q", started, "hooked")
	}
}

// TestProgramAsyncBusyRejected: starting a second programming flow while
// one is streaming must be rejected without disturbing the first.
func TestProgramAsyncBusyRejected(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet})
	bs := efpga.Synthesize(efpga.Design{Name: "solo", LUTLogic: 20, PipelineDepth: 2},
		func() efpga.Accelerator { return accelFunc(func(*efpga.Env) {}) })
	id := sys.Fabric.MustRegister(bs)
	var firstErr, secondErr error
	firstDone := false
	sys.Adapter.ProgramAsync(id, func(err error) { firstDone = true; firstErr = err })
	sys.Adapter.ProgramAsync(id, func(err error) { secondErr = err })
	sys.Run()
	if !firstDone || firstErr != nil {
		t.Fatalf("first flow: done=%v err=%v", firstDone, firstErr)
	}
	if secondErr == nil {
		t.Fatal("concurrent programming flow was not rejected")
	}
	if sys.Fabric.Current() != bs {
		t.Fatal("first flow did not configure the fabric")
	}
}

// Duet's hardware blocks — the coherence homes, the Control Hub's
// soft-register engine, the Memory Hubs and the CDC bridges — run as
// engine callbacks, not as simulation threads: a built system holds no
// thread before or after it runs.
func TestNewStartsNoThreads(t *testing.T) {
	for _, cfg := range []Config{{Cores: 1, MemHubs: 1, Style: StyleDuet}, {Cores: 1, MemHubs: 1, Style: StyleFPSoC, RegSpecs: echoSpecs()}} {
		sys := New(cfg)
		before := sys.Eng.LiveThreads()
		sys.Run()
		if after := sys.Eng.LiveThreads(); before != 0 || after != 0 {
			t.Fatalf("%s: %d live threads after New, %d after Run; want 0", cfg.Style, before, after)
		}
	}
}
