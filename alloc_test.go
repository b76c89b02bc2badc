package duet

import (
	"testing"

	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/sim"
	"duet/internal/softcache"
)

// Allocation gates for the processor↔eFPGA request paths. Each runs a
// fresh system at n and at 4n operations and bounds the allocations the
// extra 3n operations add: a per-request record that is not recycled
// shows up as a count that grows with n.

// allocGrowth reports the allocations run(4n) makes beyond run(n).
func allocGrowth(n int, run func(n int)) float64 {
	small := testing.AllocsPerRun(3, func() { run(n) })
	large := testing.AllocsPerRun(3, func() { run(4 * n) })
	return large - small
}

// allocSlack absorbs one-off growth that does not scale per request: the
// event calendar's and the queues' backing arrays reaching their
// high-water mark at a different point of a longer run.
const allocSlack = 16

// Soft register indices of hubSpecs.
const (
	regToFPGA = 0 // FPGA-bound FIFO: the host's command
	regToCPU  = 1 // CPU-bound FIFO: the accelerator's answer
	regPlain  = 2 // plain shadow register
)

func hubSpecs() []core.SoftRegSpec {
	return []core.SoftRegSpec{{Kind: core.RegFIFOToFPGA}, {Kind: core.RegFIFOToCPU}, {Kind: core.RegPlain}}
}

// runMMIO issues n MMIO write+read round trips to a plain shadow register.
// One blocking CPU-bound FIFO read takes an interrupt mid-stall whose
// handler issues MMIO of its own while the read is outstanding, so the
// core has two round trips in flight at once.
func runMMIO(t testing.TB, n int) {
	sys := New(Config{Cores: 1, MemHubs: 0, Style: StyleDuet, RegSpecs: hubSpecs()})
	defer sys.Close()
	host := sys.Cores[0]
	bs := efpga.Synthesize(efpga.Design{Name: "irq", LUTLogic: 10, PipelineDepth: 2},
		func() efpga.Accelerator {
			return accelFunc(func(env *efpga.Env) {
				env.Eng.Go("irq", func(th *sim.Thread) {
					v := env.Regs.PopFPGA(th, regToFPGA)
					th.SleepCycles(env.Clk, 20) // the host is stalled on its read by now
					host.RaiseIRQ(cpu.IRQ{Cause: "test"})
					th.SleepCycles(env.Clk, 20)
					env.Regs.PushCPU(th, regToCPU, v+1)
				})
			})
		})
	if err := sys.InstallAccelerator(bs); err != nil {
		t.Fatal(err)
	}
	var nested, inHandler, stalled uint64
	host.SetIRQHandler(func(p cpu.Proc, irq cpu.IRQ) {
		nested++
		p.MMIOWrite64(SoftRegAddr(regPlain), 99)
		inHandler = p.MMIORead64(SoftRegAddr(regPlain))
	})
	var bad int
	host.Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(SoftRegAddr(regToFPGA), 41)
		stalled = p.MMIORead64(SoftRegAddr(regToCPU))
		for i := 0; i < n; i++ {
			p.MMIOWrite64(SoftRegAddr(regPlain), uint64(i))
			if p.MMIORead64(SoftRegAddr(regPlain)) != uint64(i) {
				bad++
			}
		}
	})
	if _, err := sys.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if nested != 1 || inHandler != 99 || stalled != 42 || bad != 0 {
		t.Fatalf("nested MMIO: handler ran %d times, read %d; stalled read %d (want 1, 99, 42); %d bad reads",
			nested, inHandler, stalled, bad)
	}
}

// runHub has an accelerator issue n blocking Memory Hub stores (load
// false) or loads (load true) that hit the Proxy Cache, through the same
// eight words.
func runHub(t testing.TB, n int, load bool) {
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet, RegSpecs: hubSpecs()})
	defer sys.Close()
	base := sys.Alloc(64)
	bs := efpga.Synthesize(efpga.Design{Name: "stream", LUTLogic: 10, PipelineDepth: 2},
		func() efpga.Accelerator {
			return accelFunc(func(env *efpga.Env) {
				env.Eng.Go("stream", func(th *sim.Thread) {
					count := env.Regs.PopFPGA(th, regToFPGA)
					var buf [8]byte
					var sum uint64
					for i := uint64(0); i < count; i++ {
						va := base + i%8*8
						if load {
							b, err := env.Mem[0].Load(th, va, 8)
							if err != nil {
								break
							}
							sum += uint64(b[0])
						} else {
							buf[0] = byte(i)
							if env.Mem[0].Store(th, va, buf[:]) != nil {
								break
							}
							sum++
						}
					}
					env.Regs.PushCPU(th, regToCPU, sum)
				})
			})
		})
	if err := sys.InstallAccelerator(bs); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		sys.Dom.DRAM.Write64(base+i*8, 1)
	}
	var got uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(HubSwitchAddr(0, core.SwEnable), 1)
		p.MMIOWrite64(SoftRegAddr(regToFPGA), uint64(n))
		got = p.MMIORead64(SoftRegAddr(regToCPU))
	})
	if _, err := sys.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if got != uint64(n) {
		t.Fatalf("accelerator finished %d of %d accesses", got, n)
	}
}

// softCacheBatch is how many stores runSoftCacheStores asks for at once:
// well under the watchdog's limit, and above the allocation gate's runs,
// so the gate measures stores rather than batch round trips.
const softCacheBatch = 1000

// programThreads are the threads runSoftCacheStores runs: the host's
// program and the accelerator kernel. Hardware blocks add none.
const programThreads = 2

// runSoftCacheStores has an accelerator write n words through a soft
// cache over Memory Hub 0, cycling through eight words; the host then
// reads the words back. The host hands the stores out in batches, each
// ended by a drain of the write buffer, so no MMIO read waits long
// enough to trip the adapter's watchdog. beforeRun runs once the system
// is built, just before it runs. It returns the most threads live at
// any store.
func runSoftCacheStores(tb testing.TB, n int, beforeRun func()) (peakThreads int) {
	sys := New(Config{Cores: 1, MemHubs: 1, Style: StyleDuet, RegSpecs: hubSpecs()})
	defer sys.Close()
	base := sys.Alloc(64)
	bs := efpga.Synthesize(efpga.Design{Name: "scstream", LUTLogic: 10, PipelineDepth: 2},
		func() efpga.Accelerator {
			return accelFunc(func(env *efpga.Env) {
				env.Eng.Go("scstream", func(th *sim.Thread) {
					sc := softcache.New(env, env.Mem[0], softcache.Config{})
					var i uint64
					for {
						count := env.Regs.PopFPGA(th, regToFPGA)
						var stored uint64
						for ; stored < count; stored++ {
							if sc.Store64(th, base+i%8*8, i) != nil {
								break
							}
							i++
							peakThreads = max(peakThreads, env.Eng.LiveThreads())
						}
						sc.Drain(th)
						env.Regs.PushCPU(th, regToCPU, stored)
					}
				})
			})
		})
	if err := sys.InstallAccelerator(bs); err != nil {
		tb.Fatal(err)
	}
	var got uint64
	var words [8]uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(HubSwitchAddr(0, core.SwEnable), 1)
		for left := n; left > 0; left -= softCacheBatch {
			p.MMIOWrite64(SoftRegAddr(regToFPGA), uint64(min(left, softCacheBatch)))
			got += p.MMIORead64(SoftRegAddr(regToCPU))
		}
		for k := range words {
			words[k] = p.Load64(base + uint64(k)*8)
		}
	})
	beforeRun()
	if _, err := sys.RunChecked(); err != nil {
		tb.Fatal(err)
	}
	if got != uint64(n) {
		tb.Fatalf("accelerator finished %d of %d stores", got, n)
	}
	for k, w := range words {
		// The last of the n stores to word k wrote the largest i < n with i%8 == k.
		if want := uint64((n-1-k)/8*8 + k); n > k && w != want {
			tb.Fatalf("word %d = %d after %d stores, want %d", k, w, n, want)
		}
	}
	return peakThreads
}

// runSoftRegFIFO streams n commands through the soft-register FIFOs: the
// host writes each into the FPGA-bound FIFO, which the accelerator pops,
// and then blocks on the CPU-bound FIFO until the accelerator pushes the
// answer, which it does only once the host's read is parked.
func runSoftRegFIFO(t testing.TB, n int) {
	sys := New(Config{Cores: 1, MemHubs: 0, Style: StyleDuet, RegSpecs: hubSpecs()})
	defer sys.Close()
	bs := efpga.Synthesize(efpga.Design{Name: "echo", LUTLogic: 10, PipelineDepth: 2},
		func() efpga.Accelerator {
			return accelFunc(func(env *efpga.Env) {
				env.Eng.Go("echo", func(th *sim.Thread) {
					for {
						v := env.Regs.PopFPGA(th, regToFPGA)
						th.SleepCycles(env.Clk, 20) // the host is stalled on its read by now
						env.Regs.PushCPU(th, regToCPU, v+1)
					}
				})
			})
		})
	if err := sys.InstallAccelerator(bs); err != nil {
		t.Fatal(err)
	}
	var bad int
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		// Each blocking read's watchdog stays queued for the whole limit
		// after the read completes. A limit of a few round trips bounds
		// how many are queued at once, so they do not scale with n.
		p.MMIOWrite64(MgrRegAddr(core.RegTimeout), 5000)
		for i := 0; i < n; i++ {
			p.MMIOWrite64(SoftRegAddr(regToFPGA), uint64(i))
			if p.MMIORead64(SoftRegAddr(regToCPU)) != uint64(i)+1 {
				bad++
			}
		}
	})
	if _, err := sys.RunChecked(); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d of %d blocking reads returned the wrong answer", bad, n)
	}
}

// TestSoftRegFIFOAllocs: the soft registers' queues keep their storage
// as they pop, so a blocking CPU-bound FIFO read and an FPGA-bound FIFO
// write allocate nothing once the queues have grown.
func TestSoftRegFIFOAllocs(t *testing.T) {
	const n = 200
	g := allocGrowth(n, func(n int) { runSoftRegFIFO(t, n) })
	t.Logf("%d more FIFO round trips: %+.0f allocations", 3*n, g)
	if g > allocSlack {
		t.Fatalf("%d more soft-register FIFO round trips allocated %.0f more objects, want at most %d", 3*n, g, allocSlack)
	}
}

func TestMMIORoundTripAllocs(t *testing.T) {
	const n = 200
	g := allocGrowth(n, func(n int) { runMMIO(t, n) })
	t.Logf("%d more round trips: %+.0f allocations", 3*n, g)
	if g > allocSlack {
		t.Fatalf("%d more MMIO round trips allocated %.0f more objects, want at most %d", 3*n, g, allocSlack)
	}
}

func TestHubStoreAllocs(t *testing.T) {
	const n = 200
	g := allocGrowth(n, func(n int) { runHub(t, n, false) })
	t.Logf("%d more stores: %+.0f allocations", 3*n, g)
	if g > allocSlack {
		t.Fatalf("%d more hub stores allocated %.0f more objects, want at most %d", 3*n, g, allocSlack)
	}
}

// TestSoftCacheStoreAllocs streams soft-cache stores through a real
// Memory Hub: the write buffer's entries are recycled and retire by
// callback, so more stores add no allocations and no threads.
func TestSoftCacheStoreAllocs(t *testing.T) {
	const n = 200
	peak := 0
	g := allocGrowth(n, func(n int) { peak = max(peak, runSoftCacheStores(t, n, func() {})) })
	t.Logf("%d more soft-cache stores: %+.0f allocations; at most %d threads live", 3*n, g, peak)
	if g > allocSlack {
		t.Fatalf("%d more soft-cache stores allocated %.0f more objects, want at most %d", 3*n, g, allocSlack)
	}
	if peak > programThreads {
		t.Fatalf("%d threads live during the store stream, want at most %d (the host and the accelerator kernel)", peak, programThreads)
	}
}

// TestHubLoadAllocs allows a load the one allocation efpga.MemIntf's API
// makes: the fresh result slice it returns.
func TestHubLoadAllocs(t *testing.T) {
	const n = 200
	g := allocGrowth(n, func(n int) { runHub(t, n, true) })
	t.Logf("%d more loads: %+.0f allocations", 3*n, g)
	if g > 3*n+allocSlack {
		t.Fatalf("%d more hub loads allocated %.0f more objects, want at most %d (one result slice each)", 3*n, g, 3*n+allocSlack)
	}
}

// BenchmarkMMIORoundTrip times one MMIO write and read of a plain shadow
// register (paper §II-F) on a one-core Duet system: the core's issue, the
// NoC both ways, the control hub's intake, decode and ordering engine,
// and the shadow register's access. One op is the write+read pair; the
// system is built once, so allocs/op reads the per-round-trip records.
func BenchmarkMMIORoundTrip(b *testing.B) {
	sys := New(Config{Cores: 1, MemHubs: 0, Style: StyleDuet, RegSpecs: hubSpecs()})
	defer sys.Close()
	n := b.N
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		for i := 0; i < n; i++ {
			p.MMIOWrite64(SoftRegAddr(regPlain), uint64(i))
			p.MMIORead64(SoftRegAddr(regPlain))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	sys.Run()
}

// BenchmarkSoftCacheStore times one uint64 store through a soft cache
// over a Memory Hub (paper §II-C): the write buffer's entry, the hub's
// write-through to the Proxy Cache and the entry's retirement. The
// system is built once, so allocs/op reads the per-store records.
func BenchmarkSoftCacheStore(b *testing.B) {
	runSoftCacheStores(b, b.N, func() {
		b.ReportAllocs()
		b.ResetTimer()
	})
}
