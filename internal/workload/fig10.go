package workload

import (
	"duet"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/params"
	"duet/internal/sim"
	"duet/internal/study"
)

// Fig10Row is one point of Fig. 10: a mechanism's sustained bandwidth at
// one eFPGA frequency.
type Fig10Row struct {
	Mechanism Mechanism
	FreqMHz   float64
	MBps      float64
}

// The bandwidth study passes 512 quad-words (4 KB) from the processor to
// the eFPGA and back (paper §V-C).
const (
	xferWords = 512
	xferBytes = xferWords * 8
)

// Bandwidth-study soft register layout.
const (
	bwRegData  = 0 // register-mechanism data register (FIFO or normal)
	bwRegData2 = 1 // CPU-bound side
	bwRegBaseA = 2 // plain: source buffer base
	bwRegBaseB = 3 // plain: destination buffer base
	bwRegWake  = 4 // normal, claimed: blocking "go" read
)

func bwSpecs(shadow bool) []core.SoftRegSpec {
	kindW, kindR := core.RegNormal, core.RegNormal
	if shadow {
		kindW, kindR = core.RegFIFOToFPGA, core.RegFIFOToCPU
	}
	return []core.SoftRegSpec{
		{Kind: kindW, Depth: 8},
		{Kind: kindR, Depth: 8},
		{Kind: core.RegPlain},
		{Kind: core.RegPlain},
		{Kind: core.RegNormal},
	}
}

// bwAccel is the eFPGA side of the bandwidth study: a scratchpad memory
// plus a soft controller (paper Fig. 3).
type bwAccel struct {
	shadowRegs bool
	// measured legs
	pullLeg, pushLeg sim.Time
}

func (a *bwAccel) Start(env *efpga.Env) {
	if a.shadowRegs {
		env.Eng.Go("bw.regs", func(t *sim.Thread) {
			for i := 0; i < xferWords; i++ {
				env.Regs.PopFPGA(t, bwRegData)
			}
			for i := 0; i < xferWords; i++ {
				env.Regs.PushCPU(t, bwRegData2, uint64(i))
			}
		})
		return
	}
	env.Regs.Claim(bwRegWake)
	env.Eng.Go("bw.mem", func(t *sim.Thread) {
		op := env.Regs.WaitOp(t, bwRegWake)
		baseA := env.Regs.ReadPlain(bwRegBaseA)
		baseB := env.Regs.ReadPlain(bwRegBaseB)
		port := env.Mem[0]

		// Pull leg: load the whole array into the scratchpad, one line
		// per request, pipelined up to the hub's MSHR window.
		start := t.Now()
		const window = 8
		var handles sim.Queue[uint64]
		await := func(n int) {
			for handles.Len() > n {
				if _, err := port.Await(t, *handles.At(0)); err != nil {
					return
				}
				handles.Pop()
			}
		}
		for off := 0; off < xferBytes; off += 16 {
			handles.Push(port.LoadAsync(t, baseA+uint64(off), 16))
			await(window)
		}
		await(0)
		a.pullLeg = t.Now() - start

		// Push leg: store the array back, 8 bytes per request (the hub
		// store-width limit), pipelined.
		start = t.Now()
		var buf [8]byte
		for off := 0; off < xferBytes; off += 8 {
			handles.Push(port.StoreAsync(t, baseB+uint64(off), buf[:]))
			await(window)
		}
		await(0)
		a.pushLeg = t.Now() - start

		// Unblock the processor by acknowledging its blocked read.
		env.Regs.Complete(op, 1)
	})
}

// MeasureBandwidth runs one mechanism at one frequency and reports MB/s.
func MeasureBandwidth(mech Mechanism, freqMHz float64) Fig10Row {
	mbps := measureBandwidth(mech, freqMHz, params.HubOutstanding)
	return Fig10Row{Mechanism: mech, FreqMHz: freqMHz, MBps: mbps}
}

// measureBandwidth is MeasureBandwidth with the Proxy Cache's in-flight
// request window set to outstanding.
func measureBandwidth(mech Mechanism, freqMHz float64, outstanding int) float64 {
	style := duet.StyleDuet
	if mech == CPUPullSlow || mech == FPGAPullSlow {
		style = duet.StyleFPSoC
	}
	shadow := mech == ShadowReg
	sys := duet.New(duet.Config{
		Cores: 1, MemHubs: 1, Style: style,
		RegSpecs: bwSpecs(shadow), FPGAFreqMHz: freqMHz,
	})
	defer sys.Close()
	sys.Adapter.Hub(0).SetMaxOutstanding(outstanding)
	acc := &bwAccel{shadowRegs: mech == ShadowReg || mech == NormalReg}
	install(sys, scratchpad, acc, freqMHz)

	bufA := sys.Alloc(xferBytes)
	bufB := sys.Alloc(xferBytes)
	var mbps float64
	var cpuLoadLeg sim.Time

	sys.Cores[0].Run("bw", func(p cpu.Proc) {
		duet.EnableHub(p, 0, false, false, false)
		switch mech {
		case NormalReg, ShadowReg:
			// Register transfer: one integer per loop iteration, out then
			// back (paper §V-C).
			start := p.Now()
			for i := 0; i < xferWords; i++ {
				p.Exec(4)
				p.MMIOWrite64(duet.SoftRegAddr(bwRegData), uint64(i))
			}
			for i := 0; i < xferWords; i++ {
				p.Exec(4)
				p.MMIORead64(duet.SoftRegAddr(bwRegData2))
			}
			elapsed := p.Now() - start
			mbps = bytesPerSecMB(2*xferBytes, elapsed)
		default:
			// Shared-memory transfer.
			for i := 0; i < xferWords; i++ {
				p.Store64(bufA+uint64(i*8), uint64(i)|0xab00000000)
			}
			p.MMIOWrite64(duet.SoftRegAddr(bwRegBaseA), bufA)
			p.MMIOWrite64(duet.SoftRegAddr(bwRegBaseB), bufB)
			p.Fence()
			p.MMIORead64(duet.SoftRegAddr(bwRegWake)) // awaken eFPGA; block
			start := p.Now()
			for i := 0; i < xferWords; i++ {
				p.Exec(2)
				p.Load64(bufB + uint64(i*8))
			}
			cpuLoadLeg = p.Now() - start
		}
	})
	sys.Run()

	switch mech {
	case FPGAPullProxy, FPGAPullSlow:
		mbps = bytesPerSecMB(xferBytes, acc.pullLeg)
	case CPUPullProxy, CPUPullSlow:
		mbps = bytesPerSecMB(xferBytes, acc.pushLeg+cpuLoadLeg)
	}
	return mbps
}

// Fig10P regenerates Fig. 10 on a parallel-wide study pool (<= 0 selects
// GOMAXPROCS); rows are identical for every pool width.
func Fig10P(parallel int, freqs []float64) []Fig10Row {
	if len(freqs) == 0 {
		freqs = []float64{20, 50, 100, 200, 500}
	}
	return study.Run(parallel, int(NumMechanisms)*len(freqs), func(i int) Fig10Row {
		return MeasureBandwidth(Mechanism(i/len(freqs)), freqs[i%len(freqs)])
	})
}

func bytesPerSecMB(bytes int, d sim.Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}
