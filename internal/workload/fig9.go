// Package workload implements the paper's synthetic benchmarks: the
// CPU–eFPGA communication latency study (Fig. 9), the single-processor
// bandwidth study (Fig. 10), and the multi-processor contention study
// (Fig. 11). All three run on Dolly-P1M1 / PpM1 instances built through
// the public duet API, with the eFPGA emulating a simple scratchpad
// memory (paper §V-C).
package workload

import (
	"encoding/json"

	"duet"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/mem"
	"duet/internal/params"
	"duet/internal/sim"
	"duet/internal/study"
)

// Mechanism names the six communication mechanisms of Fig. 9/10.
type Mechanism int

// Communication mechanisms (paper §V-C).
const (
	NormalReg Mechanism = iota
	ShadowReg
	CPUPullProxy
	CPUPullSlow
	FPGAPullProxy
	FPGAPullSlow
	NumMechanisms
)

func (m Mechanism) String() string {
	return [...]string{
		"Normal Reg.",
		"Shadow Reg. (This Work)",
		"CPU Pull w/ Proxy Cache (This Work)",
		"CPU Pull w/ Slow Cache",
		"eFPGA Pull w/ Proxy Cache (This Work)",
		"eFPGA Pull w/ Slow Cache",
	}[m]
}

// MarshalJSON encodes the mechanism as its String name for
// machine-readable study output.
func (m Mechanism) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// Fig9Row is one bar of Fig. 9: a mechanism's round-trip latency at one
// eFPGA frequency, broken into the paper's four categories.
type Fig9Row struct {
	Mechanism Mechanism
	FreqMHz   float64
	Total     sim.Time
	Breakdown [sim.NumCategories]sim.Time
}

// latency-study soft register layout.
const (
	regToFPGA = 0 // FPGA-bound FIFO (shadow) / staging (normal)
	regToCPU  = 1 // CPU-bound FIFO (shadow)
	regNormA  = 2 // plain in-fabric register
	regNormB  = 3 // plain in-fabric register
	regCmd    = 4 // FPGA-bound FIFO: commands to the accelerator
	regDone   = 5 // CPU-bound FIFO: completion signals
)

func latencySpecs() []core.SoftRegSpec {
	return []core.SoftRegSpec{
		{Kind: core.RegFIFOToFPGA},
		{Kind: core.RegFIFOToCPU},
		{Kind: core.RegNormal},
		{Kind: core.RegNormal},
		{Kind: core.RegFIFOToFPGA},
		{Kind: core.RegFIFOToCPU},
	}
}

// lineHomedAt finds a line address >= start homed at the wanted tile.
func lineHomedAt(sys *duet.System, start uint64, tile int) uint64 {
	for a := start &^ (params.LineBytes - 1); ; a += params.LineBytes {
		if sys.Dom.HomeOf(a) == tile {
			return a
		}
	}
}

// fig9Accel drives the eFPGA side of the latency probes. Commands arrive
// on regCmd: 1 = store a value to addrX (making the proxy the owner),
// 2 = load addrY once (the tagged eFPGA-pull probe).
type fig9Accel struct {
	addrX, addrY uint64
	pullTX       *sim.TX
	pullDone     func(total sim.Time)
}

func (a *fig9Accel) Start(env *efpga.Env) {
	env.Eng.Go("fig9accel", func(t *sim.Thread) {
		// Prestage one value in the CPU-bound FIFO so shadow reads hit.
		env.Regs.PushCPU(t, regToCPU, 42)
		for {
			cmd := env.Regs.PopFPGA(t, regCmd)
			switch cmd {
			case 1:
				var buf [8]byte
				buf[0] = 0x5a
				if err := env.Mem[0].Store(t, a.addrX, buf[:]); err != nil {
					return
				}
				env.Regs.PushCPU(t, regDone, 1)
			case 2:
				port := env.Mem[0].(*core.Port)
				port.TagNext(a.pullTX)
				start := t.Now()
				if _, err := env.Mem[0].Load(t, a.addrY, 8); err != nil {
					return
				}
				a.pullDone(t.Now() - start)
				env.Regs.PushCPU(t, regDone, 1)
			}
		}
	})
}

func buildLatencySystem(style duet.Style, freqMHz float64) (*duet.System, *fig9Accel) {
	sys := duet.New(duet.Config{
		Cores: 1, MemHubs: 1, Style: style,
		RegSpecs: latencySpecs(), FPGAFreqMHz: freqMHz,
	})
	acc := &fig9Accel{}
	// Pull targets: X (CPU pulls from the proxy) homed at the adapter
	// tile; Y (eFPGA pulls from the CPU's L2) homed at the core tile.
	acc.addrX = lineHomedAt(sys, sys.Alloc(4096), sys.Adapter.CtrlTile())
	acc.addrY = lineHomedAt(sys, sys.Alloc(4096), 0)
	bs := efpga.Synthesize(efpga.Design{Name: "scratchpad", LUTLogic: 200, RAMKb: 32, RegBits: 256, PipelineDepth: 3},
		func() efpga.Accelerator { return acc })
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		panic(err)
	}
	sys.Fabric.SetFreqMHz(freqMHz) // override the bitstream Fmax cap: this study sweeps the clock
	sys.Adapter.StartAccelerator()
	return sys, acc
}

// MeasureLatency runs the single-transaction round-trip latency probe for
// one mechanism at one eFPGA frequency.
func MeasureLatency(mech Mechanism, freqMHz float64) Fig9Row {
	style := duet.StyleDuet
	if mech == CPUPullSlow || mech == FPGAPullSlow {
		style = duet.StyleFPSoC
	}
	sys, acc := buildLatencySystem(style, freqMHz)
	defer sys.Close()
	row := Fig9Row{Mechanism: mech, FreqMHz: freqMHz}

	wtx := sim.NewTX(0)
	rtx := sim.NewTX(0)
	var total sim.Time

	sys.Cores[0].Run("probe", func(p cpu.Proc) {
		duet.EnableHub(p, 0, false, false, false)
		switch mech {
		case NormalReg:
			p.Exec(200) // settle
			start := p.Now()
			sys.Cores[0].TagNextMMIO(wtx)
			p.MMIOWrite64(duet.SoftRegAddr(regNormA), 7)
			sys.Cores[0].TagNextMMIO(rtx)
			p.MMIORead64(duet.SoftRegAddr(regNormB))
			total = p.Now() - start
		case ShadowReg:
			// The CPU-bound FIFO was prestaged by the accelerator; wait
			// for the prestage to cross the CDC.
			p.Exec(2000)
			start := p.Now()
			sys.Cores[0].TagNextMMIO(wtx)
			p.MMIOWrite64(duet.SoftRegAddr(regToFPGA), 7)
			sys.Cores[0].TagNextMMIO(rtx)
			p.MMIORead64(duet.SoftRegAddr(regToCPU))
			total = p.Now() - start
		case CPUPullProxy, CPUPullSlow:
			p.MMIOWrite64(duet.SoftRegAddr(regCmd), 1) // accel stores to X
			p.MMIORead64(duet.SoftRegAddr(regDone))
			p.Exec(100)
			start := p.Now()
			sys.Cores[0].TagNextLoad(rtx)
			p.Load64(acc.addrX)
			total = p.Now() - start
		case FPGAPullProxy, FPGAPullSlow:
			p.Store64(acc.addrY, 0xbeef) // CPU's L2 takes M
			acc.pullTX = rtx
			acc.pullDone = func(d sim.Time) { total = d }
			p.MMIOWrite64(duet.SoftRegAddr(regCmd), 2)
			p.MMIORead64(duet.SoftRegAddr(regDone))
		}
	})
	sys.Run()

	row.Total = total
	for c := sim.Category(0); c < sim.NumCategories; c++ {
		row.Breakdown[c] = wtx.Parts[c] + rtx.Parts[c]
	}
	// Clamp attribution to the measured total (issue overlap can
	// double-count the odd cycle).
	var attr sim.Time
	for _, v := range row.Breakdown {
		attr += v
	}
	if attr > row.Total && attr > 0 {
		scale := float64(row.Total) / float64(attr)
		for c := range row.Breakdown {
			row.Breakdown[c] = sim.Time(float64(row.Breakdown[c]) * scale)
		}
	}
	return row
}

// Fig9 regenerates the latency study across mechanisms and frequencies
// on a default-width (GOMAXPROCS) study pool.
func Fig9(freqs []float64) []Fig9Row { return Fig9P(0, freqs) }

// Fig9P regenerates Fig. 9 on a parallel-wide study pool (<= 0 selects
// GOMAXPROCS). Every (mechanism, frequency) cell simulates a complete
// independent System, so the rows are identical for every pool width.
func Fig9P(parallel int, freqs []float64) []Fig9Row {
	if len(freqs) == 0 {
		freqs = []float64{100, 200, 500}
	}
	return study.Run(parallel, int(NumMechanisms)*len(freqs), func(i int) Fig9Row {
		return MeasureLatency(Mechanism(i/len(freqs)), freqs[i%len(freqs)])
	})
}

// lineOf truncates an address to its cache line.
func lineOf(addr uint64) uint64 { return addr &^ (mem.LineBytes - 1) }
