// Quickstart: build a Dolly-P1M1 system, program a small accelerator
// through the FPGA manager's MMIO flow, and exchange data with it through
// Shadow Registers and coherent shared memory.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"duet"
	"duet/internal/coherence"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/sim"
)

// multiplyAccumulate is a tiny fine-grained accelerator: it pops (a, b)
// pairs from an FPGA-bound FIFO, computes a*b + c where c lives in
// coherent shared memory, and pushes results into a CPU-bound FIFO.
type multiplyAccumulate struct{ cAddr uint64 }

func (m *multiplyAccumulate) Start(env *efpga.Env) {
	env.Eng.Go("mac", func(t *sim.Thread) {
		for {
			a := env.Regs.PopFPGA(t, 0)
			b := env.Regs.PopFPGA(t, 0)
			t.SleepCycles(env.Clk, 3) // multiplier pipeline
			cBytes, err := env.Mem[0].Load(t, m.cAddr, 8)
			if err != nil {
				return
			}
			c := coherence.Uint64At(cBytes)
			env.Regs.PushCPU(t, 1, a*b+c)
		}
	})
}

func main() {
	// Dolly-P1M1: one core, one control hub + one memory hub.
	sys := duet.New(duet.Config{
		Cores:   1,
		MemHubs: 1,
		Style:   duet.StyleDuet,
		RegSpecs: []core.SoftRegSpec{
			{Kind: core.RegFIFOToFPGA}, // operand FIFO
			{Kind: core.RegFIFOToCPU},  // result FIFO
		},
	})
	defer sys.Close()

	cAddr := sys.Alloc(64)
	bs := efpga.Synthesize(efpga.Design{
		Name: "mac", Multipliers: 1, Adders: 1, LUTLogic: 120,
		RegBits: 256, PipelineDepth: 4,
	}, func() efpga.Accelerator { return &multiplyAccumulate{cAddr: cAddr} })
	id := sys.Fabric.MustRegister(bs)
	fmt.Printf("synthesized %q: Fmax=%.0fMHz, %d LUTs, %.3fmm2\n",
		bs.Name, bs.FmaxMHz, bs.Res.LUTs, bs.Report.AreaMM2)

	sys.Cores[0].Run("host", func(p cpu.Proc) {
		// Program the eFPGA through the FPGA manager (integrity-checked).
		if !duet.Program(p, id) {
			log.Fatal("programming failed")
		}
		duet.EnableHub(p, 0, false, false, false)

		// The accumulator constant lives in coherent shared memory: the
		// accelerator pulls it through its Proxy Cache.
		p.Store64(cAddr, 1000)

		for i := uint64(1); i <= 5; i++ {
			start := p.Now()
			p.MMIOWrite64(duet.SoftRegAddr(0), i)
			p.MMIOWrite64(duet.SoftRegAddr(0), i+10)
			got := p.MMIORead64(duet.SoftRegAddr(1))
			fmt.Printf("  %2d * %2d + 1000 = %4d   (round trip %v)\n", i, i+10, got, p.Now()-start)
		}

		// Update the constant: coherence makes the change visible to the
		// accelerator with no flushes or explicit synchronization.
		p.Store64(cAddr, 2000)
		p.MMIOWrite64(duet.SoftRegAddr(0), 6)
		p.MMIOWrite64(duet.SoftRegAddr(0), 7)
		fmt.Printf("  after store c=2000: 6*7+c = %d\n", p.MMIORead64(duet.SoftRegAddr(1)))
	})

	if t, err := sys.RunChecked(); err != nil {
		log.Fatalf("coherence check failed: %v", err)
	} else {
		fmt.Printf("done at %v (coherence invariants verified)\n", t)
	}
}
