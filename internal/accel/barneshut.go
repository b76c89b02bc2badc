package accel

import (
	"fmt"
	"math"

	"duet/internal/coherence"
	"duet/internal/efpga"
	"duet/internal/sim"
)

// BarnesHut provides the two fine-grained force accelerators of the
// Barnes-Hut example (paper §III-A2, §V-D, P4M1): ApproxForce (low-order
// approximation against a cell's center of mass) and CalcForce (direct
// particle-particle force). The processors handle the dynamic control
// flow — tree traversal and the opening test — and stream force work
// items to the eFPGA; two pipelined units serve two cores each, and
// per-particle force accumulators live in fabric registers until the
// processor flushes them.
//
// Register layout:
//
//	0, 1: work FIFOs (FPGA-bound; unit 0 serves cores 0-1, unit 1 cores 2-3)
//	2..5: per-core result FIFOs (CPU-bound)
//	6: plain shadow: particles base address
//	7: plain shadow: nodes base address
type BarnesHut struct {
	Cores int
}

// BarnesHut register indices.
const (
	BHWork0Reg    = 0
	BHWork1Reg    = 1
	BHResultReg0  = 2 // + coreID
	BHPartBaseReg = 6
	BHNodeBaseReg = 7
	BHNumRegs     = 8
)

// Work item opcodes, packed as op | core<<4 | index<<16.
const (
	BHOpSetParticle = 1
	BHOpApprox      = 2
	BHOpCalc        = 3
	BHOpFlush       = 4
)

// BHPack packs a work item.
func BHPack(op, core int, index uint32) uint64 {
	return uint64(op) | uint64(core)<<4 | uint64(index)<<16
}

// BHBodyBytes is the in-memory footprint of one body record
// (x, y, z, mass as float64).
const BHBodyBytes = 32

// bhPipeCycles is the per-item datapath cost of the pipelined force units.
const bhPipeCycles = 2

// BHG is the gravitational constant used by all implementations.
const BHG = 6.674e-11

// BHSoftening avoids singularities at tiny separations.
const BHSoftening = 1e-9

// BHForce computes the gravitational force exerted on a body at (px,py,pz)
// with mass pm by a body/cell at (qx,qy,qz) with mass qm. Shared by the
// accelerator, the CPU baseline and the functional checks so all three
// compute bit-identical interactions.
func BHForce(px, py, pz, pm, qx, qy, qz, qm float64) (fx, fy, fz float64) {
	dx, dy, dz := qx-px, qy-py, qz-pz
	r2 := dx*dx + dy*dy + dz*dz + BHSoftening
	inv := 1 / math.Sqrt(r2)
	f := BHG * pm * qm * inv * inv * inv
	return f * dx, f * dy, f * dz
}

type bhAccum struct{ fx, fy, fz float64 }

// Start spawns the two force units.
func (a BarnesHut) Start(env *efpga.Env) {
	cores := a.Cores
	if cores == 0 {
		cores = 4
	}
	acc := make([]bhAccum, cores)
	px := make([]float64, cores)
	py := make([]float64, cores)
	pz := make([]float64, cores)
	pm := make([]float64, cores)

	// Each unit is a two-stage pipeline: stage 1 pops a work item and
	// issues its body loads; stage 2 awaits the loads and runs the force
	// datapath. One item's loads overlap the previous item's compute, so
	// unit throughput approaches the load bandwidth rather than the load
	// latency.
	type staged struct {
		op   int
		core int
		h1   uint64 // line-load handles (0 = no loads)
		h2   uint64
	}
	unit := func(unitIdx int, workReg int) {
		env.Eng.Go(fmt.Sprintf("bh.unit%d", unitIdx), func(t *sim.Thread) {
			port := env.Mem[0]
			var pipe sim.Queue[staged]
			retire := func() bool {
				s := pipe.Pop()
				var x, y, z, m float64
				if s.h1 != 0 {
					b1, err1 := port.Await(t, s.h1)
					b2, err2 := port.Await(t, s.h2)
					if err1 != nil || err2 != nil {
						return false
					}
					x = math.Float64frombits(coherence.Uint64At(b1[0:8]))
					y = math.Float64frombits(coherence.Uint64At(b1[8:16]))
					z = math.Float64frombits(coherence.Uint64At(b2[0:8]))
					m = math.Float64frombits(coherence.Uint64At(b2[8:16]))
				}
				c := s.core
				switch s.op {
				case BHOpSetParticle:
					px[c], py[c], pz[c], pm[c] = x, y, z, m
					acc[c] = bhAccum{}
				case BHOpApprox, BHOpCalc:
					t.SleepCycles(env.Clk, bhPipeCycles)
					fx, fy, fz := BHForce(px[c], py[c], pz[c], pm[c], x, y, z, m)
					acc[c].fx += fx
					acc[c].fy += fy
					acc[c].fz += fz
				case BHOpFlush:
					env.Regs.PushCPU(t, BHResultReg0+c, math.Float64bits(acc[c].fx))
					env.Regs.PushCPU(t, BHResultReg0+c, math.Float64bits(acc[c].fy))
					env.Regs.PushCPU(t, BHResultReg0+c, math.Float64bits(acc[c].fz))
				}
				return true
			}
			for {
				// Stage 1: accept the next item and issue its loads —
				// but a flush or set must wait for older same-core items,
				// so the pipeline drains when one is at the head.
				var item uint64
				if pipe.Len() > 0 {
					var got bool
					item, got = env.Regs.TryPopFPGA(workReg)
					if !got {
						if !retire() {
							return
						}
						continue
					}
				} else {
					item = env.Regs.PopFPGA(t, workReg)
				}
				op := int(item & 0xf)
				c := int(item >> 4 & 0xfff)
				idx := uint32(item >> 16)
				s := staged{op: op, core: c}
				switch op {
				case BHOpSetParticle, BHOpCalc:
					addr := env.Regs.ReadPlain(BHPartBaseReg) + uint64(idx)*BHBodyBytes
					s.h1 = port.LoadAsync(t, addr, 16)
					s.h2 = port.LoadAsync(t, addr+16, 16)
				case BHOpApprox:
					addr := env.Regs.ReadPlain(BHNodeBaseReg) + uint64(idx)*BHBodyBytes
					s.h1 = port.LoadAsync(t, addr, 16)
					s.h2 = port.LoadAsync(t, addr+16, 16)
				}
				pipe.Push(s)
				for pipe.Len() >= 2 {
					if !retire() {
						return
					}
				}
			}
		})
	}
	unit(0, BHWork0Reg)
	unit(1, BHWork1Reg)
}

// BHWorkReg maps a core to its unit's work FIFO register.
func BHWorkReg(core int) int {
	if core < 2 {
		return BHWork0Reg
	}
	return BHWork1Reg
}

// NewBarnesHutBitstream synthesizes the Barnes-Hut force units.
func NewBarnesHutBitstream(cores int) *efpga.Bitstream {
	return Synthesize("Barnes-Hut", func() efpga.Accelerator { return BarnesHut{Cores: cores} })
}
