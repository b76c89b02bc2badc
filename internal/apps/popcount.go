package apps

import (
	"fmt"
	"math/bits"

	"duet"
	"duet/internal/accel"
	"duet/internal/core"
	"duet/internal/cpu"
)

// PopcountConfig sizes the popcount benchmark.
type PopcountConfig struct {
	Vectors int
	Seed    uint64
}

// DefaultPopcountConfig returns the Fig. 12 configuration.
func DefaultPopcountConfig() PopcountConfig { return PopcountConfig{Vectors: 96, Seed: 5} }

// RunPopcount executes the popcount benchmark (P1M1, fine-grained): the
// processor-only baseline uses a byte look-up algorithm (the Ariane has
// no BitManip extension, paper §V-D) with the table in real simulated
// memory.
func RunPopcount(v Variant, cfg PopcountConfig) Result {
	h := harness{cores: 1, memHubs: 1, bitstream: accel.NewPopcountBitstream, regs: []core.SoftRegSpec{
		{Kind: core.RegFIFOToFPGA}, // PopCmdReg
		{Kind: core.RegFIFOToCPU},  // PopResultReg
	}}
	return h.run("popcount", v, func(sys *duet.System, res *Result) func() error {
		rng := newRNG(cfg.Seed)
		vecs := sys.Alloc(cfg.Vectors * accel.PopVectorBytes)
		counts := sys.Alloc(cfg.Vectors * 8)
		want := make([]int, cfg.Vectors)
		for i := 0; i < cfg.Vectors; i++ {
			for w := 0; w < accel.PopVectorBytes/8; w++ {
				val := rng.next()
				sys.Dom.DRAM.Write64(vecs+uint64(i*accel.PopVectorBytes+w*8), val)
				want[i] += bits.OnesCount64(val)
			}
		}
		// Byte-popcount lookup table (256 x 4B) for the software baseline.
		table := sys.Alloc(256 * 4)
		for b := 0; b < 256; b++ {
			sys.Dom.DRAM.Write32(table+uint64(b*4), uint32(bits.OnesCount8(uint8(b))))
		}

		sys.Cores[0].Run("popcount", func(p cpu.Proc) {
			if v != VariantCPU {
				duet.EnableHub(p, 0, false, false, false)
			}
			// Warm caches before the measured region (paper §V-A).
			warm(p, vecs, cfg.Vectors*accel.PopVectorBytes)
			warm(p, table, 256*4)
			start := p.Now()
			for i := 0; i < cfg.Vectors; i++ {
				addr := vecs + uint64(i*accel.PopVectorBytes)
				var count uint64
				if v == VariantCPU {
					for w := 0; w < accel.PopVectorBytes/8; w++ {
						word := p.Load64(addr + uint64(w*8))
						for b := 0; b < 8; b++ {
							p.Exec(4) // shift, mask, index scale, address add
							count += uint64(p.Load32(table + uint64(word>>(8*b)&0xff)*4))
							p.Exec(2) // accumulate + loop bookkeeping
						}
					}
				} else {
					p.MMIOWrite64(duet.SoftRegAddr(accel.PopCmdReg), addr)
					count = p.MMIORead64(duet.SoftRegAddr(accel.PopResultReg))
				}
				p.Store64(counts+uint64(i*8), count)
			}
			res.Runtime = p.Now() - start
		})
		return func() error {
			for i := range want {
				if got := sys.ReadMem64(counts + uint64(i*8)); got != uint64(want[i]) {
					return fmt.Errorf("popcount[%d] = %d, want %d", i, got, want[i])
				}
			}
			return nil
		}
	})
}
