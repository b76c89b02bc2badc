package apps

import (
	"fmt"
	"math"

	"duet"
	"duet/internal/accel"
	"duet/internal/core"
	"duet/internal/cpu"
)

// TangentConfig sizes the tangent benchmark.
type TangentConfig struct {
	Calls int
	Seed  uint64
}

// DefaultTangentConfig returns the Fig. 12 configuration.
func DefaultTangentConfig() TangentConfig { return TangentConfig{Calls: 192, Seed: 3} }

// tanSWCycles is the cost of a software (libm-style) tangent on the
// in-order core: argument reduction plus polynomial evaluation.
const tanSWCycles = 110

// RunTangent executes the tangent benchmark (P1M0, fine-grained).
func RunTangent(v Variant, cfg TangentConfig) Result {
	rng := newRNG(cfg.Seed)
	xs := make([]float64, cfg.Calls)
	for i := range xs {
		xs[i] = rng.float()*2.4 - 1.2
	}

	h := harness{cores: 1, bitstream: accel.NewTangentBitstream, regs: []core.SoftRegSpec{
		{Kind: core.RegFIFOToFPGA}, // TanArgReg
		{Kind: core.RegFIFOToCPU},  // TanResultReg
	}}
	return h.run("tangent", v, func(sys *duet.System, res *Result) func() error {
		in := sys.Alloc(cfg.Calls * 8)
		out := sys.Alloc(cfg.Calls * 8)
		for i, x := range xs {
			sys.Dom.DRAM.Write64(in+uint64(i*8), math.Float64bits(x))
		}

		sys.Cores[0].Run("tangent", func(p cpu.Proc) {
			warm(p, in, cfg.Calls*8)
			warm(p, out, cfg.Calls*8)
			start := p.Now()
			for i := 0; i < cfg.Calls; i++ {
				bits := p.Load64(in + uint64(i*8))
				var y uint64
				if v == VariantCPU {
					p.Exec(tanSWCycles)
					y = math.Float64bits(math.Tan(math.Float64frombits(bits)))
				} else {
					p.MMIOWrite64(duet.SoftRegAddr(accel.TanArgReg), bits)
					y = p.MMIORead64(duet.SoftRegAddr(accel.TanResultReg))
				}
				p.Store64(out+uint64(i*8), y)
			}
			res.Runtime = p.Now() - start
		})

		// Functional check: CPU results must equal libm; accelerator
		// results must equal the PWL model and stay within the 0.3%
		// error bound.
		return func() error {
			for i, x := range xs {
				got := math.Float64frombits(sys.ReadMem64(out + uint64(i*8)))
				exact := math.Tan(x)
				if v == VariantCPU {
					if got != exact {
						return fmt.Errorf("tangent[%d]: sw result %v != %v", i, got, exact)
					}
					continue
				}
				if got != accel.PWLTan(x) {
					return fmt.Errorf("tangent[%d]: accel result diverges from PWL model", i)
				}
				if relErr := math.Abs(got-exact) / math.Max(math.Abs(exact), 1e-6); relErr > 0.003 {
					return fmt.Errorf("tangent[%d]: PWL error %.4f%% exceeds 0.3%%", i, relErr*100)
				}
			}
			return nil
		}
	})
}
