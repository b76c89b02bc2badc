package apps

import (
	"fmt"
	"sort"

	"duet"
	"duet/internal/accel"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
)

// SortConfig sizes the sort benchmark.
type SortConfig struct {
	N      int // array size: 32, 64 or 128 (paper Table II)
	Rounds int // arrays sorted per run
	Seed   uint64
}

// RunSort executes the sort benchmark (P1M2, fine-grained): the
// accelerator streams one array in through Memory Hub 0 and the sorted
// result out through Memory Hub 1; the processor-only baseline runs an
// in-memory quicksort over the same arrays.
func RunSort(v Variant, cfg SortConfig) Result {
	h := harness{cores: 1, memHubs: 2, regs: []core.SoftRegSpec{
		{Kind: core.RegPlain},      // SortSrcReg
		{Kind: core.RegPlain},      // SortDstReg
		{Kind: core.RegFIFOToFPGA}, // SortCmdReg
		{Kind: core.RegFIFOToCPU},  // SortDoneReg
	}, bitstream: func() *efpga.Bitstream { return accel.NewSortBitstream(cfg.N) }}
	return h.run(fmt.Sprintf("sort/%d", cfg.N), v, func(sys *duet.System, res *Result) func() error {
		rng := newRNG(cfg.Seed)
		inputs := make([][]uint32, cfg.Rounds)
		srcs := make([]uint64, cfg.Rounds)
		dsts := make([]uint64, cfg.Rounds)
		for r := 0; r < cfg.Rounds; r++ {
			inputs[r] = make([]uint32, cfg.N)
			srcs[r] = sys.Alloc(cfg.N * 4)
			dsts[r] = sys.Alloc(cfg.N * 4)
			for i := range inputs[r] {
				inputs[r][i] = uint32(rng.next())
				sys.Dom.DRAM.Write32(srcs[r]+uint64(i*4), inputs[r][i])
			}
		}

		sys.Cores[0].Run("sort", func(p cpu.Proc) {
			if v != VariantCPU {
				duet.EnableHub(p, 0, false, false, false)
				duet.EnableHub(p, 1, false, false, false)
			}
			// Warm caches before the measured region (paper §V-A).
			for r := 0; r < cfg.Rounds; r++ {
				warm(p, srcs[r], cfg.N*4)
				warm(p, dsts[r], cfg.N*4)
			}
			start := p.Now()
			for r := 0; r < cfg.Rounds; r++ {
				if v == VariantCPU {
					quicksort32(p, srcs[r], 0, cfg.N-1)
					// The baseline sorts in place; copy to dst for a uniform check.
					for i := 0; i < cfg.N; i++ {
						p.Store32(dsts[r]+uint64(i*4), p.Load32(srcs[r]+uint64(i*4)))
					}
				} else {
					p.MMIOWrite64(duet.SoftRegAddr(accel.SortSrcReg), srcs[r])
					p.MMIOWrite64(duet.SoftRegAddr(accel.SortDstReg), dsts[r])
					p.MMIOWrite64(duet.SoftRegAddr(accel.SortCmdReg), uint64(cfg.N))
					if p.MMIORead64(duet.SoftRegAddr(accel.SortDoneReg)) != uint64(cfg.N) {
						return
					}
				}
			}
			res.Runtime = p.Now() - start
		})
		return func() error {
			for r := 0; r < cfg.Rounds; r++ {
				want := append([]uint32(nil), inputs[r]...)
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				for i := range want {
					if got := sys.ReadMem32(dsts[r] + uint64(i*4)); got != want[i] {
						return fmt.Errorf("sort/%d round %d: [%d]=%d, want %d", cfg.N, r, i, got, want[i])
					}
				}
			}
			return nil
		}
	})
}

// qsortCmpCycles models the C-library qsort comparator convention: an
// indirect call through a function pointer per comparison (register
// save/restore, call, compare body, return, branch) on the in-order core.
const qsortCmpCycles = 24

// quicksort32 is the processor-only baseline: a real in-memory qsort
// (Hoare partition, comparator-call convention) issuing loads, stores and
// compare cycles.
func quicksort32(p cpu.Proc, base uint64, lo, hi int) {
	for lo < hi {
		pivot := p.Load32(base + uint64((lo+hi)/2*4))
		i, j := lo, hi
		for i <= j {
			for {
				vi := p.Load32(base + uint64(i*4))
				p.Exec(qsortCmpCycles)
				if vi >= pivot {
					break
				}
				i++
			}
			for {
				vj := p.Load32(base + uint64(j*4))
				p.Exec(qsortCmpCycles)
				if vj <= pivot {
					break
				}
				j--
			}
			if i <= j {
				vi := p.Load32(base + uint64(i*4))
				vj := p.Load32(base + uint64(j*4))
				p.Store32(base+uint64(i*4), vj)
				p.Store32(base+uint64(j*4), vi)
				p.Exec(2)
				i++
				j--
			}
		}
		// Recurse into the smaller side; iterate on the larger.
		if j-lo < hi-i {
			quicksort32(p, base, lo, j)
			lo = i
		} else {
			quicksort32(p, base, i, hi)
			hi = j
		}
	}
}
