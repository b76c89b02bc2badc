package accel

import (
	"container/heap"

	"duet/internal/efpga"
	"duet/internal/sim"
	"duet/internal/softcache"
)

// Dijkstra is the shortest-path accelerator (paper §V-D, P1M1,
// fine-grained; HLS-generated in the paper): a full single-source
// shortest-path engine whose priority queue lives in fabric BRAM and
// whose graph/distance traffic goes through a soft cache that exploits
// locality between consecutive invocations. Both variants run the same
// engine, soft cache included; only the bitstream differs. The FPSoC
// bitstream leaves out the soft cache's fabric resources, because there
// the FPGA-side cache is hardened in the slow domain — which is why
// FPSoC wins on ADP for this one benchmark (paper §V-D). The simulated
// FPSoC engine still puts its soft cache on top of the hard slow cache
// (a known fidelity gap, see ROADMAP).
//
// Register layout: 0-3 = plain shadow (rowptr, cols, weights, dist
// bases), 4 = query FIFO (FPGA-bound: source | nodeCount<<32), 5 = done
// FIFO (CPU-bound: settled-node count).
type Dijkstra struct{}

// Dijkstra register indices.
const (
	DijRowPtrReg = 0
	DijColsReg   = 1
	DijWeightReg = 2
	DijDistReg   = 3
	DijQueryReg  = 4
	DijDoneReg   = 5
)

// Per-operation datapath costs in eFPGA cycles. The HLS-generated engine
// is pipelined: one edge per initiation interval when the soft cache
// hits, with the cache accesses hidden inside the pipeline.
const (
	dijEdgeII     = 1 // per-edge initiation interval (cols+weight+dist+relax)
	dijHeapCycles = 1 // systolic BRAM priority queue (II=1)
)

// Start spawns the SSSP engine.
func (a Dijkstra) Start(env *efpga.Env) {
	env.Eng.Go("dijkstra", func(t *sim.Thread) {
		// Both variants front the memory path with this soft cache (see
		// the type doc). Hits are hidden inside the pipelined datapath
		// (HitCycles -1); misses pay the full hub path.
		m := softcache.New(env, env.Mem[0], softcache.Config{
			SizeBytes: 8192, Ways: 2, RAWForwarding: true, HitCycles: -1,
		})
		for {
			q := env.Regs.PopFPGA(t, DijQueryReg)
			src := uint32(q)
			n := uint32(q >> 32)
			rowptr := env.Regs.ReadPlain(DijRowPtrReg)
			cols := env.Regs.ReadPlain(DijColsReg)
			weights := env.Regs.ReadPlain(DijWeightReg)
			dist := env.Regs.ReadPlain(DijDistReg)

			// The visited bitmap and priority queue live in fabric BRAM.
			visited := make([]bool, n)
			pq := eventHeap{uint64(src)} // (dist=0)<<32 | src
			settled := uint64(0)
			failed := false
			for len(pq) > 0 && !failed {
				t.SleepCycles(env.Clk, dijHeapCycles)
				it := heap.Pop(&pq).(uint64)
				d, u := uint32(it>>32), uint32(it)
				if visited[u] {
					continue
				}
				visited[u] = true
				settled++
				s, err1 := m.Load32(t, rowptr+uint64(u)*4)
				e, err2 := m.Load32(t, rowptr+uint64(u)*4+4)
				if err1 != nil || err2 != nil {
					failed = true
					break
				}
				for i := s; i < e; i++ {
					v, errV := m.Load32(t, cols+uint64(i)*4)
					w, errW := m.Load32(t, weights+uint64(i)*4)
					if errV != nil || errW != nil {
						failed = true
						break
					}
					t.SleepCycles(env.Clk, dijEdgeII)
					nd := d + w
					dv, errD := m.Load32(t, dist+uint64(v)*4)
					if errD != nil {
						failed = true
						break
					}
					if nd < dv {
						if err := m.Store32(t, dist+uint64(v)*4, nd); err != nil {
							failed = true
							break
						}
						t.SleepCycles(env.Clk, dijHeapCycles)
						heap.Push(&pq, uint64(nd)<<32|uint64(v))
					}
				}
			}
			if failed {
				env.Regs.PushCPU(t, DijDoneReg, ^uint64(0))
				continue
			}
			env.Regs.PushCPU(t, DijDoneReg, settled)
		}
	})
}

// NewDijkstraBitstream synthesizes the SSSP engine. Without
// useSoftCache (the FPSoC variant) the design shrinks by the soft
// cache's resources; the engine it configures is the same.
func NewDijkstraBitstream(useSoftCache bool) *efpga.Bitstream {
	d := Designs["Dijkstra"]
	if !useSoftCache {
		// Drop the soft cache: tag/control logic and its BRAM.
		d.LUTLogic -= 300
		d.RAMKb -= 200
		d.RegBits -= 800
	}
	return efpga.Synthesize(d, func() efpga.Accelerator { return Dijkstra{} })
}
