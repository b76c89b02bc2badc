package apps

import (
	"fmt"

	"duet"
	"duet/internal/accel"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/sim"
)

// BFSConfig sizes the breadth-first search benchmark.
type BFSConfig struct {
	Cores     int
	Nodes     int
	AvgDegree int
	Seed      uint64
	// UseMCS switches the baseline's queue lock from the naive
	// test-and-set spinlock to an MCS queue lock (ablation).
	UseMCS bool
}

// refBFS computes reference levels (distance from the root) in Go.
func refBFS(g csr, root int) []uint32 {
	n := len(g.rowptr) - 1
	level := make([]uint32, n)
	for i := range level {
		level[i] = distInf
	}
	level[root] = 0
	frontier := []uint32{uint32(root)}
	for l := uint32(1); len(frontier) > 0; l++ {
		var next []uint32
		for _, u := range frontier {
			for e := g.rowptr[u]; e < g.rowptr[u+1]; e++ {
				v := g.cols[e]
				if level[v] == distInf {
					level[v] = l
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return level
}

// RunBFS executes the BFS benchmark (P{4,8,16}M0, hardware augmentation):
// the baseline's software frontier queues are guarded by an MCS lock with
// barrier-synchronized levels; Duet replaces them with the eFPGA-emulated
// lock-free queues (paper §V-D).
func RunBFS(v Variant, cfg BFSConfig) Result {
	h := harness{cores: cfg.Cores, regs: queueRegs(cfg.Cores),
		bitstream: func() *efpga.Bitstream { return accel.NewBFSBitstream(cfg.Cores) }}
	return h.run(fmt.Sprintf("bfs/%d", cfg.Cores), v, func(sys *duet.System, res *Result) func() error {
		g := genGraph(cfg.Nodes, cfg.AvgDegree, cfg.Seed, true)
		n := cfg.Nodes
		rowptr := sys.Alloc(len(g.rowptr) * 4)
		cols := sys.Alloc(len(g.cols) * 4)
		level := sys.Alloc(n * 4)
		visited := sys.Alloc(n * 8)
		for i, x := range g.rowptr {
			sys.Dom.DRAM.Write32(rowptr+uint64(i*4), x)
		}
		for i, x := range g.cols {
			sys.Dom.DRAM.Write32(cols+uint64(i*4), x)
		}
		for i := 0; i < n; i++ {
			sys.Dom.DRAM.Write32(level+uint64(i*4), distInf)
		}
		// Root: node 0, level 0, pre-visited.
		sys.Dom.DRAM.Write32(level, 0)
		sys.Dom.DRAM.Write64(visited, 1)

		// Baseline-only shared state.
		curQ := sys.Alloc(n * 4)
		nextQ := sys.Alloc(n * 4)
		counters := sys.Alloc(64) // [curHead, curCount, nextTail]
		lockTail := sys.Alloc(64)
		nodesBase := sys.Alloc(cfg.Cores * cpu.MCSNodeBytes)
		barrier := sys.Alloc(cpu.BarrierBytes)
		levelVar := sys.Alloc(64)
		readyFlag := sys.Alloc(64)
		if v == VariantCPU {
			sys.Dom.DRAM.Write32(curQ, 0) // frontier = {root}
			sys.Dom.DRAM.Write64(counters+8, 1)
			sys.Dom.DRAM.Write64(levelVar, 1)
		}

		starts := make([]sim.Time, cfg.Cores)
		ends := make([]sim.Time, cfg.Cores)
		for c := 0; c < cfg.Cores; c++ {
			c := c
			sys.Cores[c].Run("bfs", func(p cpu.Proc) {
				if v != VariantCPU {
					if c == 0 {
						p.MMIOWrite64(duet.MgrRegAddr(core.RegTimeout), 3_000_000)
						// Seed the next frontier with the root, then let the
						// widget promote it at the first level transition.
						p.MMIOWrite64(duet.SoftRegAddr(accel.BFSCmdReg), accel.BFSPackCmd(accel.BFSOpEnq, 0, 0))
						p.Store64(readyFlag, 1)
					} else {
						for p.Load64(readyFlag) == 0 {
							p.Exec(50)
						}
					}
					warm(p, rowptr+uint64(c), 4) // first touch staggers naturally
					starts[c] = p.Now()
					curLevel := uint64(1)
					for {
						p.MMIOWrite64(duet.SoftRegAddr(accel.BFSCmdReg), accel.BFSPackCmd(accel.BFSOpReq, c, 0))
						w := p.MMIORead64(duet.SoftRegAddr(accel.BFSWorkReg0 + c))
						if w == accel.BFSDone {
							break
						}
						if w&accel.BFSLevelMark != 0 {
							// The widget's level counter: frontier k's nodes
							// discover level-k neighbours.
							curLevel = (w >> 32) & 0xffff
							continue
						}
						u := uint32(w)
						s := p.Load32(rowptr + uint64(u)*4)
						e := p.Load32(rowptr + uint64(u)*4 + 4)
						for i := s; i < e; i++ {
							vv := p.Load32(cols + uint64(i)*4)
							p.Exec(2)
							if p.AmoSwap64(visited+uint64(vv)*8, 1) == 0 {
								p.Store32(level+uint64(vv)*4, uint32(curLevel))
								p.MMIOWrite64(duet.SoftRegAddr(accel.BFSCmdReg), accel.BFSPackCmd(accel.BFSOpEnq, c, vv))
							}
						}
						p.MMIOWrite64(duet.SoftRegAddr(accel.BFSCmdReg), accel.BFSPackCmd(accel.BFSOpDone, c, 0))
					}
					ends[c] = p.Now()
					return
				}

				// Processor-only baseline: lock-protected software queues with
				// barrier-synchronized levels.
				node := nodesBase + uint64(c*cpu.MCSNodeBytes)
				lock := func() {
					if cfg.UseMCS {
						cpu.MCSAcquire(p, lockTail, node)
					} else {
						cpu.TASAcquire(p, lockTail)
					}
				}
				unlock := func() {
					if cfg.UseMCS {
						cpu.MCSRelease(p, lockTail, node)
					} else {
						cpu.TASRelease(p, lockTail)
					}
				}
				sense := uint64(0)
				if c == 0 {
					warm(p, rowptr, len(g.rowptr)*4)
					warm(p, cols, len(g.cols)*4)
				}
				starts[c] = p.Now()
				for {
					lvl := p.Load64(levelVar)
					for {
						// Pop a node from the current frontier under the lock.
						lock()
						head := p.Load64(counters)
						count := p.Load64(counters + 8)
						var u uint32
						got := false
						p.Exec(2)
						if head < count {
							p.Store64(counters, head+1)
							got = true
						}
						unlock()
						if !got {
							break
						}
						u = p.Load32(curQ + uint64(head)*4)
						s := p.Load32(rowptr + uint64(u)*4)
						e := p.Load32(rowptr + uint64(u)*4 + 4)
						for i := s; i < e; i++ {
							vv := p.Load32(cols + uint64(i)*4)
							p.Exec(2)
							if p.AmoSwap64(visited+uint64(vv)*8, 1) == 0 {
								p.Store32(level+uint64(vv)*4, uint32(lvl))
								lock()
								tail := p.Load64(counters + 16)
								p.Store32(nextQ+tail*4, vv)
								p.Store64(counters+16, tail+1)
								unlock()
							}
						}
					}
					// Level complete: barrier, swap, barrier.
					sense ^= 1
					cpu.BarrierWait(p, barrier, cfg.Cores, sense)
					if c == 0 {
						tail := p.Load64(counters + 16)
						for i := uint64(0); i < tail; i++ {
							p.Store32(curQ+i*4, p.Load32(nextQ+i*4))
						}
						p.Store64(counters, 0)
						p.Store64(counters+8, tail)
						p.Store64(counters+16, 0)
						p.Store64(levelVar, lvl+1)
					}
					sense ^= 1
					cpu.BarrierWait(p, barrier, cfg.Cores, sense)
					if p.Load64(counters+8) == 0 {
						break
					}
				}
				ends[c] = p.Now()
			})
		}
		return func() error {
			res.Runtime = span(starts, ends)

			want := refBFS(g, 0)
			for i := 0; i < n; i++ {
				if got := sys.ReadMem32(level + uint64(i*4)); got != want[i] {
					return fmt.Errorf("bfs/%d: level[%d]=%d, want %d", cfg.Cores, i, got, want[i])
				}
			}
			return nil
		}
	})
}
