package accel

import (
	"duet/internal/efpga"
	"duet/internal/sim"
)

// BFS provides the hardware lock-free frontier queues for parallel
// breadth-first search (paper §V-D, P4/8/16-M0, hardware augmentation).
// The processors traverse the graph in barrier-synchronized steps; the
// widget holds the current and next frontiers in fabric BRAM, hands out
// nodes without any lock, and detects level completion (current frontier
// drained, no node still being processed, every core waiting), emitting
// level markers that double as the barrier.
//
// Register layout: 0 = command FIFO (FPGA-bound, shared), 1..N = per-core
// work FIFOs (CPU-bound).
type BFS struct {
	Cores int
}

// BFS register indices.
const (
	BFSCmdReg   = 0
	BFSWorkReg0 = 1 // + coreID
)

// Command opcodes, packed as op | core<<4 | node<<16.
const (
	BFSOpEnq  = 1 // add node to the next frontier
	BFSOpReq  = 2 // request work
	BFSOpDone = 3 // finished processing the last node
)

// Work-FIFO responses: either a node (low bit 0 after shifting) or one of
// the markers below.
const (
	// BFSLevelMark signals the end of a level; the new level number is in
	// the high bits.
	BFSLevelMark = uint64(1) << 62
	// BFSDone signals search completion.
	BFSDone = ^uint64(0)
)

// BFSPackCmd packs a widget command.
func BFSPackCmd(op, core int, node uint32) uint64 {
	return uint64(op) | uint64(core)<<4 | uint64(node)<<16
}

// queueOpCycles models the per-operation cost of the hardware queues.
const queueOpCycles = 1

// Start spawns the frontier-queue widget.
func (a BFS) Start(env *efpga.Env) {
	cores := a.Cores
	env.Eng.Go("bfs.queues", func(t *sim.Thread) {
		var current, next sim.Queue[uint32]
		level := uint64(0)
		inFlight := 0
		var waiting sim.Queue[int]

		serve := func() {
			for waiting.Len() > 0 {
				if current.Len() > 0 {
					n := current.Pop()
					t.SleepCycles(env.Clk, queueOpCycles)
					inFlight++
					env.Regs.PushCPU(t, BFSWorkReg0+waiting.Pop(), uint64(n))
					continue
				}
				// Current frontier drained: the level ends only when no
				// node is still being processed and every core waits.
				if inFlight > 0 || waiting.Len() < cores {
					return
				}
				current, next = next, current // current is empty: next reuses it
				level++
				if current.Len() == 0 {
					for waiting.Len() > 0 {
						env.Regs.PushCPU(t, BFSWorkReg0+waiting.Pop(), BFSDone)
					}
					return
				}
				// Cores re-request after the marker.
				for waiting.Len() > 0 {
					env.Regs.PushCPU(t, BFSWorkReg0+waiting.Pop(), BFSLevelMark|level<<32)
				}
			}
		}

		for {
			cmd := env.Regs.PopFPGA(t, BFSCmdReg)
			op := int(cmd & 0xf)
			c := int(cmd >> 4 & 0xfff)
			node := uint32(cmd >> 16)
			t.SleepCycles(env.Clk, queueOpCycles)
			switch op {
			case BFSOpEnq:
				next.Push(node)
			case BFSOpReq:
				waiting.Push(c)
			case BFSOpDone:
				inFlight--
			}
			serve()
		}
	})
}

// Seed preloads the initial frontier (level 0) before the search starts;
// called by the host program through an ENQ command for the root.

// NewBFSBitstream synthesizes the frontier-queue widget.
func NewBFSBitstream(cores int) *efpga.Bitstream {
	return Synthesize("BFS", func() efpga.Accelerator { return BFS{Cores: cores} })
}
