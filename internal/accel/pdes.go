package accel

import (
	"container/heap"

	"duet/internal/efpga"
	"duet/internal/sim"
)

// PDES is the hardware-augmentation task scheduler for parallel discrete
// event simulation (paper §III-B2, §V-D, P4/8/16-M1): a non-speculative,
// conservative event scheduler emulated in the eFPGA. Processors push new
// events and completion notices into an FPGA-bound FIFO; the scheduler
// maintains the global event queue in fabric BRAM and releases an event
// to a requesting processor only when it is causally safe — its timestamp
// within the lookahead window of every in-flight event.
//
// On every Push the scheduler fetches the event's data record from
// shared memory through its Memory Hub before enqueueing it ("the task
// scheduler fetches the event data from shared memory", §III-B2).
//
// Register layout: 0 = command FIFO (FPGA-bound, shared), 1..N = per-core
// event FIFOs (CPU-bound), N+1 = plain shadow: event-data base address
// (0 disables the fetch).
type PDES struct {
	Cores     int
	Lookahead uint64
}

// PDES register indices.
const (
	PDESCmdReg    = 0
	PDESEventReg0 = 1 // + coreID
)

// PDESDataBaseReg returns the register index of the event-data base for
// an n-core instance.
func PDESDataBaseReg(n int) int { return PDESEventReg0 + n }

// Command opcodes, packed as op | core<<4 | payload<<8.
const (
	PDESOpPush = 1 // payload = event word
	PDESOpDone = 2
	PDESOpReq  = 3
)

// PDESIdle is the sentinel released to processors when the simulation has
// drained.
const PDESIdle = ^uint64(0)

// PDESPackCmd packs a scheduler command; ev is the event word for Push.
func PDESPackCmd(op, core int, ev uint64) uint64 {
	return uint64(op) | uint64(core)<<4 | ev<<8
}

// PDESEvent packs an event: timestamp in the high 32 bits, payload (the
// PHOLD entity/lineage id) in the low 32.
func PDESEvent(ts uint64, payload uint32) uint64 { return ts<<32 | uint64(payload) }

// PDESEventTS extracts the timestamp.
func PDESEventTS(ev uint64) uint64 { return ev >> 32 }

// eventHeap is a min-heap of packed keys ordered by their high 32 bits
// first: PDES events (timestamp-major) and Dijkstra's frontier
// (distance<<32 | node).
type eventHeap []uint64

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// heapOpCycles models the hardware priority queue's per-operation cost.
const heapOpCycles = 2

// Start spawns the scheduler engine.
func (a PDES) Start(env *efpga.Env) {
	cores := a.Cores
	look := a.Lookahead
	if look == 0 {
		look = 8
	}
	env.Eng.Go("pdes.sched", func(t *sim.Thread) {
		var pq eventHeap
		outstanding := make(map[int]uint64) // core -> released event ts
		var waiting sim.Queue[int]          // cores with pending requests

		minOutstanding := func() (uint64, bool) {
			min, any := uint64(0), false
			for _, ts := range outstanding {
				if !any || ts < min {
					min, any = ts, true
				}
			}
			return min, any
		}
		// serve releases safe events to waiting cores; when the
		// simulation drains it releases the idle sentinel.
		serve := func() {
			for waiting.Len() > 0 {
				if len(pq) == 0 {
					if len(outstanding) == 0 {
						for waiting.Len() > 0 {
							env.Regs.PushCPU(t, PDESEventReg0+waiting.Pop(), PDESIdle)
						}
					}
					return
				}
				ev := pq[0]
				ts := PDESEventTS(ev)
				if minTs, any := minOutstanding(); any && ts > minTs+look {
					return // not yet safe: wait for a Done
				}
				heap.Pop(&pq)
				t.SleepCycles(env.Clk, heapOpCycles)
				c := waiting.Pop()
				outstanding[c] = ts
				env.Regs.PushCPU(t, PDESEventReg0+c, ev)
			}
		}

		for {
			cmd := env.Regs.PopFPGA(t, PDESCmdReg)
			op := int(cmd & 0xf)
			c := int(cmd >> 4 & 0xf)
			switch op {
			case PDESOpPush:
				ev := cmd >> 8
				// Fetch the event's data record before enqueueing.
				if base := env.Regs.ReadPlain(PDESDataBaseReg(cores)); base != 0 && len(env.Mem) > 0 {
					addr := base + uint64(uint32(ev)%256)*16
					if _, err := env.Mem[0].LoadLine(t, addr); err != nil {
						continue
					}
				}
				heap.Push(&pq, ev)
				t.SleepCycles(env.Clk, heapOpCycles)
			case PDESOpDone:
				delete(outstanding, c)
			case PDESOpReq:
				waiting.Push(c)
			}
			serve()
		}
	})
	_ = cores
}

// NewPDESBitstream synthesizes the event scheduler.
func NewPDESBitstream(cores int, lookahead uint64) *efpga.Bitstream {
	return Synthesize("PDES", func() efpga.Accelerator { return PDES{Cores: cores, Lookahead: lookahead} })
}
