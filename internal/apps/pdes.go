package apps

import (
	"container/heap"
	"fmt"

	"duet"
	"duet/internal/accel"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/sim"
)

// PDESConfig sizes the parallel discrete event simulation benchmark.
//
// The workload is a PHOLD-style synthetic DES (the standard PDES
// benchmark): every processed event spawns one child event a bounded
// delay in the future until the horizon. The paper simulated a digital
// circuit; PHOLD exercises the identical scheduler/synchronization
// behaviour — the property being measured — while keeping the event
// population deterministic regardless of processing order, so every
// variant's processed-event count checks against one sequential
// reference (refPDESCount).
type PDESConfig struct {
	Cores      int
	Population int    // initial event count
	Horizon    uint64 // simulation end time
	Seed       uint64
}

// pdesLookahead is the conservative window (the minimum event delay).
const pdesLookahead = 8

// pdesChildOf derives the (deterministic) child event of ev: the child's
// identity and timestamp depend only on ev, so the total event population
// is independent of processing order.
func pdesChildOf(ev uint64, horizon uint64) (uint64, bool) {
	ts := accel.PDESEventTS(ev)
	id := uint32(ev)
	nid := id*2654435761 + 12345
	jitter := uint64(nid>>8) % pdesLookahead
	nts := ts + pdesLookahead + jitter
	if nts > horizon {
		return 0, false
	}
	return accel.PDESEvent(nts, nid), true
}

// pdesInitial builds the deterministic initial event population.
func pdesInitial(cfg PDESConfig) []uint64 {
	rng := newRNG(cfg.Seed)
	evs := make([]uint64, cfg.Population)
	for i := range evs {
		evs[i] = accel.PDESEvent(uint64(rng.intn(4*pdesLookahead)), uint32(rng.next()))
	}
	return evs
}

// refPDESCount counts the total events processed by a sequential
// reference run (order-independent: the event tree is deterministic).
func refPDESCount(cfg PDESConfig) uint64 {
	h := &u64Heap{}
	for _, e := range pdesInitial(cfg) {
		heap.Push(h, e)
	}
	count := uint64(0)
	for h.Len() > 0 {
		ev := heap.Pop(h).(uint64)
		count++
		if child, ok := pdesChildOf(ev, cfg.Horizon); ok {
			heap.Push(h, child)
		}
	}
	return count
}

// pdesWorkCycles is the per-event computation (state update, RNG, output).
const pdesWorkCycles = 60

// RunPDES executes the PDES benchmark (P{4,8,16}M1, hardware
// augmentation): the baseline shares a real in-memory event heap guarded
// by an MCS lock with a conservative release window; Duet replaces the
// locked heap with the eFPGA-emulated task scheduler (paper §III-B2).
func RunPDES(v Variant, cfg PDESConfig) Result {
	regs := append(queueRegs(cfg.Cores), core.SoftRegSpec{Kind: core.RegPlain}) // event-data base
	h := harness{cores: cfg.Cores, memHubs: 1, regs: regs,
		bitstream: func() *efpga.Bitstream { return accel.NewPDESBitstream(cfg.Cores, pdesLookahead) }}
	return h.run(fmt.Sprintf("pdes/%d", cfg.Cores), v, func(sys *duet.System, res *Result) func() error {
		initial := pdesInitial(cfg)
		wantCount := refPDESCount(cfg)

		// Shared state for both variants: per-entity scratch records touched
		// by event processing, and a processed-events counter. The scheduler
		// fetches per-event data records from eventData.
		entityBase := sys.Alloc(256 * 8)
		eventData := sys.Alloc(256 * 16)
		processedCtr := sys.Alloc(64)

		// Baseline-only state.
		heapBase := sys.Alloc(8 + int(wantCount+8)*8)
		lockTail := sys.Alloc(64)
		nodesBase := sys.Alloc(cfg.Cores * cpu.MCSNodeBytes)
		outstBase := sys.Alloc(cfg.Cores * 8) // per-core in-flight timestamp+1 (0 = idle)
		activeCtr := sys.Alloc(64)            // events in heap + in flight

		if v == VariantCPU {
			// Preload the software event queue and counters.
			sys.Dom.DRAM.Write64(heapBase, uint64(len(initial)))
			sorted := append([]uint64(nil), initial...)
			heapify(sorted)
			for i, e := range sorted {
				sys.Dom.DRAM.Write64(heapBase+8+uint64(i*8), e)
			}
			sys.Dom.DRAM.Write64(activeCtr, uint64(len(initial)))
		}

		process := func(p cpu.Proc, ev uint64) {
			p.Exec(pdesWorkCycles)
			slot := entityBase + uint64(uint32(ev)%256)*8
			cnt := p.Load64(slot)
			p.Store64(slot, cnt+1)
			p.AmoAdd64(processedCtr, 1)
		}

		starts := make([]sim.Time, cfg.Cores)
		ends := make([]sim.Time, cfg.Cores)
		for c := 0; c < cfg.Cores; c++ {
			c := c
			sys.Cores[c].Run("pdes", func(p cpu.Proc) {
				if v != VariantCPU {
					if c == 0 {
						p.MMIOWrite64(duet.MgrRegAddr(core.RegTimeout), 3_000_000)
						duet.EnableHub(p, 0, false, false, false)
						p.MMIOWrite64(duet.SoftRegAddr(accel.PDESDataBaseReg(cfg.Cores)), eventData)
						for _, e := range initial {
							p.MMIOWrite64(duet.SoftRegAddr(accel.PDESCmdReg), accel.PDESPackCmd(accel.PDESOpPush, 0, e))
						}
						// Release the other cores via the entity scratch area.
						p.Store64(entityBase+255*8, 1)
					} else {
						for p.Load64(entityBase+255*8) == 0 {
							p.Exec(50)
						}
					}
					starts[c] = p.Now()
					for {
						p.MMIOWrite64(duet.SoftRegAddr(accel.PDESCmdReg), accel.PDESPackCmd(accel.PDESOpReq, c, 0))
						ev := p.MMIORead64(duet.SoftRegAddr(accel.PDESEventReg0 + c))
						if ev == accel.PDESIdle {
							break
						}
						process(p, ev)
						if child, ok := pdesChildOf(ev, cfg.Horizon); ok {
							p.MMIOWrite64(duet.SoftRegAddr(accel.PDESCmdReg), accel.PDESPackCmd(accel.PDESOpPush, c, child))
						}
						p.MMIOWrite64(duet.SoftRegAddr(accel.PDESCmdReg), accel.PDESPackCmd(accel.PDESOpDone, c, 0))
					}
					ends[c] = p.Now()
					return
				}

				// Processor-only baseline: MCS-locked shared heap with a
				// conservative release window.
				node := nodesBase + uint64(c*cpu.MCSNodeBytes)
				starts[c] = p.Now()
				for {
					if p.Load64(activeCtr) == 0 {
						break
					}
					cpu.MCSAcquire(p, lockTail, node)
					var ev uint64
					got := false
					if HeapLen(p, heapBase) > 0 {
						top := HeapPeek(p, heapBase)
						ts := accel.PDESEventTS(top)
						// Conservative window: the event is safe only within
						// lookahead of every in-flight event.
						safe := true
						for o := 0; o < cfg.Cores; o++ {
							ots := p.Load64(outstBase + uint64(o*8))
							p.Exec(2)
							if ots != 0 && ts > (ots-1)+pdesLookahead {
								safe = false
								break
							}
						}
						if safe {
							ev = HeapPop(p, heapBase)
							p.Store64(outstBase+uint64(c*8), accel.PDESEventTS(ev)+1)
							got = true
						}
					}
					cpu.MCSRelease(p, lockTail, node)
					if !got {
						p.Exec(20)
						continue
					}
					process(p, ev)
					child, ok := pdesChildOf(ev, cfg.Horizon)
					cpu.MCSAcquire(p, lockTail, node)
					if ok {
						HeapPush(p, heapBase, child)
					} else {
						// Tree leaf: one fewer live event.
						p.Store64(activeCtr, p.Load64(activeCtr)-1)
					}
					p.Store64(outstBase+uint64(c*8), 0)
					cpu.MCSRelease(p, lockTail, node)
				}
				ends[c] = p.Now()
			})
		}
		return func() error {
			res.Runtime = span(starts, ends)

			if got := sys.ReadMem64(processedCtr); got != wantCount {
				return fmt.Errorf("pdes/%d: processed %d events, want %d", cfg.Cores, got, wantCount)
			}
			return nil
		}
	})
}

// heapify orders a slice as a binary min-heap.
func heapify(vs []uint64) {
	h := u64Heap(nil)
	for _, v := range vs {
		heap.Push(&h, v)
	}
	copy(vs, h)
}
