package accel

import (
	"container/heap"

	"duet/internal/coherence"
	"duet/internal/efpga"
	"duet/internal/sim"
)

// PDESSpec is the speculative task scheduler the paper sketches as an
// extension (§III-B2): "The task scheduler can support task speculation
// by fetching the cachelines that may be modified by a speculative event
// and storing versioned copies of them in its non-coherent memory. On a
// mis-speculation, the task scheduler rolls back the cachelines to the
// most up-to-date, non-speculative versions, then reschedules the
// mis-speculated events."
//
// Events carry an entity id (the cacheline they will modify). The
// scheduler serializes same-entity events, releases causally-safe events
// normally, and releases unsafe events *speculatively* after stashing the
// entity line's pre-image in the eFPGA scratchpad. A speculative event is
// squashed when a causally earlier same-entity event appears: the
// scheduler writes the pre-image back through its Memory Hub (coherently
// undoing the processor's update), discards the event's buffered children
// and reschedules it.
//
// Register layout matches PDES: 0 = command FIFO, 1..N = per-core event
// FIFOs, N+1 = plain shadow: entity-record base address.
type PDESSpec struct {
	Cores    int
	MinDelay uint64 // lookahead: no child is scheduled sooner than this
	// Speculate false runs the same scheduler with speculation disabled
	// (the conservative ablation baseline).
	Speculate bool
	// EntityOf maps an event payload to its entity id (must match the
	// processors' mapping).
	EntityOf func(payload uint32) uint32
	// Stats, readable after the run.
	Released, SpecReleased, Squashed, Committed uint64
}

type specRec struct {
	ev       uint64
	entity   uint32
	preimage []byte
	children []uint64
}

// Start spawns the speculative scheduler engine.
func (a *PDESSpec) Start(env *efpga.Env) {
	cores := a.Cores
	look := a.MinDelay
	if look == 0 {
		look = 1
	}
	entityOf := a.EntityOf
	if entityOf == nil {
		entityOf = func(p uint32) uint32 { return p % 256 }
	}
	env.Eng.Go("pdes.spec-sched", func(t *sim.Thread) {
		var pq eventHeap
		outstanding := make(map[int]uint64)  // core -> released event
		specByCore := make(map[int]*specRec) // core -> in-flight speculative record
		var pending []*specRec               // processed speculatively, awaiting commit
		var waiting sim.Queue[int]

		entityAddr := func(e uint32) uint64 {
			return env.Regs.ReadPlain(PDESDataBaseReg(cores)) + uint64(e)*16
		}
		entityBusy := func(e uint32) bool {
			for _, ev := range outstanding {
				if entityOf(uint32(ev)) == e {
					return true
				}
			}
			for _, r := range pending {
				if r.entity == e {
					return true
				}
			}
			return false
		}
		// minHorizon is the smallest event word that can still appear
		// before rec would commit: queued events, in-flight events'
		// future children, re-schedulable pending records, and buffered
		// children.
		minHorizon := func(self *specRec) (uint64, bool) {
			min, any := uint64(0), false
			consider := func(ev uint64) {
				if !any || ev < min {
					min, any = ev, true
				}
			}
			if len(pq) > 0 {
				consider(pq[0])
			}
			for _, ev := range outstanding {
				consider(PDESEvent(PDESEventTS(ev)+look, 0))
			}
			for _, r := range pending {
				if r == self {
					continue
				}
				consider(r.ev)
				for _, ch := range r.children {
					consider(ch)
				}
			}
			return min, any
		}
		// isSafe uses the STRICT lookahead window (ts < o.ts + look): a
		// non-strict window admits an executed event that a future child
		// can tie on timestamp with a smaller event word, violating the
		// per-entity execution order.
		isSafe := func(ev uint64) bool {
			ts := PDESEventTS(ev)
			for _, o := range outstanding {
				if ts >= PDESEventTS(o)+look {
					return false
				}
			}
			for _, r := range pending {
				// A pending speculative record can still be squashed and
				// re-enter at its own timestamp, then spawn children from
				// r.ts + look upward.
				if r.ev < ev && ts >= PDESEventTS(r.ev)+look {
					return false
				}
			}
			return true
		}

		squash := func(r *specRec) {
			a.Squashed++
			// Roll back the entity line through the Memory Hub: the
			// coherence protocol propagates the undo to every cache.
			addr := entityAddr(r.entity)
			h1 := env.Mem[0].StoreAsync(t, addr, r.preimage[0:8])
			h2 := env.Mem[0].StoreAsync(t, addr+8, r.preimage[8:16])
			env.Mem[0].Await(t, h1)
			env.Mem[0].Await(t, h2)
			heap.Push(&pq, r.ev) // reschedule
			t.SleepCycles(env.Clk, heapOpCycles)
		}

		var evaluate func()
		evaluate = func() {
			// Squash any pending record contradicted by a known earlier
			// same-entity event, then commit records nothing can precede.
			for changed := true; changed; {
				changed = false
				for i := 0; i < len(pending); i++ {
					r := pending[i]
					conflicted := false
					for _, ev := range pq {
						if ev < r.ev && entityOf(uint32(ev)) == r.entity {
							conflicted = true
							break
						}
					}
					if !conflicted {
						for _, o := range pending {
							if o != r && o.ev < r.ev {
								for _, ch := range o.children {
									if ch < r.ev && entityOf(uint32(ch)) == r.entity {
										conflicted = true
										break
									}
								}
							}
						}
					}
					if conflicted {
						pending = append(pending[:i], pending[i+1:]...)
						squash(r)
						changed = true
						break
					}
					if min, any := minHorizon(r); !any || min > r.ev {
						// Nothing can precede it anymore: commit.
						pending = append(pending[:i], pending[i+1:]...)
						a.Committed++
						for _, ch := range r.children {
							heap.Push(&pq, ch)
						}
						changed = true
						break
					}
				}
			}
		}

		serve := func() {
			for waiting.Len() > 0 {
				evaluate()
				if len(pq) == 0 {
					if len(outstanding) == 0 && len(pending) == 0 {
						for waiting.Len() > 0 {
							env.Regs.PushCPU(t, PDESEventReg0+waiting.Pop(), PDESIdle)
						}
					}
					return
				}
				ev := pq[0]
				e := entityOf(uint32(ev))
				if entityBusy(e) {
					return // same-entity serialization
				}
				safe := isSafe(ev)
				if !safe && !a.Speculate {
					return // conservative mode: wait for safety
				}
				heap.Pop(&pq)
				t.SleepCycles(env.Clk, heapOpCycles)
				c := waiting.Pop()
				outstanding[c] = ev
				if safe {
					a.Released++
				} else {
					// Speculative release: stash the entity pre-image in
					// the version store BEFORE the processor can see the
					// event — under load a pipelined fetch could otherwise
					// fall behind the processor's store and capture the
					// post-event value, corrupting the rollback.
					a.SpecReleased++
					b, err := env.Mem[0].LoadLine(t, entityAddr(e))
					if err != nil {
						return
					}
					specByCore[c] = &specRec{ev: ev, entity: e, preimage: b}
				}
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
				if r := specByCore[c]; r != nil {
					// Children of a speculative event stay buffered until
					// it commits.
					r.children = append(r.children, ev)
				} else {
					heap.Push(&pq, ev)
					t.SleepCycles(env.Clk, heapOpCycles)
				}
			case PDESOpDone:
				if r := specByCore[c]; r != nil {
					delete(specByCore, c)
					pending = append(pending, r)
				} else {
					a.Committed++
				}
				delete(outstanding, c)
			case PDESOpReq:
				waiting.Push(c)
			}
			serve()
		}
	})
	_ = coherence.AmoAdd // keep the import for the op constants' package
}

// NewPDESSpecBitstream synthesizes the speculative scheduler. It reuses
// the PDES design with extra BRAM for the version store.
func NewPDESSpecBitstream(a *PDESSpec) *efpga.Bitstream {
	d := Designs["PDES"]
	d.Name = "PDES-spec"
	d.RAMKb += 128 // versioned-copy store
	d.LUTLogic += 220
	return efpga.Synthesize(d, func() efpga.Accelerator { return a })
}
