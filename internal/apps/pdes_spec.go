package apps

import (
	"container/heap"
	"fmt"
	"sort"

	"duet"
	"duet/internal/accel"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/sim"
)

// PDESSpecConfig sizes the speculative-scheduler extension study.
type PDESSpecConfig struct {
	Cores      int
	Population int
	Horizon    uint64
	MinDelay   uint64 // tight lookahead: where speculation pays
	Entities   int    // entity-record count (small values force conflicts/squashes)
	Seed       uint64
	Speculate  bool
}

// specChildOf is the PHOLD child rule with a configurable minimum delay;
// with MinDelay=1 the conservative window nearly serializes, which is the
// regime the speculative scheduler attacks.
func specChildOf(ev uint64, minDelay, horizon uint64) (uint64, bool) {
	ts := accel.PDESEventTS(ev)
	id := uint32(ev)
	nid := id*2654435761 + 97
	nts := ts + minDelay + uint64(nid>>8)%8
	if nts > horizon {
		return 0, false
	}
	return accel.PDESEvent(nts, nid), true
}

func specEntityOf(entities int) func(uint32) uint32 {
	return func(payload uint32) uint32 { return payload % uint32(entities) }
}

// specApply is the order-sensitive entity update: final records depend on
// the per-entity execution order, so a mis-speculation that was not rolled
// back would corrupt the result.
func specApply(old uint64, ev uint64) uint64 {
	return old*31 + accel.PDESEventTS(ev) + uint64(uint32(ev)&0xff)
}

// refPDESSpec replays the deterministic event tree in full-word order and
// returns the final entity records plus the event count.
func refPDESSpec(cfg PDESSpecConfig, initial []uint64) (map[uint32]uint64, uint64) {
	var all []uint64
	h := &u64Heap{}
	for _, e := range initial {
		heap.Push(h, e)
	}
	for h.Len() > 0 {
		ev := heap.Pop(h).(uint64)
		all = append(all, ev)
		if ch, ok := specChildOf(ev, cfg.MinDelay, cfg.Horizon); ok {
			heap.Push(h, ch)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	records := make(map[uint32]uint64)
	entity := specEntityOf(cfg.Entities)
	for _, ev := range all {
		e := entity(uint32(ev))
		records[e] = specApply(records[e], ev)
	}
	return records, uint64(len(all))
}

// RunPDESSpec executes the speculative-scheduler extension (Duet style
// only): the same workload runs under the conservative policy
// (Speculate=false) and the speculative one, both entity-serialized, and
// both verified against the sequential reference.
func RunPDESSpec(cfg PDESSpecConfig) (Result, *accel.PDESSpec) {
	if cfg.Entities == 0 {
		cfg.Entities = 256
	}
	entity := specEntityOf(cfg.Entities)
	regs := append(queueRegs(cfg.Cores), core.SoftRegSpec{Kind: core.RegPlain}) // entity base
	sched := &accel.PDESSpec{
		Cores: cfg.Cores, MinDelay: cfg.MinDelay,
		Speculate: cfg.Speculate, EntityOf: entity,
	}
	h := harness{cores: cfg.Cores, memHubs: 1, regs: regs,
		bitstream: func() *efpga.Bitstream { return accel.NewPDESSpecBitstream(sched) }}
	res := h.run(fmt.Sprintf("pdes-spec/%d", cfg.Cores), VariantDuet, func(sys *duet.System, res *Result) func() error {
		rng := newRNG(cfg.Seed)
		initial := make([]uint64, cfg.Population)
		for i := range initial {
			initial[i] = accel.PDESEvent(uint64(rng.intn(16)), uint32(rng.next()))
		}
		wantRecords, wantCount := refPDESSpec(cfg, initial)

		entityBase := sys.Alloc(256 * 16)
		starts := make([]sim.Time, cfg.Cores)
		ends := make([]sim.Time, cfg.Cores)
		readyFlag := sys.Alloc(64)
		for c := 0; c < cfg.Cores; c++ {
			c := c
			sys.Cores[c].Run("pdes-spec", func(p cpu.Proc) {
				if c == 0 {
					p.MMIOWrite64(duet.MgrRegAddr(core.RegTimeout), 3_000_000)
					duet.EnableHub(p, 0, false, false, false)
					p.MMIOWrite64(duet.SoftRegAddr(accel.PDESDataBaseReg(cfg.Cores)), entityBase)
					for _, e := range initial {
						p.MMIOWrite64(duet.SoftRegAddr(accel.PDESCmdReg), accel.PDESPackCmd(accel.PDESOpPush, 0, e))
					}
					p.Store64(readyFlag, 1)
				} else {
					for p.Load64(readyFlag) == 0 {
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
					// Process: an order-sensitive update of the entity record.
					slot := entityBase + uint64(entity(uint32(ev)))*16
					old := p.Load64(slot)
					p.Exec(40)
					p.Store64(slot, specApply(old, ev))
					if child, ok := specChildOf(ev, cfg.MinDelay, cfg.Horizon); ok {
						p.MMIOWrite64(duet.SoftRegAddr(accel.PDESCmdReg), accel.PDESPackCmd(accel.PDESOpPush, c, child))
					}
					p.MMIOWrite64(duet.SoftRegAddr(accel.PDESCmdReg), accel.PDESPackCmd(accel.PDESOpDone, c, 0))
				}
				ends[c] = p.Now()
			})
		}
		return func() error {
			res.Runtime = span(starts, ends)

			if sched.Committed != wantCount {
				return fmt.Errorf("pdes-spec: committed %d events, want %d (squashed %d)", sched.Committed, wantCount, sched.Squashed)
			}
			for e, want := range wantRecords {
				if got := sys.ReadMem64(entityBase + uint64(e)*16); got != want {
					return fmt.Errorf("pdes-spec: entity %d record %#x, want %#x (rollback broken)", e, got, want)
				}
			}
			return nil
		}
	})
	return res, sched
}
