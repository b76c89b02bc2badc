package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"duet/internal/coherence"
	"duet/internal/mem"
	"duet/internal/sim"
)

// The oracle: the sync primitives' polled spin loops as they were before
// spinUntil, verbatim. Every poll is a thread-driven Load64 plus
// Exec(spinBackoff), each a coroutine round trip.

func oracleMCSAcquire(p Proc, tailAddr, nodeAddr uint64) {
	p.Store64(nodeAddr+mcsNextOff, 0)
	p.Store64(nodeAddr+mcsLockedOff, 1)
	pred := p.AmoSwap64(tailAddr, nodeAddr)
	if pred == 0 {
		return // uncontended
	}
	p.Store64(pred+mcsNextOff, nodeAddr)
	for p.Load64(nodeAddr+mcsLockedOff) != 0 {
		p.Exec(spinBackoff)
	}
}

func oracleMCSRelease(p Proc, tailAddr, nodeAddr uint64) {
	next := p.Load64(nodeAddr + mcsNextOff)
	if next == 0 {
		// No known successor: try to swing the tail back to empty.
		if p.Cas64(tailAddr, nodeAddr, 0) == nodeAddr {
			return
		}
		// A successor is enqueueing; wait for its link.
		for {
			next = p.Load64(nodeAddr + mcsNextOff)
			if next != 0 {
				break
			}
			p.Exec(spinBackoff)
		}
	}
	p.Store64(next+mcsLockedOff, 0)
}

func oracleBarrierWait(p Proc, addr uint64, n int, localSense uint64) {
	arrived := p.AmoAdd64(addr, 1) + 1
	if arrived == uint64(n) {
		p.Store64(addr, 0)            // reset count
		p.Store64(addr+8, localSense) // flip global sense, releasing waiters
		return
	}
	for p.Load64(addr+8) != localSense {
		p.Exec(spinBackoff)
	}
}

// syncImpl is one implementation of the spinning primitives.
type syncImpl struct {
	acquire, release func(p Proc, tailAddr, nodeAddr uint64)
	barrier          func(p Proc, addr uint64, n int, localSense uint64)
}

var (
	spinImpl   = syncImpl{MCSAcquire, MCSRelease, BarrierWait}
	oracleImpl = syncImpl{oracleMCSAcquire, oracleMCSRelease, oracleBarrierWait}
)

// casCountingProc counts failed Cas64 calls. In MCSRelease the only
// Cas64 is the tail swing, and its failure starts the link wait, so the
// count shows that the oracle runs covered that spin.
type casCountingProc struct {
	Proc
	fails *int
}

func (p casCountingProc) Cas64(addr uint64, expected, desired uint64) uint64 {
	old := p.Proc.Cas64(addr, expected, desired)
	if old != expected {
		*p.fails++
	}
	return old
}

// spinScenario is one contention schedule: every core takes the MCS lock
// iters times, with random think and hold times, and meets the others at
// a barrier every barrierEvery rounds. IRQs are raised at fixed times.
type spinScenario struct {
	cores, iters, barrierEvery int
	think, hold                [][]int64
	irqs                       []scheduledIRQ
}

type scheduledIRQ struct {
	core int
	at   sim.Time
}

func newSpinScenario(seed int64) spinScenario {
	rng := rand.New(rand.NewSource(seed))
	s := spinScenario{cores: 2 + rng.Intn(7), iters: 4 + rng.Intn(8), barrierEvery: 1 + rng.Intn(3)}
	for c := 0; c < s.cores; c++ {
		var think, hold []int64
		for k := 0; k < s.iters; k++ {
			think = append(think, rng.Int63n(200))
			hold = append(hold, rng.Int63n(80))
		}
		s.think = append(s.think, think)
		s.hold = append(s.hold, hold)
	}
	for i := 0; i < 2*s.cores; i++ {
		s.irqs = append(s.irqs, scheduledIRQ{core: rng.Intn(s.cores), at: sim.Time(500+rng.Intn(8000)) * sim.NS})
	}
	return s
}

// spinOutcome is everything a run of a scenario is compared on.
type spinOutcome struct {
	end      []sim.Time // each core's program end
	handled  []sim.Time // each IRQ handler's entry, in handling order
	counters [][7]uint64
	memory   []mem.Line
	now      sim.Time
}

// Scenario memory map: the lock's tail, one qnode per core, the shared
// counter, the acquisition log, the barrier and per-core IRQ counters.
const (
	spinTail    = uint64(0x6000)
	spinNodes   = uint64(0x6100)
	spinCounter = uint64(0x7000)
	spinLog     = uint64(0x7100)
	spinBarrier = uint64(0x9000)
	spinIRQs    = uint64(0x9100)
	spinMemEnd  = uint64(0x9200)
)

// run plays s with impl and reports the outcome, how many IRQs were
// raised while their core was inside a sync primitive, and how many
// release-time tail swings failed (oracle runs only).
func (s spinScenario) run(t *testing.T, impl syncImpl, countCas bool) (out spinOutcome, midSync, casFails int) {
	t.Helper()
	r := newRig(t, s.cores, nil)
	inSync := make([]bool, s.cores)
	out.end = make([]sim.Time, s.cores)
	for i, c := range r.cores {
		c.SetIRQHandler(func(p Proc, irq IRQ) {
			out.handled = append(out.handled, p.Now())
			p.Exec(7)
			p.AmoAdd64(spinIRQs+uint64(i)*8, irq.Info)
		})
		c.Run("spin", func(p Proc) {
			if countCas {
				p = casCountingProc{Proc: p, fails: &casFails}
			}
			node := spinNodes + uint64(i)*MCSNodeBytes
			sense := uint64(0)
			for k := 0; k < s.iters; k++ {
				p.Exec(s.think[i][k])
				inSync[i] = true
				impl.acquire(p, spinTail, node)
				inSync[i] = false
				v := p.Load64(spinCounter)
				p.Store64(spinLog+v*8, uint64(i+1))
				p.Exec(s.hold[i][k])
				p.Store64(spinCounter, v+1)
				inSync[i] = true
				impl.release(p, spinTail, node)
				if (k+1)%s.barrierEvery == 0 {
					sense ^= 1
					impl.barrier(p, spinBarrier, s.cores, sense)
				}
				inSync[i] = false
			}
			out.end[i] = p.Now()
		})
	}
	for _, irq := range s.irqs {
		r.eng.At(irq.at, func() {
			if inSync[irq.core] {
				midSync++
			}
			r.cores[irq.core].RaiseIRQ(IRQ{Cause: "test", Info: 1})
		})
	}
	r.run(t)
	out.now = r.eng.Now()
	for _, c := range r.cores {
		out.counters = append(out.counters, [7]uint64{c.Instrs, c.Loads, c.Stores, c.Atomics, c.MMIOs, c.L1Hits, c.L1Misses})
	}
	for line := spinTail; line < spinMemEnd; line += mem.LineBytes {
		out.memory = append(out.memory, r.dom.DebugReadLine(line))
	}
	return out, midSync, casFails
}

// TestSpinMatchesPolledLoop holds spinUntil's callback-driven polls to
// the thread-driven loops they replaced: on random MCS and barrier
// contention schedules over 2–8 cores, with IRQs raised mid-spin, every
// core must end at the same instant with the same counters, every IRQ
// must be taken at the same instant, and memory must end the same.
func TestSpinMatchesPolledLoop(t *testing.T) {
	var midSync, casFails int
	for seed := int64(1); seed <= 24; seed++ {
		s := newSpinScenario(seed)
		want, m, f := s.run(t, oracleImpl, true)
		got, _, _ := s.run(t, spinImpl, false)
		midSync += m
		casFails += f
		if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
			t.Fatalf("seed %d (%d cores): spin diverges from the polled loop\nspin   %+v\npolled %+v", seed, s.cores, got, want)
		}
		if got.counters[0][0] == 0 {
			t.Fatalf("seed %d: core 0 ran no instructions", seed)
		}
	}
	// The schedules must exercise what they claim to.
	if midSync == 0 {
		t.Fatal("no IRQ landed while a core was inside a sync primitive")
	}
	if casFails == 0 {
		t.Fatal("no MCS release waited for a successor's link")
	}
	t.Logf("%d IRQs mid-sync, %d release link waits", midSync, casFails)
}

// BenchmarkMCSContention runs a fixed number of MCS lock handoffs among
// four cores on a cycle-level coherence domain: 4 cores × 50
// acquisitions around a short critical section. Most of its host time is
// the waiters' spin polls.
func BenchmarkMCSContention(b *testing.B) {
	const cores, iters = 4, 50
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		r := newRig(b, cores, nil)
		for i, c := range r.cores {
			c.Run("mcs", func(p Proc) {
				node := spinNodes + uint64(i)*MCSNodeBytes
				for k := 0; k < iters; k++ {
					MCSAcquire(p, spinTail, node)
					v := p.Load64(spinCounter)
					p.Exec(20)
					p.Store64(spinCounter, v+1)
					MCSRelease(p, spinTail, node)
				}
			})
		}
		r.eng.Run(0)
		if got := r.dom.DebugReadLine(spinCounter); coherence.Uint64At(got[:8]) != cores*iters {
			b.Fatalf("counter = %d, want %d", coherence.Uint64At(got[:8]), cores*iters)
		}
		r.eng.Close()
	}
}
