package cdc

import (
	"testing"

	"duet/internal/sim"
)

// pushScenario is one decoded FuzzFifoPush input: a FIFO shape, bursts of
// pushes, and how long the consumer holds each entry it pops.
type pushScenario struct {
	depth      int
	wclk, rclk *sim.Clock
	bursts     []pushBurst
	holds      []int64 // reader cycles the consumer spends on entry id, by id % len(holds)
}

// pushBurst is pushers callbacks at one instant, each pushing each
// entries. A nested burst's first callback schedules one more pusher at
// the same instant, which runs behind everything already queued there,
// writer retries included.
type pushBurst struct {
	at            sim.Time
	pushers, each int
	nested        bool
}

// pushObs is what happened to one entry: the writer edge it was committed
// at, the reader edge it became visible at and the instant it was popped.
type pushObs struct {
	id                       int
	written, visible, popped sim.Time
}

const fuzzStages = 2

func decodePushScenario(depthB, wB, rB, phaseB uint8, data []byte) pushScenario {
	wper := sim.Time(1+wB%16) * 250
	rper := sim.Time(1+rB%16) * 250
	sc := pushScenario{
		depth: 1 + int(depthB%4),
		wclk:  &sim.Clock{Name: "w", Period: wper, Phase: wper * sim.Time(phaseB&3) / 4},
		rclk:  &sim.Clock{Name: "r", Period: rper, Phase: rper * sim.Time(phaseB>>2&3) / 4},
	}
	var at sim.Time
	entries := 0
	for i := 0; i+2 < len(data) && entries < 96; i += 3 {
		at += sim.Time(data[i]%16) * 250 // 0: the same instant as the burst before
		b := pushBurst{at: at, pushers: 1 + int(data[i+1]%3), each: 1 + int(data[i+1]/3%3), nested: data[i+1]&0x80 != 0}
		sc.bursts = append(sc.bursts, b)
		entries += b.pushers * b.each
		if b.nested {
			entries += b.each
		}
		sc.holds = append(sc.holds, int64(data[i+2]%4))
	}
	if len(sc.holds) == 0 {
		sc.holds = []int64{0}
	}
	return sc
}

// runPushScenario plays sc through a real FIFO. Its consumer is a callback
// state machine on TryPop and AwaitNotEmpty that, after popping an entry,
// holds for that entry's reader cycles. It returns each entry's push
// instant, by id (ids are given in Push-call order), and what the
// consumer saw, in pop order.
func runPushScenario(t *testing.T, sc pushScenario) (pushAt []sim.Time, got []pushObs) {
	eng := sim.NewEngine()
	f := NewFifo[int](eng, "fuzz", sc.wclk, sc.rclk, sc.depth, fuzzStages)
	push := func(k int) {
		for ; k > 0; k-- {
			f.Push(len(pushAt), nil)
			pushAt = append(pushAt, eng.Now())
		}
	}
	for _, b := range sc.bursts {
		for c := 0; c < b.pushers; c++ {
			eng.At(b.at, func() {
				push(b.each)
				if b.nested && c == 0 {
					eng.At(eng.Now(), func() { push(b.each) })
				}
			})
		}
	}
	var wake sim.Event
	consume := func() {
		for {
			e := f.peek()
			id, _, ok := f.TryPop()
			if !ok {
				f.AwaitNotEmpty(&wake)
				return
			}
			got = append(got, pushObs{id, e.writtenAt, e.visibleAt, eng.Now()})
			if h := sc.holds[id%len(sc.holds)]; h > 0 {
				eng.AtEvent(eng.Now()+sc.rclk.Cycles(h), &wake)
				return
			}
		}
	}
	wake = sim.Event{Fn: func(any) { consume() }}
	eng.AtEvent(0, &wake)
	eng.Run(0)
	if f.n != 0 || f.waiting() != 0 {
		t.Fatalf("%d entries committed and %d waiting after the run", f.n, f.waiting())
	}
	return pushAt, got
}

// refPush is FuzzFifoPush's reference: the FIFO's contract computed
// entry by entry, in Push order, from the push instants alone. An entry
// is first tried when it is pushed or when the entry ahead of it commits,
// whichever is later, and then at every writer edge after that, until the
// writer sees fewer than depth slots in use: earlier entries not yet
// popped, or popped but with their credit still crossing back. It commits
// at the writer edge at or after that try and is visible stages reader
// edges later. The consumer pops it at its visibility or when done
// holding the entry before, whichever is later.
func refPush(sc pushScenario, pushAt []sim.Time) []pushObs {
	want := make([]pushObs, len(pushAt))
	freeAt := make([]sim.Time, len(pushAt)) // when each entry's credit is back
	// ahead is when the entry ahead committed; ready is when the consumer
	// is done holding it.
	var ahead, ready sim.Time
	for i, p := range pushAt {
		t := max(p, ahead)
		for {
			inUse := 0
			for _, fr := range freeAt[:i] {
				if fr > t {
					inUse++
				}
			}
			if inUse < sc.depth {
				break
			}
			t = sc.wclk.EdgeAfter(t)
		}
		ahead = t
		w := sc.wclk.NextEdge(t)
		v := sc.rclk.EdgesAfter(w, fuzzStages)
		pop := max(ready, v)
		freeAt[i] = sc.wclk.EdgesAfter(pop, fuzzStages)
		ready = pop + sc.rclk.Cycles(sc.holds[i%len(sc.holds)])
		want[i] = pushObs{i, w, v, pop}
	}
	return want
}

// FuzzFifoPush holds ordered Push, under random depths, clock ratios and
// phases, same-instant bursts from several callbacks and consumer holds,
// to refPush: every entry's commit edge, visibility and pop instant, not
// just their order.
func FuzzFifoPush(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(39), uint8(0), []byte{0, 4, 0, 1, 5, 1})       // depth 1, fast to slow
	f.Add(uint8(1), uint8(15), uint8(0), uint8(5), []byte{2, 8, 3, 0, 0x82, 0})    // slow to fast, nested burst
	f.Add(uint8(3), uint8(2), uint8(2), uint8(10), []byte{0, 8, 2, 3, 7, 1, 0, 8}) // same clock, holds
	f.Fuzz(func(t *testing.T, depthB, wB, rB, phaseB uint8, data []byte) {
		sc := decodePushScenario(depthB, wB, rB, phaseB, data)
		pushAt, got := runPushScenario(t, sc)
		want := refPush(sc, pushAt)
		if len(got) != len(want) {
			t.Fatalf("popped %d of %d entries", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("depth %d, writer %v, reader %v: entry %d got %+v, want %+v",
					sc.depth, sc.wclk.Period, sc.rclk.Period, i, got[i], want[i])
			}
		}
	})
}
