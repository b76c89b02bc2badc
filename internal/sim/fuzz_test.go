package sim

import (
	"container/heap"
	"testing"
)

// refEvent / refHeap reimplement the kernel's pre-calendar event queue — a
// container/heap of boxed events totally ordered by (at, seq) — as the
// ordering oracle for FuzzEventOrder.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// fuzzOp is one decoded fuzz instruction: a root event at fuzzBase+dt
// which, when it runs, schedules a child childDt after its own execution
// time (childDt < 0 means no child). Children exercise nested scheduling,
// including the schedule-at-now-while-draining path.
type fuzzOp struct {
	dt      Time
	childDt Time // -1: no child
}

const fuzzBase = 10 * NS

func decodeFuzzOps(data []byte) []fuzzOp {
	var ops []fuzzOp
	for i := 0; i+1 < len(data) && len(ops) < 512; i += 2 {
		op := fuzzOp{dt: Time(data[i]) * 100, childDt: -1}
		if data[i+1]%2 == 0 {
			op.childDt = Time(data[i+1]) * 50
		}
		ops = append(ops, op)
	}
	return ops
}

// runKernelOrder plays ops through the real engine and records execution
// order by event id (roots get their op index; the i-th op's child gets
// len(ops)+i).
func runKernelOrder(ops []fuzzOp) []int {
	e := NewEngine()
	var got []int
	for i, op := range ops {
		i, op := i, op
		childID := len(ops) + i
		e.At(fuzzBase+op.dt, func() {
			got = append(got, i)
			if op.childDt >= 0 {
				e.At(e.Now()+op.childDt, func() { got = append(got, childID) })
			}
		})
	}
	e.Run(0)
	return got
}

// runReferenceOrder plays the same ops through the container/heap oracle,
// mirroring the engine's semantics (seq assigned in scheduling order,
// children scheduled at pop time).
func runReferenceOrder(ops []fuzzOp) []int {
	var h refHeap
	var seq uint64
	var want []int
	for i, op := range ops {
		seq++
		heap.Push(&h, &refEvent{at: fuzzBase + op.dt, seq: seq, id: i})
	}
	for h.Len() > 0 {
		ev := heap.Pop(&h).(*refEvent)
		want = append(want, ev.id)
		if ev.id < len(ops) {
			if op := ops[ev.id]; op.childDt >= 0 {
				seq++
				heap.Push(&h, &refEvent{at: ev.at + op.childDt, seq: seq, id: len(ops) + ev.id})
			}
		}
	}
	return want
}

// collidingInstants returns the first two of the instants base+k*step,
// k = 0..256, that share a calendar slot; with 257 instants over 256 slots
// a pair always exists.
func collidingInstants(base, step Time) (Time, Time) {
	seen := map[uint64]Time{}
	for k := Time(0); k <= calSlots; k++ {
		tm := base + k*step
		if first, ok := seen[calSlot(tm)]; ok {
			return first, tm
		}
		seen[calSlot(tm)] = tm
	}
	panic("unreachable: more instants than slots")
}

// FuzzEventOrder drives the calendar-bucket queue and the reference
// container/heap with the same event stream — including same-instant
// ties, slot collisions and nested scheduling — and requires identical
// pop order. This is the determinism contract every golden-seed result in
// this repository rests on.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1})            // same-instant FIFO ties
	f.Add([]byte{5, 3, 5, 1, 5, 0, 5, 2})      // children at and just after a busy instant
	f.Add([]byte{9, 0, 9, 0, 9, 0})            // children landing mid-drain
	f.Add([]byte{200, 1, 100, 1, 0, 1, 50, 1}) // out-of-order instants
	// Slot collisions: a and b take turns in one slot, so each instant
	// gets a second live bucket, with children landing at now.
	t1, t2 := collidingInstants(fuzzBase, 100)
	a, b := byte((t1-fuzzBase)/100), byte((t2-fuzzBase)/100)
	f.Add([]byte{a, 0, a, 1, b, 1, a, 1, a, 0, b, 1, b, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeFuzzOps(data)
		got := runKernelOrder(ops)
		want := runReferenceOrder(ops)
		if len(got) != len(want) {
			t.Fatalf("executed %d events, reference executed %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pop order diverges at %d: kernel %v, reference %v", i, got, want)
			}
		}
	})
}
