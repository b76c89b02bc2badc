package sim

import (
	"container/heap"
	"testing"
)

// refEvent / refHeap reimplement the kernel's pre-calendar event queue — a
// container/heap of boxed events totally ordered by (at, seq) — as the
// ordering oracle for FuzzEventOrder (which reads id) and FuzzThreadOrder
// (which runs fn).
type refEvent struct {
	at  Time
	seq uint64
	id  int
	fn  func()
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

// threadStep is one step of a fuzzed thread: a wait of dt, then a trace
// record. The wait is a Sleep, or with resume a Park ended by a callback
// that calls Resume dt from now. After the record the thread may schedule
// a child callback child after now (child < 0: none) and may call Stop.
type threadStep struct {
	dt, child    Time
	resume, stop bool
}

// rootCall is a callback scheduled before the first run.
type rootCall struct {
	at, child Time
	stop      bool
}

// runSeg is one run call of a fuzzed program: RunBefore(deadline) when budget
// is 0, else Run(budget).
type runSeg struct {
	deadline Time
	budget   int
}

type threadProg struct {
	threads [][]threadStep
	roots   []rootCall
	segs    []runSeg
}

// traceRec is one entry of a run's trace: who ran, and Now() when it ran.
type traceRec struct {
	id int
	at Time
}

// Trace ids: roots get their index; the other kinds are offset by thread
// (ti+1)*1000 plus step index, or by a counter.
const (
	idRootChild   = 10_000
	idStep        = 100_000
	idResumer     = 200_000
	idStepChild   = 300_000
	idInjected    = 400_000
	idRunReturned = 500_000
)

func stepID(base, ti, si int) int { return base + (ti+1)*1000 + si }

// decodeThreadProg reads byte pairs: the low two bits of the first byte
// pick a root callback, a thread step, a RunBefore or a budgeted Run;
// its other bits and the second byte give the details. Threads start at
// time 0 and every time lands on a 50 ps grid, so thread wakeups,
// callbacks and deadlines share instants.
func decodeThreadProg(data []byte) threadProg {
	p := threadProg{threads: make([][]threadStep, 3)}
	for i := 0; i+1 < len(data) && i < 512; i += 2 {
		a, b := data[i], data[i+1]
		switch a & 3 {
		case 0:
			rc := rootCall{at: Time(b) * 50, child: -1, stop: a&4 != 0}
			if a&8 != 0 {
				rc.child = Time(a>>4) * 50
			}
			p.roots = append(p.roots, rc)
		case 1:
			st := threadStep{dt: Time(b) * 50, child: -1, resume: a&64 != 0, stop: a&128 != 0}
			if a&32 != 0 {
				st.child = Time(b%4) * 50
			}
			ti := int(a>>2) & 7 % 3
			p.threads[ti] = append(p.threads[ti], st)
		case 2:
			p.segs = append(p.segs, runSeg{deadline: Time(b) * 50})
		case 3:
			p.segs = append(p.segs, runSeg{budget: int(b%16) + 1})
		}
	}
	return p
}

// runKernelThreads plays p on the real engine: threads with steps start
// at time 0,
// roots are scheduled up front, then the segments run in order, each
// followed by a trace record of Now() (and, after a RunBefore, one
// callback injected at Now(), the streaming submission pattern). Final
// Run(0) calls drain the queue. It returns the trace and the return
// values of the budgeted runs.
func runKernelThreads(p threadProg) ([]traceRec, []int) {
	e := NewEngine()
	var got []traceRec
	rec := func(id int) { got = append(got, traceRec{id, e.Now()}) }
	for ti, steps := range p.threads {
		if len(steps) == 0 {
			continue
		}
		e.Go("fuzz", func(t *Thread) {
			for si, st := range steps {
				if st.resume {
					e.At(e.Now()+st.dt, func() {
						rec(stepID(idResumer, ti, si))
						t.Resume()
					})
					t.Park()
				} else {
					t.Sleep(st.dt)
				}
				rec(stepID(idStep, ti, si))
				if st.child >= 0 {
					e.At(e.Now()+st.child, func() { rec(stepID(idStepChild, ti, si)) })
				}
				if st.stop {
					e.Stop()
				}
			}
		})
	}
	for i, rc := range p.roots {
		e.At(rc.at, func() {
			rec(i)
			if rc.child >= 0 {
				e.At(e.Now()+rc.child, func() { rec(idRootChild + i) })
			}
			if rc.stop {
				e.Stop()
			}
		})
	}
	var counts []int
	marks := 0
	mark := func() {
		got = append(got, traceRec{idRunReturned + marks, e.Now()})
		marks++
	}
	for k, s := range p.segs {
		if s.budget > 0 {
			counts = append(counts, e.Run(s.budget))
			mark()
			continue
		}
		e.RunBefore(s.deadline)
		mark()
		e.At(e.Now(), func() { rec(idInjected + k) })
	}
	for e.Pending() > 0 {
		e.Run(0)
		mark()
	}
	if e.LiveThreads() != 0 {
		panic("fuzz thread left parked")
	}
	e.Close() // RunBefore keeps finished threads' workers pooled
	return got, counts
}

// runReferenceThreads plays p on the container/heap oracle, where every
// thread wakeup, start and Resume callback is an event of its own, and
// each run loop mirrors the kernel's documented stop, deadline and
// budget rules.
func runReferenceThreads(p threadProg) ([]traceRec, []int) {
	var (
		h       refHeap
		seq     uint64
		now     Time
		stopped bool
		got     []traceRec
	)
	rec := func(id int) { got = append(got, traceRec{id, now}) }
	at := func(tm Time, fn func()) {
		seq++
		heap.Push(&h, &refEvent{at: tm, seq: seq, fn: fn})
	}
	// cont runs thread ti from the wait before step si up to its next
	// queued wakeup: a zero Sleep does not wait.
	var cont func(ti, si int)
	cont = func(ti, si int) {
		for steps := p.threads[ti]; si < len(steps); si++ {
			si, st := si, steps[si]
			body := func() {
				rec(stepID(idStep, ti, si))
				if st.child >= 0 {
					at(now+st.child, func() { rec(stepID(idStepChild, ti, si)) })
				}
				if st.stop {
					stopped = true
				}
			}
			switch {
			case st.resume:
				at(now+st.dt, func() {
					rec(stepID(idResumer, ti, si))
					body()
					cont(ti, si+1)
				})
				return
			case st.dt > 0:
				at(now+st.dt, func() {
					body()
					cont(ti, si+1)
				})
				return
			}
			body()
		}
	}
	for ti, steps := range p.threads {
		if len(steps) > 0 {
			at(0, func() { cont(ti, 0) })
		}
	}
	for i, rc := range p.roots {
		at(rc.at, func() {
			rec(i)
			if rc.child >= 0 {
				at(now+rc.child, func() { rec(idRootChild + i) })
			}
			if rc.stop {
				stopped = true
			}
		})
	}
	pop := func() {
		ev := heap.Pop(&h).(*refEvent)
		now = ev.at
		ev.fn()
	}
	var counts []int
	marks := 0
	mark := func() {
		got = append(got, traceRec{idRunReturned + marks, now})
		marks++
	}
	for k, s := range p.segs {
		stopped = false
		n := 0
		for h.Len() > 0 && !stopped {
			if s.budget > 0 && n >= s.budget || s.budget == 0 && h[0].at >= s.deadline {
				break
			}
			pop()
			n++
		}
		if s.budget > 0 {
			counts = append(counts, n)
			mark()
			continue
		}
		if now < s.deadline && !stopped {
			now = s.deadline
		}
		mark()
		at(now, func() { rec(idInjected + k) })
	}
	for h.Len() > 0 {
		stopped = false
		for h.Len() > 0 && !stopped {
			pop()
		}
		mark()
	}
	return got, counts
}

// FuzzThreadOrder mixes sleeping threads, Resume-driven threads and
// callbacks under RunBefore deadlines, event budgets and mid-run Stop
// calls, and requires the kernel to produce the reference's (id, Now())
// trace, in which every thread wakeup is a queued event. It guards the
// run-on rule of Thread.WaitUntil: a thread that keeps running past a
// wait must be indistinguishable from one that took the queued wakeup.
// Budgeted runs must also pop exactly as many events as the reference.
func FuzzThreadOrder(f *testing.F) {
	f.Add([]byte{1, 4, 5, 4, 9, 4, 2, 200})                 // three threads, one deadline
	f.Add([]byte{1, 2, 0, 2, 1, 0, 1, 2, 3, 5, 1, 2})       // a sleep of 0, a tie with a root, a budget
	f.Add([]byte{65, 3, 1, 3, 0, 3, 2, 4, 2, 8})            // a Resume-driven step among sleeps
	f.Add([]byte{129, 3, 1, 3, 1, 9, 2, 255})               // a thread that stops the run mid-way
	f.Add([]byte{4, 6, 1, 6, 33, 2, 1, 6, 0, 200, 3, 1})    // a stopping root at a thread's instant
	f.Add([]byte{1, 1, 1, 1, 1, 1, 2, 0, 2, 1, 2, 2, 2, 3}) // deadlines on the thread's wake times
	f.Add([]byte{1, 1, 2, 1})                               // a wakeup at the deadline stays queued
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeThreadProg(data)
		got, gotN := runKernelThreads(p)
		want, wantN := runReferenceThreads(p)
		if len(got) != len(want) {
			t.Fatalf("kernel traced %d records, reference %d:\nkernel    %v\nreference %v", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trace diverges at %d:\nkernel    %v\nreference %v", i, got, want)
			}
		}
		for i := range wantN {
			if gotN[i] != wantN[i] {
				t.Fatalf("budgeted run %d popped %d events, reference %d", i, gotN[i], wantN[i])
			}
		}
	})
}
