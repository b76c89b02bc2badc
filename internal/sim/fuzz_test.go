package sim

import (
	"container/heap"
	"slices"
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

// fuzzOp is one decoded root: an event at instant at, scheduled before
// the first run, which, when it runs, schedules a child childDt after its
// own execution time (childDt < 0 means no child). Children exercise
// nested scheduling, including the schedule-at-now-while-draining path.
type fuzzOp struct {
	at      Time
	childDt Time // -1: no child
}

const fuzzBase = 10 * NS

// fuzzTime maps a byte to a root instant or a RunBefore deadline. Bytes
// below 128 are near instants on a 100 ps grid from fuzzBase; from 128 up
// they straddle farFuture on the same grid, so a root scheduled at time 0
// goes to the far-future heap from byte 160 up.
func fuzzTime(b byte) Time {
	if b < 128 {
		return fuzzBase + Time(b)*100
	}
	return farFuture + Time(int(b)-160)*100
}

// fuzzDelay maps an even byte to a child's delay. Bytes below 128 are near
// delays on a 50 ps grid; from 128 up they straddle farFuture on the same
// grid, far from byte 192 up. A near root's child just short of farFuture
// lands in the calendar at a far root's instant.
func fuzzDelay(b byte) Time {
	if b < 128 {
		return Time(b) * 50
	}
	return farFuture + Time(int(b)-192)*50
}

// decodeFuzzOps reads byte pairs (a, b). With b even, a is a root at
// fuzzTime(a) with a child fuzzDelay(b) later; with b%4 == 1 it is a root
// without a child; with b%4 == 3 the pair is a run segment, Run(a%16+1)
// if b&4 is set, else RunBefore(fuzzTime(a)).
func decodeFuzzOps(data []byte) ([]fuzzOp, []runSeg) {
	var ops []fuzzOp
	var segs []runSeg
	for i := 0; i+1 < len(data) && i < 1024; i += 2 {
		a, b := data[i], data[i+1]
		switch {
		case b%4 == 3 && b&4 != 0:
			segs = append(segs, runSeg{budget: int(a%16) + 1})
		case b%4 == 3:
			segs = append(segs, runSeg{deadline: fuzzTime(a)})
		case b%2 == 0:
			ops = append(ops, fuzzOp{at: fuzzTime(a), childDt: fuzzDelay(b)})
		default:
			ops = append(ops, fuzzOp{at: fuzzTime(a), childDt: -1})
		}
	}
	return ops, segs
}

// runKernelOrder plays ops through the real engine: the roots are
// scheduled up front, then the segments run in order, each followed by a
// mark of Now() (and, after a RunBefore, an event injected at Now()), and
// a final Run(0) drains the queue. It returns the trace of (event id,
// Now()) — roots get their op index, the i-th op's child len(ops)+i — and
// the budgeted runs' return values.
func runKernelOrder(ops []fuzzOp, segs []runSeg) ([]traceRec, []int) {
	e := NewEngine()
	var got []traceRec
	rec := func(id int) { got = append(got, traceRec{id, e.Now()}) }
	for i, op := range ops {
		e.At(op.at, func() {
			rec(i)
			if op.childDt >= 0 {
				e.At(e.Now()+op.childDt, func() { rec(len(ops) + i) })
			}
		})
	}
	var counts []int
	for k, s := range segs {
		if s.budget > 0 {
			counts = append(counts, e.Run(s.budget))
			rec(idRunReturned + k)
			continue
		}
		e.RunBefore(s.deadline)
		rec(idRunReturned + k)
		e.At(e.Now(), func() { rec(idInjected + k) })
	}
	e.Run(0)
	if e.Pending() != 0 {
		panic("events left queued after Run(0)")
	}
	return got, counts
}

// runReferenceOrder plays the same ops through the container/heap oracle,
// mirroring the engine's semantics (seq assigned in scheduling order,
// children scheduled at pop time, RunBefore leaving events at the
// deadline queued and advancing the clock to it).
func runReferenceOrder(ops []fuzzOp, segs []runSeg) ([]traceRec, []int) {
	var (
		h   refHeap
		seq uint64
		now Time
		got []traceRec
	)
	rec := func(id int) { got = append(got, traceRec{id, now}) }
	at := func(tm Time, id int) {
		seq++
		heap.Push(&h, &refEvent{at: tm, seq: seq, id: id})
	}
	for i, op := range ops {
		at(op.at, i)
	}
	pop := func() {
		ev := heap.Pop(&h).(*refEvent)
		now = ev.at
		rec(ev.id)
		if ev.id < len(ops) {
			if op := ops[ev.id]; op.childDt >= 0 {
				at(now+op.childDt, len(ops)+ev.id)
			}
		}
	}
	var counts []int
	for k, s := range segs {
		n := 0
		for h.Len() > 0 {
			if s.budget > 0 && n >= s.budget || s.budget == 0 && h[0].at >= s.deadline {
				break
			}
			pop()
			n++
		}
		if s.budget > 0 {
			counts = append(counts, n)
			rec(idRunReturned + k)
			continue
		}
		now = max(now, s.deadline)
		rec(idRunReturned + k)
		at(now, idInjected+k)
	}
	for h.Len() > 0 {
		pop()
	}
	return got, counts
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

// FuzzEventOrder drives the kernel's queue — the calendar buckets and the
// far-future heap — and the reference container/heap with the same event
// stream, including same-instant ties, slot collisions, nested
// scheduling, delays on both sides of farFuture (so far and calendar
// events share instants), and RunBefore deadlines and Run budgets that
// land on either kind. It requires the same (id, Now()) trace and budgeted
// pop counts. This is the determinism contract every golden-seed result
// in this repository rests on.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1})            // same-instant FIFO ties
	f.Add([]byte{5, 1, 5, 1, 5, 0, 5, 2})      // children at and just after a busy instant
	f.Add([]byte{9, 0, 9, 0, 9, 0})            // children landing mid-drain
	f.Add([]byte{120, 1, 100, 1, 0, 1, 50, 1}) // out-of-order instants
	// Slot collisions: a and b take turns in one slot, so each instant
	// gets a second live bucket, with children landing at now.
	t1, t2 := collidingInstants(fuzzBase, 100)
	a, b := byte((t1-fuzzBase)/100), byte((t2-fuzzBase)/100)
	f.Add([]byte{a, 0, a, 1, b, 1, a, 1, a, 0, b, 1, b, 0})
	// A far root at farFuture+9.5ns (byte 255), a near root whose child
	// lands in the calendar at that instant, the far root's own child at
	// its instant, and a far child of a near root.
	f.Add([]byte{255, 0, 0, 182, 254, 1, 3, 200})
	f.Add([]byte{255, 1, 0, 182, 255, 3, 0, 1}) // a deadline at the shared instant, then an injected event
	f.Add([]byte{0, 1, 255, 1, 0, 7, 255, 0})   // a budget of one stops before the far roots
	f.Add([]byte{159, 1, 160, 1, 161, 1, 2, 7}) // roots just short of, at and past farFuture
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, segs := decodeFuzzOps(data)
		got, gotN := runKernelOrder(ops, segs)
		want, wantN := runReferenceOrder(ops, segs)
		if !slices.Equal(got, want) {
			t.Fatalf("trace diverges:\nkernel    %v\nreference %v", got, want)
		}
		if !slices.Equal(gotN, wantN) {
			t.Fatalf("budgeted runs popped %v events, reference %v", gotN, wantN)
		}
	})
}

// threadStep is one step of a fuzzed actor: a wait, then a trace record.
// The wait is a sleep of dt; with resume (threads only) a Park ended by a
// callback that calls Resume dt from now; with need > 0 a wait on the
// program's shared Cond until need more broadcasts have happened, which
// re-registers after each earlier (spurious) wake. After the record the
// actor may schedule a child callback child after now (child < 0: none).
type threadStep struct {
	dt, child Time
	need      int
	resume    bool
}

// rootCall is a callback scheduled before the first run; with bcast it
// broadcasts the shared Cond.
type rootCall struct {
	at, child Time
	bcast     bool
}

// runSeg is one run call of a fuzzed program: RunBefore(deadline) when budget
// is 0, else Run(budget).
type runSeg struct {
	deadline Time
	budget   int
}

// A program has fuzzActors actors: actors 0-2 are Threads, actors 3-5
// callback state machines that wait through Engine.RunOn, AtEvent and
// Cond.Await.
const (
	fuzzActors  = 6
	fuzzThreads = 3
)

type threadProg struct {
	threads [][]threadStep // per actor
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
	idWake        = 600_000 // a Cond wake of an actor, spurious or not
	idFinalBcast  = 700_000 // a broadcast that releases waiters at the end
)

func stepID(base, ti, si int) int { return base + (ti+1)*1000 + si }

// decodeThreadProg reads byte pairs: the low two bits of the first byte
// pick a root callback, an actor step, a RunBefore or a budgeted Run;
// its other bits and the second byte give the details. A root without a
// child whose high nibble is set broadcasts; a step's bits 2-4 pick the
// actor (6 and 7 fold onto threads 0 and 1), bit 6 makes it a resume,
// and bits 6 and 7 together a Cond wait for one or two broadcasts. Actors
// start at time 0 and every time lands on a 50 ps grid, so wakeups,
// callbacks and deadlines share instants.
func decodeThreadProg(data []byte) threadProg {
	p := threadProg{threads: make([][]threadStep, fuzzActors)}
	for i := 0; i+1 < len(data) && i < 512; i += 2 {
		a, b := data[i], data[i+1]
		switch a & 3 {
		case 0:
			rc := rootCall{at: Time(b) * 50, child: -1}
			if a&8 != 0 {
				rc.child = Time(a>>4) * 50
			} else {
				rc.bcast = a>>4 != 0
			}
			p.roots = append(p.roots, rc)
		case 1:
			st := threadStep{dt: Time(b) * 50, child: -1, resume: a&64 != 0}
			if a&32 != 0 {
				st.child = Time(b%4) * 50
			}
			ai := int(a>>2) & 7 % fuzzActors
			if st.resume && a&128 != 0 {
				st = threadStep{child: st.child, need: 1 + int(b%2)}
			} else if ai >= fuzzThreads {
				st.resume = false // only a thread can be resumed
			}
			p.threads[ai] = append(p.threads[ai], st)
		case 2:
			p.segs = append(p.segs, runSeg{deadline: Time(b) * 50})
		case 3:
			p.segs = append(p.segs, runSeg{budget: int(b%16) + 1})
		}
	}
	return p
}

// runKernelThreads plays p on the real engine: actors with steps start at
// time 0 (threads through Go, machines through an event at 0), roots are
// scheduled up front, then the segments run in order, each followed by a
// trace record of Now() (and, after a RunBefore, one callback injected at
// Now(), the streaming submission pattern). Final Run(0) calls drain the
// queue, broadcasting the Cond whenever the queue is empty while actors
// still wait on it. It returns the trace and the return values of the
// budgeted runs.
func runKernelThreads(p threadProg) ([]traceRec, []int) {
	e := NewEngine()
	cond := NewCond(e)
	gen := 0 // broadcasts so far
	var got []traceRec
	rec := func(id int) { got = append(got, traceRec{id, e.Now()}) }
	// body is the part of step si after its wait.
	body := func(ai, si int, st threadStep) {
		rec(stepID(idStep, ai, si))
		if st.child >= 0 {
			e.At(e.Now()+st.child, func() { rec(stepID(idStepChild, ai, si)) })
		}
	}
	for ai, steps := range p.threads {
		if len(steps) == 0 {
			continue
		}
		if ai < fuzzThreads {
			e.Go("fuzz", func(t *Thread) {
				for si, st := range steps {
					switch {
					case st.need > 0:
						for target := gen + st.need; gen < target; {
							cond.Wait(t)
							rec(stepID(idWake, ai, si))
						}
					case st.resume:
						e.At(e.Now()+st.dt, func() {
							rec(stepID(idResumer, ai, si))
							t.Resume()
						})
						t.Park()
					default:
						t.Sleep(st.dt)
					}
					body(ai, si, st)
				}
			})
			continue
		}
		// A callback state machine: si is the step it is at, waiting
		// whether that step's wait has begun, target its Cond goal.
		var ev Event
		si, waiting, target := 0, false, 0
		ev.Fn = func(any) {
			for ; si < len(steps); si++ {
				st := steps[si]
				switch {
				case !waiting && st.need > 0:
					waiting, target = true, gen+st.need
					cond.Await(&ev)
					return
				case !waiting:
					if !e.RunOn(e.Now()+st.dt, &ev) {
						waiting = true
						return
					}
				case st.need > 0:
					rec(stepID(idWake, ai, si))
					if gen < target {
						cond.Await(&ev)
						return
					}
				}
				waiting = false
				body(ai, si, st)
			}
		}
		e.AtEvent(0, &ev)
	}
	for i, rc := range p.roots {
		e.At(rc.at, func() {
			rec(i)
			if rc.child >= 0 {
				e.At(e.Now()+rc.child, func() { rec(idRootChild + i) })
			}
			if rc.bcast {
				gen++
				cond.Broadcast()
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
	for e.Pending() > 0 || len(cond.waiters) > 0 {
		if e.Pending() == 0 {
			rec(idFinalBcast + gen)
			gen++
			cond.Broadcast()
		}
		e.Run(0)
		mark()
	}
	if e.LiveThreads() != 0 {
		panic("fuzz thread left parked")
	}
	e.Close()
	return got, counts
}

// runReferenceThreads plays p on the container/heap oracle, where every
// wakeup, start, Resume callback and Cond wake is an event of its own, so
// threads and machines are the same thing, and each run loop mirrors the
// kernel's documented deadline and budget rules.
func runReferenceThreads(p threadProg) ([]traceRec, []int) {
	var (
		h       refHeap
		seq     uint64
		now     Time
		got     []traceRec
		gen     int
		waiters []func() // the Cond's FIFO
	)
	rec := func(id int) { got = append(got, traceRec{id, now}) }
	at := func(tm Time, fn func()) {
		seq++
		heap.Push(&h, &refEvent{at: tm, seq: seq, fn: fn})
	}
	broadcast := func() {
		gen++
		for _, w := range waiters {
			at(now, w)
		}
		waiters = nil
	}
	// cont runs actor ai from the wait before step si up to its next
	// queued wakeup: a zero sleep does not wait.
	var cont func(ai, si int)
	cont = func(ai, si int) {
		for steps := p.threads[ai]; si < len(steps); si++ {
			si, st := si, steps[si]
			body := func() {
				rec(stepID(idStep, ai, si))
				if st.child >= 0 {
					at(now+st.child, func() { rec(stepID(idStepChild, ai, si)) })
				}
			}
			switch {
			case st.need > 0:
				target := gen + st.need
				var wake func()
				wake = func() {
					rec(stepID(idWake, ai, si))
					if gen < target {
						waiters = append(waiters, wake)
						return
					}
					body()
					cont(ai, si+1)
				}
				waiters = append(waiters, wake)
				return
			case st.resume:
				at(now+st.dt, func() {
					rec(stepID(idResumer, ai, si))
					body()
					cont(ai, si+1)
				})
				return
			case st.dt > 0:
				at(now+st.dt, func() {
					body()
					cont(ai, si+1)
				})
				return
			}
			body()
		}
	}
	for ai, steps := range p.threads {
		if len(steps) > 0 {
			at(0, func() { cont(ai, 0) })
		}
	}
	for i, rc := range p.roots {
		at(rc.at, func() {
			rec(i)
			if rc.child >= 0 {
				at(now+rc.child, func() { rec(idRootChild + i) })
			}
			if rc.bcast {
				broadcast()
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
		n := 0
		for h.Len() > 0 {
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
		now = max(now, s.deadline)
		mark()
		at(now, func() { rec(idInjected + k) })
	}
	for h.Len() > 0 || len(waiters) > 0 {
		if h.Len() == 0 {
			rec(idFinalBcast + gen)
			broadcast()
		}
		for h.Len() > 0 {
			pop()
		}
		mark()
	}
	return got, counts
}

// FuzzThreadOrder mixes sleeping threads, Resume-driven threads, callback
// state machines and plain callbacks, with threads and machines waiting
// on one Cond, under RunBefore deadlines and event budgets. It requires
// the kernel to produce the reference's (id, Now()) trace, in which
// every wakeup is a queued event. It guards the run-on
// rule (Engine.RunOn): a thread or callback that keeps running past a
// wait must be indistinguishable from one that took the queued wakeup.
// It also guards the Cond's one FIFO of thread and callback waiters, with
// a waiter re-registering after a wake that did not satisfy it. Budgeted
// runs must also pop exactly as many events as the reference.
func FuzzThreadOrder(f *testing.F) {
	f.Add([]byte{1, 4, 5, 4, 9, 4, 2, 200})                 // three threads, one deadline
	f.Add([]byte{1, 2, 0, 2, 1, 0, 1, 2, 3, 5, 1, 2})       // a sleep of 0, a tie with a root, a budget
	f.Add([]byte{65, 3, 1, 3, 0, 3, 2, 4, 2, 8})            // a Resume-driven step among sleeps
	f.Add([]byte{129, 3, 1, 3, 1, 9, 2, 255})               // sleeps across a deadline
	f.Add([]byte{4, 6, 1, 6, 33, 2, 1, 6, 0, 200, 3, 1})    // a root at a thread's instant
	f.Add([]byte{1, 1, 1, 1, 1, 1, 2, 0, 2, 1, 2, 2, 2, 3}) // deadlines on the thread's wake times
	f.Add([]byte{1, 1, 2, 1})                               // a wakeup at the deadline stays queued
	f.Add([]byte{13, 3, 17, 0, 13, 2, 21, 4, 2, 2, 2, 6})   // machines running on past sleeps and deadlines
	// Two threads and two machines wait on the Cond in turn, one of each
	// for two broadcasts; broadcasting roots at 100 and 150 ps wake them
	// in FIFO order, and the final drain releases what still waits.
	f.Add([]byte{193, 1, 205, 0, 197, 0, 209, 1, 16, 2, 32, 3, 13, 1, 2, 4})
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
