package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed is not steady (README.md, "Reference seconds"), so
// while an iteration runs, a probe goroutine on an OS thread of its own
// runs a fixed slice of reference work every probeEvery and times each
// slice on its thread's CPU clock. The iteration's timings are then
// expressed in reference seconds (sample.norm): CPU seconds divided by the
// mean slice time, times refSliceSeconds. The probe's own CPU time is kept
// out of the iteration's (see now).
const (
	probeEvery = 20 * time.Millisecond
	// refSliceSeconds is the unit of the normalised timings: an iteration
	// that takes as long as one reference slice reads refSliceSeconds. A
	// slice takes about 1 ms on the 2-CPU Xeon hosts this was built on, so
	// normalised timings are of the order of host seconds there.
	refSliceSeconds = 0.001
	refActors       = 1024
	refEvents       = 1 << 13 // events per slice
)

// probeCPU is the CPU time the probe has used so far: its start and its
// finished slices.
var probeCPU atomic.Int64

// The reference work is a small discrete-event simulation, the kind of
// code the simulator runs, but none of the simulator's own: a binary-heap
// calendar of events, each dispatched through an interface to one of
// refActors actors of three kinds. Every event schedules exactly one more,
// so the calendar keeps refActors entries and every slice costs the same;
// a slice allocates nothing.
type refActor interface {
	fire(at uint64, c *refCalendar)
}

type refEvent struct {
	at    uint64
	actor int32
}

type refCalendar struct {
	heap   []refEvent
	actors []refActor
	state  uint64
}

func newRefCalendar() *refCalendar {
	c := &refCalendar{heap: make([]refEvent, 0, refActors)}
	for i := int32(0); i < refActors; i++ {
		switch i % 3 {
		case 0:
			c.actors = append(c.actors, &refClock{id: i, period: uint64(7 + i%61)})
		case 1:
			c.actors = append(c.actors, &refRandom{id: i, seed: uint64(i)})
		default:
			c.actors = append(c.actors, &refCounter{id: i})
		}
		c.push(refEvent{at: uint64(i), actor: i})
	}
	c.slice() // past the start-up transient: from here on, slices cost the same
	return c
}

func (c *refCalendar) push(e refEvent) {
	c.heap = append(c.heap, e)
	for i := len(c.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if c.heap[p].at <= c.heap[i].at {
			break
		}
		c.heap[p], c.heap[i] = c.heap[i], c.heap[p]
		i = p
	}
}

func (c *refCalendar) pop() refEvent {
	top := c.heap[0]
	n := len(c.heap) - 1
	c.heap[0] = c.heap[n]
	c.heap = c.heap[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && c.heap[l].at < c.heap[m].at {
			m = l
		}
		if r < n && c.heap[r].at < c.heap[m].at {
			m = r
		}
		if m == i {
			break
		}
		c.heap[m], c.heap[i] = c.heap[i], c.heap[m]
		i = m
	}
	return top
}

// slice runs one fixed unit of reference work.
func (c *refCalendar) slice() {
	for i := 0; i < refEvents; i++ {
		e := c.pop()
		c.actors[e.actor].fire(e.at, c)
	}
}

func splitmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// refClock fires at a fixed period.
type refClock struct {
	id     int32
	period uint64
	ticks  uint64
}

func (a *refClock) fire(at uint64, c *refCalendar) {
	a.ticks++
	c.state += a.ticks
	c.push(refEvent{at: at + a.period, actor: a.id})
}

// refRandom fires after a random delay and reads a random calendar entry.
type refRandom struct {
	id   int32
	seed uint64
}

func (a *refRandom) fire(at uint64, c *refCalendar) {
	a.seed = splitmix(a.seed + at)
	c.state ^= a.seed + c.heap[a.seed>>40%uint64(len(c.heap))].at
	c.push(refEvent{at: at + 1 + a.seed%97, actor: a.id})
}

// refCounter keeps a histogram of the times it fires at.
type refCounter struct {
	id     int32
	counts [64]uint32
}

func (a *refCounter) fire(at uint64, c *refCalendar) {
	a.counts[at%64]++
	if a.counts[at%64]%3 == 0 {
		c.state += uint64(a.counts[(at+7)%64])
	}
	c.push(refEvent{at: at + 3 + at%13, actor: a.id})
}

// probe is a running reference probe.
type probe struct {
	stop chan struct{}
	done chan probeResult
}

type probeResult struct {
	slices   int
	sliceCPU time.Duration // summed over slices
}

// startProbe starts the probe and returns once its calendar is built.
func startProbe() *probe {
	pr := &probe{stop: make(chan struct{}), done: make(chan probeResult, 1)}
	ready := make(chan struct{})
	c0 := processCPU()
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		c := newRefCalendar()
		close(ready)
		var res probeResult
		timed := func() time.Duration {
			t0 := threadCPU()
			c.slice()
			d := threadCPU() - t0
			res.sliceCPU += d
			res.slices++
			return d
		}
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-pr.stop:
				if res.slices == 0 { // an iteration shorter than probeEvery
					timed()
				}
				pr.done <- res
				return
			case <-tick.C:
				probeCPU.Add(int64(timed()))
			}
		}
	}()
	<-ready
	// All the process did meanwhile was start the probe (a new thread and
	// the calendar), on whichever thread.
	probeCPU.Store(int64(processCPU() - c0))
	return pr
}

// finish stops the probe and returns the mean CPU seconds of a slice.
func (pr *probe) finish() float64 {
	close(pr.stop)
	res := <-pr.done
	return res.sliceCPU.Seconds() / float64(res.slices)
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration { return cpuClock(3) } // CLOCK_THREAD_CPUTIME_ID

// processCPU is the CPU time of every thread of the process since exec.
func processCPU() time.Duration { return cpuClock(2) } // CLOCK_PROCESS_CPUTIME_ID

// cpuClock reads a CPU-time clock. Unlike getrusage, which for a running
// thread can lag by a scheduler tick, clock_gettime counts to the
// nanosecond.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("perfbench: reading CPU clock %d: %v", id, errno))
	}
	return time.Duration(ts.Nano())
}
