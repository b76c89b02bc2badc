package cdc

import "duet/internal/sim"

// Pusher serializes pushes into a Fifo, preserving order under
// backpressure. A bare TryPush-with-retry can reorder entries (a retried
// push can fall behind a later successful one); every producer that may
// push while the FIFO is full must go through a Pusher.
type Pusher[T any] struct {
	eng     *sim.Engine
	f       *Fifo[T]
	q       []queued[T] // ring of entries not yet in the FIFO: n of them from head
	head, n int
	busy    bool
	drainEv sim.Event // pre-built retry record; rescheduled, never rebuilt
}

type queued[T any] struct {
	payload T
	tx      *sim.TX
}

// drainPusher is the trampoline behind every pusher's retry events. It is
// not generic, so no pusher builds a closure for it.
func drainPusher(a any) { a.(interface{ drain() }).drain() }

// NewPusher returns an ordered pusher for f.
func NewPusher[T any](eng *sim.Engine, f *Fifo[T]) *Pusher[T] {
	p := &Pusher[T]{eng: eng, f: f}
	p.drainEv = sim.Event{Fn: drainPusher, Arg: p}
	return p
}

// Push enqueues payload; it is committed to the FIFO in Push-call order as
// space becomes available.
func (p *Pusher[T]) Push(payload T, tx *sim.TX) {
	if p.n == len(p.q) {
		p.grow()
	}
	p.q[(p.head+p.n)%len(p.q)] = queued[T]{payload, tx}
	p.n++
	if !p.busy {
		p.drain()
	}
}

// grow doubles the ring, unwrapping it so the oldest entry is first.
func (p *Pusher[T]) grow() {
	q := make([]queued[T], max(4, 2*len(p.q)))
	for i := 0; i < p.n; i++ {
		q[i] = p.q[(p.head+i)%len(p.q)]
	}
	p.q, p.head = q, 0
}

func (p *Pusher[T]) drain() {
	for p.n > 0 {
		e := p.q[p.head]
		if !p.f.TryPush(e.payload, e.tx) {
			// Full: retry at the next writer edge. The busy flag keeps
			// later Push calls queued behind us.
			p.busy = true
			p.eng.AtEvent(p.f.WriterClock().EdgeAfter(p.eng.Now()), &p.drainEv)
			return
		}
		p.q[p.head] = queued[T]{}
		p.head = (p.head + 1) % len(p.q)
		p.n--
	}
	p.busy = false
}
