package cdc

import "duet/internal/sim"

// PopBlocking pops the head entry, parking thread t until one is visible:
// the tests' thread-side reader.
func (f *Fifo[T]) PopBlocking(t *sim.Thread) (T, *sim.TX) {
	for {
		if v, tx, ok := f.TryPop(); ok {
			return v, tx
		}
		f.notEmpty.Wait(t)
	}
}

// PushBlocking pushes payload, parking thread t while the FIFO is full.
func (f *Fifo[T]) PushBlocking(t *sim.Thread, payload T, tx *sim.TX) {
	for !f.TryPush(payload, tx) {
		f.notFull.Wait(t)
	}
}

// Backlog reports entries accepted but not yet in the FIFO.
func (p *Pusher[T]) Backlog() int { return p.n }
