package cdc

import "duet/internal/sim"

// PushBlocking pushes payload, parking thread t while the FIFO is full.
func (f *Fifo[T]) PushBlocking(t *sim.Thread, payload T, tx *sim.TX) {
	for !f.TryPush(payload, tx) {
		f.notFull.Wait(t)
	}
}

// Backlog reports entries accepted but not yet in the FIFO.
func (p *Pusher[T]) Backlog() int { return p.n }
