package sim

// EdgeAt reports the time of rising edge number n.
func (c *Clock) EdgeAt(n int64) Time {
	return c.Phase + Time(n)*c.Period
}

// Done reports whether the thread function has returned.
func (t *Thread) Done() bool { return t.done }

// Signal wakes the oldest waiter, thread or callback, if any. Removal
// shifts the FIFO in place (rather than re-slicing) so the queue's
// capacity is kept and the wait/signal steady state allocates nothing.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	ev := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	c.eng.AtEvent(c.eng.now, ev)
}

// Pending reports the number of queued events: the unrun events of the
// calendar's live buckets plus the far heap.
func (e *Engine) Pending() int {
	n := len(e.far)
	for _, bi := range e.heap {
		b := &e.buckets[bi]
		n += len(b.evs) - b.head
	}
	return n
}
