package cdc

import "duet/internal/sim"

// PopBlocking pops the head entry, parking thread t until one is visible:
// the tests' thread-side reader.
func (f *Fifo[T]) PopBlocking(t *sim.Thread) (T, *sim.TX) {
	e := f.popEntry(t)
	return e.payload, e.tx
}

// popEntry is PopBlocking returning the whole entry, with the writer edge
// it was committed at and the reader edge it became visible at.
func (f *Fifo[T]) popEntry(t *sim.Thread) entry[T] {
	for {
		e := f.peek()
		if _, _, ok := f.TryPop(); ok {
			return e
		}
		f.notEmpty.Wait(t)
	}
}

// peek returns the head entry, or a zero entry when nothing is committed.
func (f *Fifo[T]) peek() entry[T] {
	if f.n == 0 {
		return entry[T]{}
	}
	return *f.q.At(0)
}

// waiting counts the entries Push accepted that are not yet committed.
func (f *Fifo[T]) waiting() int { return f.q.Len() - f.n }
