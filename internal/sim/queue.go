package sim

// Queue is a FIFO of T values: a ring whose length is a power of two and
// doubles when full, so a component's queue allocates only until it
// reaches its high-water mark, and popping from the front never makes the
// next Push reallocate. Pop and DeleteFunc zero the slots they free, so a
// queue does not keep a popped record reachable.
//
// The zero Queue is empty and ready to use. Like FreeList, a Queue is not
// safe for concurrent use: like every component state, it belongs to one
// engine.
type Queue[T any] struct {
	buf  []T // len(buf) is 0 or a power of two
	head int // index in buf of the front element
	n    int // number of queued elements
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends x at the back.
func (q *Queue[T]) Push(x T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = x
	q.n++
}

// Pop removes and returns the front element. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of an empty Queue")
	}
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return x
}

// At returns a pointer to the i-th element from the front (At(0) is the
// element Pop returns next), valid until the next Push or DeleteFunc.
func (q *Queue[T]) At(i int) *T {
	if uint(i) >= uint(q.n) {
		panic("sim: Queue index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// DeleteFunc removes every element for which del reports true, keeping
// the others in order.
func (q *Queue[T]) DeleteFunc(del func(T) bool) {
	k := 0
	for i := 0; i < q.n; i++ {
		if x := *q.At(i); !del(x) {
			*q.At(k) = x
			k++
		}
	}
	var zero T
	for i := k; i < q.n; i++ {
		*q.At(i) = zero
	}
	q.n = k
}

// grow doubles the full ring (to 4 slots from empty), unwrapping it so the
// front element is first.
func (q *Queue[T]) grow() {
	buf := make([]T, max(4, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
