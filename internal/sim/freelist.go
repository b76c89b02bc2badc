package sim

// FreeList recycles one kind of per-request record, so a component's hot
// path allocates only until the list holds as many records as the
// component ever has in flight. Get returns a zeroed record; Put zeroes x
// and keeps it for the next Get. A record goes back at the one point where
// its last reader is done with it; zeroing makes a stale reader see zero
// fields, which the golden tests catch, rather than another request's.
//
// A FreeList is a LIFO and is not safe for concurrent use: like every
// component state, it belongs to one engine.
type FreeList[T any] struct{ free []*T }

// Get returns a zeroed record, reusing the most recently put one.
func (l *FreeList[T]) Get() *T {
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put zeroes x and keeps it for a later Get. x must not be used after.
func (l *FreeList[T]) Put(x *T) {
	var zero T
	*x = zero
	l.free = append(l.free, x)
}
