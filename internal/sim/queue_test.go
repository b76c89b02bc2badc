package sim

import (
	"slices"
	"testing"
)

// queueVals returns q's elements front to back, read through At.
func queueVals(q *Queue[*int]) []int {
	var vs []int
	for i := range q.Len() {
		vs = append(vs, **q.At(i))
	}
	return vs
}

// checkFreedSlots fails t unless every slot of q's ring outside its live
// elements is nil: Pop and DeleteFunc must not keep a record reachable.
func checkFreedSlots(t testing.TB, q *Queue[*int]) {
	t.Helper()
	for i := q.Len(); i < len(q.buf); i++ {
		if p := q.buf[(q.head+i)&(len(q.buf)-1)]; p != nil {
			t.Fatalf("free slot %d of %d holds %d", i, len(q.buf), *p)
		}
	}
}

func TestQueue(t *testing.T) {
	vals := make([]int, 16)
	for i := range vals {
		vals[i] = i
	}
	var q Queue[*int]
	push := func(vs ...int) {
		for _, v := range vs {
			q.Push(&vals[v])
		}
	}
	pop := func(want int) {
		t.Helper()
		if got := *q.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
	expect := func(want ...int) {
		t.Helper()
		if got := queueVals(&q); !slices.Equal(got, want) {
			t.Fatalf("queue holds %v, want %v", got, want)
		}
		checkFreedSlots(t, &q)
	}

	// Wrap around a four-slot ring: the back passes the end of buf.
	push(0, 1, 2)
	pop(0)
	pop(1)
	push(3, 4, 5)
	if len(q.buf) != 4 || q.head != 2 {
		t.Fatalf("ring of %d slots with head %d, want 4 and 2", len(q.buf), q.head)
	}
	expect(2, 3, 4, 5)

	// Grow while wrapped: the ring doubles and keeps FIFO order.
	push(6)
	if len(q.buf) != 8 {
		t.Fatalf("full ring grew to %d slots, want 8", len(q.buf))
	}
	expect(2, 3, 4, 5, 6)
	pop(2)
	push(7, 8, 9, 10)
	expect(3, 4, 5, 6, 7, 8, 9, 10)

	// At addresses the element in place.
	*q.At(1) = &vals[15]
	expect(3, 15, 5, 6, 7, 8, 9, 10)

	// DeleteFunc keeps the survivors in order and zeroes the freed slots.
	q.DeleteFunc(func(p *int) bool { return *p%2 == 1 })
	expect(6, 8, 10)
	q.DeleteFunc(func(p *int) bool { return *p == 42 })
	expect(6, 8, 10)
	pop(6)
	pop(8)
	pop(10)
	expect()
	q.DeleteFunc(func(*int) bool { return true })
	expect()

	for _, f := range []func(){func() { q.Pop() }, func() { q.At(0) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("access to an empty Queue did not panic")
				}
			}()
			f()
		}()
	}
}

// TestQueueSteadyStateAllocsNothing: once the ring holds a queue's
// high-water mark, pushes and pops allocate nothing, however far the
// front has moved.
func TestQueueSteadyStateAllocsNothing(t *testing.T) {
	var q Queue[uint64]
	for i := range 5 {
		q.Push(uint64(i))
	}
	var sum uint64
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(sum)
		q.Push(sum + 1)
		sum += q.Pop() + q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("push/pop at bounded occupancy allocated %.1f objects per run", allocs)
	}
}

// FuzzQueue drives a Queue with random pushes, pops and deletes against a
// plain slice, checking after every step that both hold the same elements
// in the same order and that no freed slot keeps a pointer.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 2})
	f.Add([]byte{0, 4, 8, 12, 16, 1, 1, 20, 24, 28, 32, 6, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Queue[*int]
		var ref []int
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // push the next value
				v := next
				next++
				q.Push(&v)
				ref = append(ref, v)
			case 1: // pop
				if len(ref) == 0 {
					continue
				}
				if got := *q.Pop(); got != ref[0] {
					t.Fatalf("Pop = %d, want %d", got, ref[0])
				}
				ref = ref[1:]
			case 2: // delete the multiples of k
				k := int(op/3)%4 + 2
				del := func(v int) bool { return v%k == 0 }
				q.DeleteFunc(func(p *int) bool { return del(*p) })
				ref = slices.DeleteFunc(ref, del)
			}
			if got := queueVals(&q); !slices.Equal(got, ref) {
				t.Fatalf("queue holds %v, want %v", got, ref)
			}
			if n := len(q.buf); n&(n-1) != 0 {
				t.Fatalf("ring of %d slots is not a power of two", n)
			}
			checkFreedSlots(t, &q)
		}
	})
}
