package cache

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"duet/internal/mem"
)

func TestLookupInstall(t *testing.T) {
	a := NewArray(1024, 4) // 64 lines, 16 sets
	if a.Lookup(0x100) != nil {
		t.Fatal("hit in empty cache")
	}
	var d mem.Line
	d[0] = 0x55
	w := a.Victim(0x100)
	a.Install(w, 0x100, d, 2)
	got := a.Lookup(0x100)
	if got == nil || got.Data[0] != 0x55 || got.State != 2 {
		t.Fatalf("lookup after install: %+v", got)
	}
}

// A way packs into 48 bytes: the arrays' ways are most of a cycle-level
// run's live heap, so a field that breaks the packing grows it by at
// least a sixth.
func TestWayPacks(t *testing.T) {
	if got := unsafe.Sizeof(Way{}); got != 48 {
		t.Fatalf("Way is %d bytes, want 48", got)
	}
}

func TestLRUEviction(t *testing.T) {
	a := NewArray(4*mem.LineBytes, 4) // one set, 4 ways
	addr := func(i int) uint64 { return uint64(i) * mem.LineBytes * uint64(a.Sets()) }
	for i := 0; i < 4; i++ {
		w := a.Victim(addr(i))
		a.Install(w, addr(i), mem.Line{}, 1)
	}
	// Touch 0 so that 1 becomes LRU.
	a.Lookup(addr(0))
	v := a.Victim(addr(9))
	if !v.Valid || v.Tag != addr(1) {
		t.Fatalf("victim = %+v, want tag %#x", v, addr(1))
	}
	// Install over a valid way must panic without prior invalidation.
	defer func() {
		if recover() == nil {
			t.Fatal("install over live line did not panic")
		}
	}()
	a.Install(v, addr(9), mem.Line{}, 1)
}

func TestInvalidate(t *testing.T) {
	a := NewArray(1024, 4)
	w := a.Victim(0x40)
	a.Install(w, 0x40, mem.Line{}, 1)
	a.Invalidate(w)
	if a.Lookup(0x40) != nil {
		t.Fatal("hit after invalidate")
	}
	if a.CountValid() != 0 {
		t.Fatal("valid count after invalidate")
	}
}

func TestPeekDoesNotTouch(t *testing.T) {
	a := NewArray(4*mem.LineBytes, 4)
	addr := func(i int) uint64 { return uint64(i) * mem.LineBytes }
	for i := 0; i < 4; i++ {
		a.Install(a.Victim(addr(i)), addr(i), mem.Line{}, 1)
	}
	a.Peek(addr(0)) // must NOT refresh LRU
	v := a.Victim(addr(9))
	if v.Tag != addr(0) {
		t.Fatalf("peek refreshed LRU; victim=%#x", v.Tag)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two sets did not panic")
		}
	}()
	NewArray(3*mem.LineBytes, 1)
}

// Property: after installing a random set of distinct lines into a large
// enough array, every one of them is found with its own data.
func TestPropertyInstallAll(t *testing.T) {
	f := func(seed uint8) bool {
		a := NewArray(64*1024, 4)
		n := int(seed)%64 + 1
		for i := 0; i < n; i++ {
			addr := uint64(i) * mem.LineBytes
			var d mem.Line
			d[0] = byte(i)
			w := a.Victim(addr)
			if w.Valid {
				a.Invalidate(w)
			}
			a.Install(w, addr, d, 1)
		}
		for i := 0; i < n; i++ {
			w := a.Peek(uint64(i) * mem.LineBytes)
			if w == nil || w.Data[0] != byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// setAddr returns the address of the i-th line mapping to set s.
func setAddr(a *Array, s, i int) uint64 {
	return uint64(i*a.Sets()+s) * mem.LineBytes
}

// A *Way handed out by Victim or Lookup must stay valid, with its data,
// while other sets are touched for the first time: set storage is carved
// from chunks that never move.
func TestWayStableAcrossFirstTouches(t *testing.T) {
	a := NewArray(64*1024, 4) // 1024 sets
	var d mem.Line
	d[3] = 0xa5
	v := a.Install(a.Victim(setAddr(a, 0, 0)), setAddr(a, 0, 0), d, 1)
	l := a.Lookup(setAddr(a, 0, 0))
	if l != v {
		t.Fatalf("lookup returned %p, victim %p", l, v)
	}
	for s := 1; s <= 100; s++ {
		a.Install(a.Victim(setAddr(a, s, 1)), setAddr(a, s, 1), mem.Line{byte(s)}, 2)
	}
	if !v.Valid || v.Tag != setAddr(a, 0, 0) || v.Data != d || v.State != 1 {
		t.Fatalf("way changed after 100 first touches: %+v", v)
	}
	if got := a.Peek(setAddr(a, 0, 0)); got != v {
		t.Fatalf("peek returned %p, want the original way %p", got, v)
	}
	for s := 1; s <= 100; s++ {
		if w := a.Peek(setAddr(a, s, 1)); w == nil || w.Data[0] != byte(s) {
			t.Fatalf("set %d lost its line: %+v", s, w)
		}
	}
}

// ForEach visits valid lines in set order and, within a set, in way
// order, whatever order the sets were first touched in.
func TestForEachSetThenWayOrder(t *testing.T) {
	a := NewArray(64*mem.LineBytes, 4) // 16 sets
	type pos struct{ set, tag int }
	var want []pos
	for _, s := range []int{9, 2, 15, 0, 7} {
		for i := 0; i < 3; i++ {
			addr := setAddr(a, s, i)
			a.Install(a.Victim(addr), addr, mem.Line{}, 1)
		}
	}
	a.Invalidate(a.Peek(setAddr(a, 2, 1))) // a hole inside a set
	for _, s := range []int{0, 2, 7, 9, 15} {
		for i := 0; i < 3; i++ {
			if s == 2 && i == 1 {
				continue
			}
			want = append(want, pos{s, int(setAddr(a, s, i))})
		}
	}
	var got []pos
	a.ForEach(func(w *Way) {
		got = append(got, pos{int(w.Tag/mem.LineBytes) % a.Sets(), int(w.Tag)})
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ForEach order\n got %v\nwant %v", got, want)
	}
}

// Lookup and Peek never allocate: on an untouched array or set they miss.
func TestLookupUntouchedAllocatesNothing(t *testing.T) {
	a := NewArray(64*1024, 4)
	if n := testing.AllocsPerRun(100, func() {
		if a.Lookup(0x4000) != nil || a.Peek(0x8000) != nil {
			t.Fatal("hit in an untouched array")
		}
	}); n != 0 {
		t.Fatalf("lookup on an untouched array allocated %v objects", n)
	}
	a.Install(a.Victim(0), 0, mem.Line{}, 1)
	if n := testing.AllocsPerRun(100, func() {
		a.Lookup(0x4010)
		a.Peek(0x8010)
	}); n != 0 {
		t.Fatalf("lookup on an untouched set allocated %v objects", n)
	}
	if a.CountValid() != 1 {
		t.Fatalf("misses materialized lines: %d valid", a.CountValid())
	}
}
