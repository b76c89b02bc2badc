package coherence

import (
	"fmt"
	"strings"
	"testing"

	"duet/internal/sim"
)

// TestCheckCoherenceCatchesViolations breaks each documented invariant of
// CheckCoherence once, on a quiescent domain where caches 0 and 1 share
// line shared in S and cache 2 owns line owned in M, and requires the
// checker to name the violation. The sparse layout repeats every case
// with cache IDs that differ from the slots the directory records and two
// caches on one tile, so the error text must translate slots to IDs.
func TestCheckCoherenceCatchesViolations(t *testing.T) {
	const shared, owned = 0x3000, 0x4000
	layouts := []struct {
		prefix     string
		ids, tiles []int
	}{
		{"", []int{0, 1, 2}, []int{0, 1, 2}},
		{"sparse ids/", []int{0, 7, 1000}, []int{0, 3, 3}},
	}
	cases := []struct {
		name    string
		corrupt func(r *testRig) // names caches by slot
		want    string           // names caches by ID: %[1]d, %[2]d, %[3]d
	}{
		{"two owners", func(r *testRig) {
			r.caches[0].way(shared).State = StateM
			r.caches[1].way(shared).State = StateM
		}, "multiple owners [%[1]d %[2]d]"},
		{"owner beside a sharer", func(r *testRig) {
			r.caches[0].way(shared).State = StateE
		}, "owner %[1]d coexists with sharers [%[2]d]"},
		{"untracked sharer", func(r *testRig) {
			r.dom.dirEntry(shared).drop(1)
		}, "cache %[2]d holds S but directory sharers are [%[1]d]"},
		{"untracked owner", func(r *testRig) {
			r.dom.dirEntry(owned).setOwner(0)
		}, "cache %[3]d holds M/E but directory owner is %[1]d"},
		{"directory sharer without a copy", func(r *testRig) {
			r.dom.dirEntry(shared).addSharer(2)
		}, "directory sharer %[3]d holds I"},
		{"stale sharer data", func(r *testRig) {
			r.caches[1].way(shared).Data[0] ^= 1
		}, "sharer %[2]d data diverges from home"},
	}
	for _, l := range layouts {
		for _, tc := range cases {
			t.Run(l.prefix+tc.name, func(t *testing.T) {
				r := newRigLayout(t, l.ids, l.tiles)
				r.eng.Go("share", func(th *sim.Thread) {
					r.caches[0].Load(th, shared, 8, nil)
					r.caches[1].Load(th, shared, 8, nil)
					r.caches[2].Store(th, owned, le64(5), nil)
				})
				r.settle(t)
				tc.corrupt(r)
				want := fmt.Sprintf(tc.want, l.ids[0], l.ids[1], l.ids[2])
				err := CheckCoherence(r.dom)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("CheckCoherence = %v, want an error naming %q", err, want)
				}
			})
		}
	}
}

// TestCheckCoherenceReportsInOrder: a domain with many violations reports
// the same first one on every call, because the checker walks caches in
// slot order and lines in array order.
func TestCheckCoherenceReportsInOrder(t *testing.T) {
	r := newRig(t, 4)
	r.eng.Go("share", func(th *sim.Thread) {
		for i := uint64(0); i < 8; i++ {
			for _, c := range r.caches {
				c.Load(th, 0x20000+i*16, 8, nil)
			}
		}
	})
	r.settle(t)
	for i := uint64(0); i < 8; i++ {
		for _, c := range r.caches {
			c.way(0x20000 + i*16).Data[0] ^= 1
		}
	}
	first := CheckCoherence(r.dom)
	if first == nil {
		t.Fatal("CheckCoherence passed a domain whose every copy diverges")
	}
	for i := 0; i < 20; i++ {
		if err := CheckCoherence(r.dom); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d reported %v, the first call %v", i+2, err, first)
		}
	}
}

// TestCheckCoherenceAllocatesNothing: the checker reads each copy against
// the directory in place, with no per-line bookkeeping.
func TestCheckCoherenceAllocatesNothing(t *testing.T) {
	r := newRig(t, 4)
	r.eng.Go("fill", func(th *sim.Thread) {
		for i := uint64(0); i < 64; i++ {
			r.caches[i%4].Store(th, 0x10000+i*16, le64(i), nil)
			r.caches[(i+1)%4].Load(th, 0x20000+i*16, 8, nil)
			r.caches[(i+2)%4].Load(th, 0x20000+i*16, 8, nil)
		}
	})
	r.settle(t)
	if n := testing.AllocsPerRun(5, func() {
		if err := CheckCoherence(r.dom); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("CheckCoherence allocates %v objects per call, want 0", n)
	}
}
