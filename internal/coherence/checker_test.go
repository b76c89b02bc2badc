package coherence

import (
	"strings"
	"testing"

	"duet/internal/sim"
)

// TestCheckCoherenceCatchesViolations breaks each documented invariant of
// CheckCoherence once, on a quiescent domain where caches 0 and 1 share
// line shared in S and cache 2 owns line owned in M, and requires the
// checker to name the violation.
func TestCheckCoherenceCatchesViolations(t *testing.T) {
	const shared, owned = 0x3000, 0x4000
	cases := []struct {
		name    string
		corrupt func(r *testRig)
		want    string
	}{
		{"two owners", func(r *testRig) {
			r.caches[0].way(shared).State = StateM
			r.caches[1].way(shared).State = StateM
		}, "multiple owners"},
		{"owner beside a sharer", func(r *testRig) {
			r.caches[0].way(shared).State = StateE
		}, "coexists with sharers"},
		{"untracked sharer", func(r *testRig) {
			r.dom.dirEntry(shared).removeSharer(1)
		}, "cache 1 holds S but directory sharers are [0]"},
		{"untracked owner", func(r *testRig) {
			r.dom.dirEntry(owned).owner = 0
		}, "cache 2 holds M/E but directory owner is 0"},
		{"directory sharer without a copy", func(r *testRig) {
			r.dom.dirEntry(shared).addSharer(2)
		}, "directory sharer 2 holds I"},
		{"stale sharer data", func(r *testRig) {
			r.caches[1].way(shared).Data[0] ^= 1
		}, "sharer 1 data diverges from home"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, 3)
			r.eng.Go("share", func(th *sim.Thread) {
				r.caches[0].Load(th, shared, 8, nil)
				r.caches[1].Load(th, shared, 8, nil)
				r.caches[2].Store(th, owned, le64(5), nil)
			})
			r.settle(t)
			tc.corrupt(r)
			err := CheckCoherence(r.dom)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckCoherence = %v, want an error naming %q", err, tc.want)
			}
		})
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
