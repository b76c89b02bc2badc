package coherence

import (
	"fmt"
	"math/bits"

	"duet/internal/cache"
)

// CheckCoherence validates the single-writer/multiple-reader invariants
// and directory exactness of a quiescent domain:
//
//  1. at most one cache holds a line in M or E, and then no other cache
//     holds it at all;
//  2. every valid private line is tracked by its home directory with the
//     matching role (owner for M/E, sharer for S);
//  3. every directory entry points at caches that actually hold the line;
//  4. S copies and the home agree on data; an M copy is allowed to differ
//     (it is the authoritative value).
//
// It must only be called when Domain.Quiet() is true.
//
// It checks each cache's valid ways against the other caches and the
// line's home directly, then each home's resident lines against their
// holders, so a check allocates nothing per line. Caches are visited in
// slot order and lines in array order, so the first violation it reports
// is the same on every run.
func CheckCoherence(d *Domain) error {
	if !d.Quiet() {
		return fmt.Errorf("coherence: checker invoked while transactions are in flight")
	}
	var err error
	for _, c := range d.caches {
		c.arr.ForEach(func(w *cache.Way) {
			if err == nil {
				err = d.checkCopy(c, w)
			}
		})
		if err != nil {
			return err
		}
	}
	for _, h := range d.Homes {
		h.arr.ForEach(func(w *cache.Way) {
			if err == nil {
				err = d.checkHolders(h.dirOf(w.Tag, w))
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkCopy checks c's valid copy w against the other caches (invariant
// 1), the directory (invariant 2) and, for an S copy, the home's data
// (invariant 4).
func (d *Domain) checkCopy(c *PCache, w *cache.Way) error {
	line := w.Tag
	h := d.HomeFor(line)
	de, resident := h.peekDir(line)
	switch w.State {
	case StateM, StateE:
		for _, o := range d.caches {
			if o == c {
				continue
			}
			switch o.State(line) {
			case StateM, StateE:
				return fmt.Errorf("line %#x: multiple owners %v", line, []int{c.ID(), o.ID()})
			case StateS:
				return fmt.Errorf("line %#x: owner %d coexists with sharers %v", line, c.ID(), []int{o.ID()})
			}
		}
		if !resident || de.owner() != c.slot {
			_, owner, _ := h.SnapshotLine(line)
			return fmt.Errorf("line %#x: cache %d holds M/E but directory owner is %d", line, c.ID(), owner)
		}
	case StateS:
		if !resident || de.owned() || !de.holds(c.slot) {
			_, _, sharers := h.SnapshotLine(line)
			return fmt.Errorf("line %#x: cache %d holds S but directory sharers are %v", line, c.ID(), sharers)
		}
		if w.Data != h.lineData(line) {
			return fmt.Errorf("line %#x: sharer %d data diverges from home", line, c.ID())
		}
	}
	return nil
}

// checkHolders checks that de's holders hold its line in their recorded
// role (invariant 3).
func (d *Domain) checkHolders(de dirEntry) error {
	line := de.way.Tag
	if de.owned() && bits.OnesCount64(*de.holders) != 1 {
		return fmt.Errorf("line %#x: directory owns the line for holder mask %#x", line, *de.holders)
	}
	for m := *de.holders; m != 0; m &= m - 1 {
		slot := bits.TrailingZeros64(m)
		if slot >= len(d.caches) {
			return fmt.Errorf("line %#x: directory holder slot %d unknown", line, slot)
		}
		c := d.caches[slot]
		switch s := c.State(line); {
		case de.owned() && s != StateM && s != StateE:
			return fmt.Errorf("line %#x: directory owner %d holds %s", line, c.ID(), StateName(s))
		case !de.owned() && s != StateS:
			return fmt.Errorf("line %#x: directory sharer %d holds %s", line, c.ID(), StateName(s))
		}
	}
	return nil
}
