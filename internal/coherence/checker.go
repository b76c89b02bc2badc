package coherence

import (
	"fmt"

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
// line's home directly, so a check allocates nothing per line.
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

	// Directory entries must point at real copies.
	for _, h := range d.Homes {
		for line, de := range h.dir {
			if de.owner >= 0 {
				c := d.caches[de.owner]
				if c == nil {
					return fmt.Errorf("line %#x: directory owner %d unknown", line, de.owner)
				}
				if s := c.State(line); s != StateM && s != StateE {
					return fmt.Errorf("line %#x: directory owner %d holds %s", line, de.owner, StateName(s))
				}
			}
			for _, id := range de.sharers {
				c := d.caches[id]
				if c == nil {
					return fmt.Errorf("line %#x: directory sharer %d unknown", line, id)
				}
				if s := c.State(line); s != StateS {
					return fmt.Errorf("line %#x: directory sharer %d holds %s", line, id, StateName(s))
				}
			}
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
	de := h.dir[line]
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
		if de == nil || de.owner != c.ID() {
			owner := -1
			if de != nil {
				owner = de.owner
			}
			return fmt.Errorf("line %#x: cache %d holds M/E but directory owner is %d", line, c.ID(), owner)
		}
	case StateS:
		if de == nil || !de.isSharer(c.ID()) {
			var sharers []int
			if de != nil {
				sharers = de.sharers
			}
			return fmt.Errorf("line %#x: cache %d holds S but directory sharers are %v", line, c.ID(), sharers)
		}
		if w.Data != h.lineData(line) {
			return fmt.Errorf("line %#x: sharer %d data diverges from home", line, c.ID())
		}
	}
	return nil
}
