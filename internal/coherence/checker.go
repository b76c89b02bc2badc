package coherence

import (
	"fmt"

	"duet/internal/cache"
	"duet/internal/mem"
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
func CheckCoherence(d *Domain) error {
	if !d.Quiet() {
		return fmt.Errorf("coherence: checker invoked while transactions are in flight")
	}
	type copyInfo struct {
		owners  []int
		sharers []int
	}
	seen := make(map[uint64]*copyInfo)
	lineData := make(map[uint64]map[int]mem.Line)

	for _, c := range d.caches {
		c := c
		c.arr.ForEach(func(w *cache.Way) {
			ci := seen[w.Tag]
			if ci == nil {
				ci = &copyInfo{}
				seen[w.Tag] = ci
				lineData[w.Tag] = make(map[int]mem.Line)
			}
			switch w.State {
			case StateM, StateE:
				ci.owners = append(ci.owners, c.ID())
			case StateS:
				ci.sharers = append(ci.sharers, c.ID())
			default:
				// StateI lines are invalid and never stored valid.
			}
			lineData[w.Tag][c.ID()] = w.Data
		})
	}

	for line, ci := range seen {
		if len(ci.owners) > 1 {
			return fmt.Errorf("line %#x: multiple owners %v", line, ci.owners)
		}
		if len(ci.owners) == 1 && len(ci.sharers) > 0 {
			return fmt.Errorf("line %#x: owner %d coexists with sharers %v", line, ci.owners[0], ci.sharers)
		}
		h := d.HomeFor(line)
		_, owner, sharers := h.SnapshotLine(line)
		dirSharers := make(map[int]bool)
		for _, s := range sharers {
			dirSharers[s] = true
		}
		if len(ci.owners) == 1 {
			if owner != ci.owners[0] {
				return fmt.Errorf("line %#x: cache %d holds M/E but directory owner is %d", line, ci.owners[0], owner)
			}
		}
		for _, s := range ci.sharers {
			if !dirSharers[s] {
				return fmt.Errorf("line %#x: cache %d holds S but directory sharers are %v", line, s, sharers)
			}
		}
		// S copies must match the home's data.
		homeData, _, _ := h.SnapshotLine(line)
		for _, s := range ci.sharers {
			if lineData[line][s] != homeData {
				return fmt.Errorf("line %#x: sharer %d data diverges from home", line, s)
			}
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
