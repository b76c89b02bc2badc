// Package cache provides the set-associative tag/data array shared by
// every cache model in the repository (private L2, L3 shards, Proxy Cache,
// soft caches). It is purely structural: replacement, lookup and victim
// selection, with no timing and no protocol.
package cache

import (
	"fmt"

	"duet/internal/mem"
)

// Way holds one cache line and its metadata. The State field is owned by
// the protocol layer (coherence package); the array only distinguishes
// valid from invalid. The state byte and the flags share the last word,
// so a way packs into 48 bytes.
type Way struct {
	Tag   uint64 // full line address (tag+index combined, for simplicity)
	Data  mem.Line
	VPN   uint64 // virtual page number (Proxy Cache reverse mapping); 0 if unused
	lru   uint64 // last-touch stamp
	State uint8  // protocol-defined
	Valid bool
	Dirty bool
}

// chunkSets is how many sets one storage chunk holds.
const chunkSets = 8

// Array is a set-associative array of cache lines indexed by physical line
// address. Storage is allocated per set, when Victim or Set first reaches
// it: a constructed-but-untouched array (the common case for the
// serve/cluster studies, which build full Dolly systems whose caches carry
// no traffic) costs nothing, and a live one costs the sets its traffic
// reaches, not its full capacity. Lookup and Peek never allocate; on an
// untouched set they miss. A set's ways are carved, in first-touch order,
// from fixed-size chunks that are never moved or freed, so a *Way stays
// valid for the array's lifetime.
type Array struct {
	sets      int
	ways      int
	chunkSets int     // sets per chunk: min(chunkSets, sets)
	slot      []int32 // per set: 1 + its position in chunk storage, 0 if untouched (nil until a set is)
	chunks    [][]Way // each chunkSets*ways long
	used      int32   // sets materialized so far
	stamp     uint64
}

// NewArray builds an array with the given total capacity in bytes and
// associativity. Capacity must be a multiple of ways*LineBytes and the set
// count must be a power of two.
func NewArray(capacityBytes, ways int) *Array {
	if capacityBytes <= 0 || ways <= 0 {
		panic("cache: bad geometry")
	}
	linesTotal := capacityBytes / mem.LineBytes
	sets := linesTotal / ways
	if sets == 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a power of two", sets))
	}
	return &Array{sets: sets, ways: ways, chunkSets: min(chunkSets, sets)}
}

func (a *Array) setIndex(lineAddr uint64) int {
	return int((lineAddr / mem.LineBytes) % uint64(a.sets))
}

// waysAt returns the ways stored at chunk-storage position p.
func (a *Array) waysAt(p int32) []Way {
	c := a.chunks[int(p)/a.chunkSets]
	o := int(p) % a.chunkSets * a.ways
	return c[o : o+a.ways : o+a.ways]
}

// peekSet returns the ways of lineAddr's set, or nil if the set was never
// touched.
func (a *Array) peekSet(lineAddr uint64) []Way {
	if a.slot == nil {
		return nil
	}
	if p := a.slot[a.setIndex(lineAddr)]; p != 0 {
		return a.waysAt(p - 1)
	}
	return nil
}

// setOf returns the ways of lineAddr's set, allocating its storage on
// first touch.
func (a *Array) setOf(lineAddr uint64) []Way {
	if a.slot == nil {
		a.slot = make([]int32, a.sets)
	}
	s := a.setIndex(lineAddr)
	if p := a.slot[s]; p != 0 {
		return a.waysAt(p - 1)
	}
	p := a.used
	if int(p)%a.chunkSets == 0 {
		a.chunks = append(a.chunks, make([]Way, a.chunkSets*a.ways))
	}
	a.used++
	a.slot[s] = p + 1
	return a.waysAt(p)
}

// Lookup finds the way holding lineAddr, touching LRU state on hit. It
// returns nil on miss.
func (a *Array) Lookup(lineAddr uint64) *Way {
	set := a.peekSet(lineAddr)
	for i := range set {
		if set[i].Valid && set[i].Tag == lineAddr {
			a.stamp++
			set[i].lru = a.stamp
			return &set[i]
		}
	}
	return nil
}

// Peek finds the way holding lineAddr without touching LRU state.
func (a *Array) Peek(lineAddr uint64) *Way {
	set := a.peekSet(lineAddr)
	for i := range set {
		if set[i].Valid && set[i].Tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// Set returns the ways of the set lineAddr maps to. Protocol layers use it
// to pick victims subject to their own constraints (e.g. skipping lines
// with in-flight transactions).
func (a *Array) Set(lineAddr uint64) []Way {
	return a.setOf(lineAddr)
}

// Victim returns the way to fill for lineAddr: an invalid way if one
// exists, otherwise the least-recently-used way (which the caller must
// evict first). The returned way is not modified.
func (a *Array) Victim(lineAddr uint64) *Way {
	set := a.setOf(lineAddr)
	var lru *Way
	for i := range set {
		if !set[i].Valid {
			return &set[i]
		}
		if lru == nil || set[i].lru < lru.lru {
			lru = &set[i]
		}
	}
	return lru
}

// Less reports whether w was touched less recently than o (i.e. is the
// better LRU victim).
func (w *Way) Less(o *Way) bool { return w.lru < o.lru }

// Install fills a way with the given line, marking it valid and most
// recently used, and returns it. The caller must have evicted any valid
// victim beforehand (Install panics on a valid way with a different tag).
func (a *Array) Install(w *Way, lineAddr uint64, data mem.Line, state int) *Way {
	if w.Valid && w.Tag != lineAddr {
		panic("cache: installing over a live line; evict first")
	}
	a.stamp++
	*w = Way{Valid: true, Tag: lineAddr, Data: data, State: uint8(state), lru: a.stamp}
	return w
}

// Invalidate clears the way.
func (a *Array) Invalidate(w *Way) { *w = Way{} }

// ForEach calls fn for every valid line, in set order and, within a set,
// in way order.
func (a *Array) ForEach(fn func(*Way)) {
	for _, p := range a.slot {
		if p == 0 {
			continue
		}
		set := a.waysAt(p - 1)
		for i := range set {
			if set[i].Valid {
				fn(&set[i])
			}
		}
	}
}
