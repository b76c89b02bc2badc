package cpu

import (
	"duet/internal/cache"
	"duet/internal/mem"
)

// l1d is the write-through L1 data cache woven into the core. It holds
// only clean copies (stores write through to the L2), so evictions and
// back-invalidations are silent. Inclusion in the L2 is maintained by the
// L2's OnLineLost hook.
type l1d struct {
	arr *cache.Array
}

func newL1D(sizeBytes, ways int) *l1d {
	return &l1d{arr: cache.NewArray(sizeBytes, ways)}
}

// load returns the value at addr if the line is present.
func (l *l1d) load(addr uint64, size int) (uint64, bool) {
	w := l.arr.Lookup(mem.LineAddr(addr))
	if w == nil {
		return 0, false
	}
	off := mem.Offset(addr)
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(w.Data[off+i]) << (8 * i)
	}
	return v, true
}

// fill installs a line fetched from the L2, silently dropping any victim
// (L1 lines are never dirty).
func (l *l1d) fill(lineAddr uint64, data mem.Line) {
	if w := l.arr.Peek(lineAddr); w != nil {
		w.Data = data
		return
	}
	w := l.arr.Victim(lineAddr)
	if w.Valid {
		l.arr.Invalidate(w)
	}
	l.arr.Install(w, lineAddr, data, 1)
}

// update refreshes the L1 copy on a store (write-through: no allocation on
// store miss).
func (l *l1d) update(addr uint64, data []byte) {
	w := l.arr.Peek(mem.LineAddr(addr))
	if w == nil {
		return
	}
	off := mem.Offset(addr)
	copy(w.Data[off:off+len(data)], data)
}

// invalidate drops the line if present (back-invalidation from the L2).
func (l *l1d) invalidate(lineAddr uint64) {
	if w := l.arr.Peek(lineAddr); w != nil {
		l.arr.Invalidate(w)
	}
}
