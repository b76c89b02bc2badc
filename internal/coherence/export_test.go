package coherence

import "duet/internal/cache"

// FlushAll evicts every valid line, forcing final state back to the
// homes. Completion is signalled by Quiet turning true once outstanding
// WBs drain.
func (c *PCache) FlushAll() {
	c.arr.ForEach(func(w *cache.Way) {
		if c.mshrs[w.Tag] == nil && c.wb[w.Tag] == nil {
			c.evict(w)
		}
	})
}

// shrinkL3 replaces every home's L3 array with an empty one of the given
// geometry, so a few lines overflow a set. Call it before any traffic.
func (d *Domain) shrinkL3(bytes, ways int) {
	for _, h := range d.Homes {
		h.arr = cache.NewArray(bytes, ways)
	}
}

// way returns c's valid way for line, or nil: a handle for tests that
// corrupt a cache's copy on purpose.
func (c *PCache) way(line uint64) *cache.Way { return c.arr.Peek(line) }

// dirEntry returns line's directory entry at its home, or nil.
func (d *Domain) dirEntry(line uint64) *dirEntry { return d.HomeFor(line).dir[line] }
