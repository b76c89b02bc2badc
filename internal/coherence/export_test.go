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
