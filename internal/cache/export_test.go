package cache

// Sets reports the number of sets.
func (a *Array) Sets() int { return a.sets }

// CountValid reports the number of valid lines.
func (a *Array) CountValid() int {
	n := 0
	a.ForEach(func(*Way) { n++ })
	return n
}

// SetStamp sets the last LRU stamp handed out, so a test can reach the
// counter's wrap.
func (a *Array) SetStamp(s uint32) { a.stamp = s }
