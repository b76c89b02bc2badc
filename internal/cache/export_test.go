package cache

// Sets reports the number of sets.
func (a *Array) Sets() int { return a.sets }

// CountValid reports the number of valid lines.
func (a *Array) CountValid() int {
	n := 0
	a.ForEach(func(*Way) { n++ })
	return n
}
