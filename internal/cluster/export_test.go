package cluster

// SliceSource adapts a materialized stream to the Source interface, so
// tests can feed RunSource a stream they drew or wrote up front.
type SliceSource struct {
	stream []Arrival
	i      int
}

// NewSliceSource returns a Source yielding stream's entries in order.
func NewSliceSource(stream []Arrival) *SliceSource {
	return &SliceSource{stream: stream}
}

// Next yields the next entry by value.
func (s *SliceSource) Next(a *Arrival) bool {
	if s.i >= len(s.stream) {
		return false
	}
	*a = s.stream[s.i]
	s.i++
	return true
}

// Len reports the stream length.
func (s *SliceSource) Len() int { return len(s.stream) }

// Clone restarts the stream from the first entry.
func (s *SliceSource) Clone() Source { return &SliceSource{stream: s.stream} }
