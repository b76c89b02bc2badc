package sim

// EdgeAt reports the time of rising edge number n.
func (c *Clock) EdgeAt(n int64) Time {
	return c.Phase + Time(n)*c.Period
}

// Unattributed reports latency not covered by any category (queueing and
// other waits the models did not classify).
func (tx *TX) Unattributed() Time {
	if tx == nil {
		return 0
	}
	s := tx.Total()
	for _, p := range tx.Parts {
		s -= p
	}
	return s
}
