package sim

// EdgeAt reports the time of rising edge number n.
func (c *Clock) EdgeAt(n int64) Time {
	return c.Phase + Time(n)*c.Period
}
