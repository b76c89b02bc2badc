package sim

import "fmt"

// Clock describes a periodic clock with rising edges at Phase + k*Period
// for k >= 0. Clocks are pure arithmetic: they do not schedule anything by
// themselves. Components align their activity to clock edges.
type Clock struct {
	Name   string
	Period Time // picoseconds per cycle; must be > 0
	Phase  Time // time of edge 0
}

// NewClock returns a clock with the given name and period and phase 0.
func NewClock(name string, period Time) *Clock {
	if period <= 0 {
		panic("sim: clock period must be positive")
	}
	return &Clock{Name: name, Period: period}
}

// ClockMHz returns a clock whose frequency is the given number of MHz.
// The period is rounded to the nearest picosecond.
func ClockMHz(name string, mhz float64) *Clock {
	if mhz <= 0 {
		panic("sim: clock frequency must be positive")
	}
	p := Time(1e6/mhz + 0.5)
	if p <= 0 {
		p = 1
	}
	return NewClock(name, p)
}

// FreqMHz reports the clock frequency in MHz.
func (c *Clock) FreqMHz() float64 { return 1e6 / float64(c.Period) }

func (c *Clock) String() string {
	return fmt.Sprintf("%s(%.1fMHz)", c.Name, c.FreqMHz())
}

// NextEdge reports the earliest rising edge at or after t.
func (c *Clock) NextEdge(t Time) Time {
	if t <= c.Phase {
		return c.Phase
	}
	d := t - c.Phase
	n := d / c.Period
	if d%c.Period != 0 {
		n++
	}
	return c.Phase + n*c.Period
}

// EdgeAfter reports the earliest rising edge strictly after t.
func (c *Clock) EdgeAfter(t Time) Time {
	e := c.NextEdge(t)
	if e == t {
		e += c.Period
	}
	return e
}

// EdgesAfter reports the time n rising edges strictly after t (n >= 1
// behaves like repeated EdgeAfter; n == 0 returns NextEdge(t)).
func (c *Clock) EdgesAfter(t Time, n int64) Time {
	if n <= 0 {
		return c.NextEdge(t)
	}
	return c.EdgeAfter(t) + Time(n-1)*c.Period
}

// Cycles reports the duration of n cycles.
func (c *Clock) Cycles(n int64) Time { return Time(n) * c.Period }
