package sim

// Category labels a slice of a transaction's lifetime for the latency
// breakdowns reported in the paper's Fig. 9.
type Category int

// Latency categories, matching the paper's breakdown.
const (
	CatNoC  Category = iota // network-on-chip transit
	CatFast                 // cache/hub logic in the fast (processor) clock domain
	CatSlow                 // cache/register logic in the slow (eFPGA) clock domain
	CatCDC                  // clock-domain-crossing overhead (synchronizers + edge alignment)
	NumCategories
)

func (c Category) String() string {
	switch c {
	case CatNoC:
		return "NoC"
	case CatFast:
		return "FastLogic"
	case CatSlow:
		return "SlowLogic"
	case CatCDC:
		return "CDC"
	}
	return "?"
}

// TX accumulates a per-category latency breakdown for one tagged
// transaction. Components that process a tagged message attribute the time
// they consume with Add. A nil *TX is valid and ignores all calls, so
// models can attribute unconditionally.
type TX struct {
	Parts [NumCategories]Time
}

// Add attributes duration d to category cat. Safe on nil receivers.
func (tx *TX) Add(cat Category, d Time) {
	if tx == nil || d <= 0 {
		return
	}
	tx.Parts[cat] += d
}
