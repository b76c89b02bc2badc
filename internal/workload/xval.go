package workload

import (
	"math"

	"duet/internal/sched"
	"duet/internal/sim"
)

// This file implements the backend cross-validation study behind
// `duetsim xval`: the golden serve configuration run on the cycle-level
// backend and on internal/model's analytic fast path, compared field by
// field. The model backend drives the same scheduler code over the same
// cost formulas, so the expectation is exact agreement; the documented
// tolerance below exists to absorb the one legitimate divergence class —
// same-instant event-ordering ties, which can reorder two completions
// that land on the same picosecond — and the streaming digest's
// quantile error when the comparison runs in streaming mode.

// XValTolerance is the documented bound on the model-vs-cycle relative
// error of the p50/p99 sojourn quantiles (also the CI gate): the
// streaming digest's <0.8% relative value error plus slack for
// same-instant ordering ties. Exact-mode runs are expected to agree to
// 0 error.
const XValTolerance = 0.01

// XValRow is one cross-validation point: a serve config run on both
// backends, with the relative quantile errors.
type XValRow struct {
	Policy sched.Policy
	Cycle  ServeResult
	Model  ServeResult

	// P50RelErr and P99RelErr are |model - cycle| / cycle (0 when the
	// cycle value is 0).
	P50RelErr float64
	P99RelErr float64
	// CountersMatch reports whether every sched.Counters field and the
	// makespan agree exactly.
	CountersMatch bool
}

// countersMatch is XValRow.CountersMatch for one cycle/model pair.
func countersMatch(cy, md sched.Stats) bool {
	return cy.Counters == md.Counters && cy.Makespan == md.Makespan
}

// relErr is |a-b| / |b|, 0 when b is 0.
func relErr(a, b sim.Time) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(float64(a-b)) / math.Abs(float64(b))
}

// CrossValidate runs each config on the cycle-level backend and on the
// model backend and reports the per-config comparison. The configs'
// Backend field is overridden per side; a config with SoftCPUs gets the
// same soft-path pool on both sides (hybrid Dolly vs analytic replica),
// so the CPU spill path is cross-validated too.
func CrossValidate(parallel int, cfgs []ServeConfig) []XValRow {
	both := make([]ServeConfig, 0, 2*len(cfgs))
	for _, cfg := range cfgs {
		cycle, mdl := cfg, cfg
		cycle.Backend = BackendCycle
		if cfg.SoftCPUs > 0 {
			cycle.Backend = BackendHybrid
		}
		mdl.Backend = BackendModel
		both = append(both, cycle, mdl)
	}
	results := ServeStudy(parallel, both)
	rows := make([]XValRow, len(cfgs))
	for i := range cfgs {
		cy, md := results[2*i], results[2*i+1]
		rows[i] = XValRow{
			Policy:        cfgs[i].Policy,
			Cycle:         cy,
			Model:         md,
			P50RelErr:     relErr(md.P50, cy.P50),
			P99RelErr:     relErr(md.P99, cy.P99),
			CountersMatch: countersMatch(cy.Stats, md.Stats),
		}
	}
	return rows
}
