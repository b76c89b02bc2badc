package sched

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"duet/internal/sim"
)

// StatsMode selects how the scheduler aggregates per-job outcomes.
type StatsMode int

// Stats modes.
const (
	// StatsExact retains every completed/failed job in the Completed and
	// Failed ledgers and computes exact nearest-rank percentiles over the
	// full sojourn population — O(jobs) memory, the default.
	StatsExact StatsMode = iota
	// StatsStreaming folds each job into O(1) running aggregates at its
	// finish instant — counters, sums, makespan, and a fixed-memory
	// Digest for sojourn quantiles — and retains no per-job state. P50
	// and P99 then carry the digest's documented relative value error
	// (DigestRelError, <0.8%); every other Stats field stays exact.
	// The Completed and Failed ledgers remain empty; per-job harvesting
	// still works through OnResult.
	StatsStreaming
	NumStatsModes
)

func (m StatsMode) String() string {
	names := [...]string{"exact", "stream"}
	if m < 0 || int(m) >= len(names) {
		return "unknown"
	}
	return names[m]
}

// MarshalText encodes the mode as its String name.
func (m StatsMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText parses a stats mode as printed by String.
func (m *StatsMode) UnmarshalText(name []byte) error {
	for n := StatsMode(0); n < NumStatsModes; n++ {
		if n.String() == string(name) {
			*m = n
			return nil
		}
	}
	return fmt.Errorf("sched: unknown stats mode %q", name)
}

// aggregate is the streaming-mode replacement for the per-job ledgers:
// the sums and sojourn digest Stats needs, folded in at finish time in
// O(1) space (the counts live in the scheduler's Counters).
type aggregate struct {
	makespan   sim.Time
	waitSum    sim.Time
	serviceSum sim.Time
	sojourns   Digest
}

func (g *aggregate) finish(j *Job) {
	if j.Finish > g.makespan {
		g.makespan = j.Finish
	}
	if j.Err != nil {
		return
	}
	g.waitSum += j.Wait()
	g.serviceSum += j.Service()
	g.sojourns.Add(j.Sojourn())
}

// FabricStats summarizes one eFPGA's share of a scheduler run.
type FabricStats struct {
	Name        string
	Jobs        int
	Reconfigs   int
	Busy        sim.Time
	Utilization float64 // Busy / Makespan
}

// Counters are a run's event counts: the part of Stats that sums across
// shards and must match exactly between backends. The scheduler bumps
// one Counters value at each event site, in both stats modes. Add and
// == see every field, so a new counter is one new field here.
type Counters struct {
	Completed, Failed, Rejected int
	Reconfigs                   int
	DeadlineMisses              int

	// Fault outcomes (zero on fault-free runs; see faults.go). TimedOut
	// and Unavailable are sub-classes of Failed — queued jobs dropped
	// past their deadline, and jobs killed or refused by shard outages
	// or full quarantine. Wedges counts wedged reprogram attempts,
	// Retries the victim re-queues they triggered, and Quarantined the
	// workers currently lost to them. Repairs counts quarantined workers
	// returned to service, ProbationFails the probationary re-reprograms
	// that wedged again, and QuarantineTime the total simulated time
	// repaired workers spent out of service.
	TimedOut       int
	Unavailable    int
	Wedges         int
	Retries        int
	Quarantined    int
	Repairs        int
	ProbationFails int
	QuarantineTime sim.Time
}

// Add sums o into c, field by field (every field is an integer count).
func (c *Counters) Add(o *Counters) {
	dst, src := reflect.ValueOf(c).Elem(), reflect.ValueOf(o).Elem()
	for i := range dst.NumField() {
		dst.Field(i).SetInt(dst.Field(i).Int() + src.Field(i).Int())
	}
}

// Stats summarizes a scheduler run.
type Stats struct {
	Counters

	Makespan        sim.Time // latest completion instant
	ThroughputPerMS float64  // completed jobs per simulated millisecond

	P50, P99    sim.Time // sojourn (submit-to-finish) latency percentiles
	MeanWait    sim.Time // mean admission-queue wait
	MeanService sim.Time // mean fabric occupancy

	Fabrics []FabricStats
}

// Harvest returns the per-shard samples a front end (e.g.
// internal/cluster) merges: in exact mode the sojourns of the Completed
// ledger in completion order, in streaming mode the sojourn digest, and
// in both the exact wait/service sums over completed jobs. The digest is
// the scheduler's own: callers merge it or read quantiles, but must not
// Add to it.
func (s *Scheduler) Harvest() (sojourns []sim.Time, d *Digest, waitSum, serviceSum sim.Time) {
	if g := s.agg; g != nil {
		return nil, &g.sojourns, g.waitSum, g.serviceSum
	}
	if len(s.Completed) > 0 {
		sojourns = make([]sim.Time, len(s.Completed))
	}
	for i, j := range s.Completed {
		sojourns[i] = j.Sojourn()
		waitSum += j.Wait()
		serviceSum += j.Service()
	}
	return sojourns, nil, waitSum, serviceSum
}

// Stats computes the run summary at the current instant.
func (s *Scheduler) Stats() Stats {
	st := Stats{Counters: s.ctr}
	sojourns, d, waits, services := s.Harvest()
	if g := s.agg; g != nil {
		// Streaming mode: everything was folded in at finish time.
		st.Makespan = g.makespan
		st.P50, st.P99 = d.Quantile(50), d.Quantile(99)
	} else {
		// Failed jobs occupy their fabric too (quiesce + failed stream), so
		// the makespan — the utilization and throughput denominator — must
		// cover their finish instants as well.
		for _, j := range s.Completed {
			st.Makespan = max(st.Makespan, j.Finish)
		}
		for _, j := range s.Failed {
			st.Makespan = max(st.Makespan, j.Finish)
		}
		// Sort the population once and take both ranks from it, instead of
		// copying + sorting per Percentile call.
		slices.Sort(sojourns)
		st.P50 = PercentileSorted(sojourns, 50)
		st.P99 = PercentileSorted(sojourns, 99)
	}
	if n := st.Completed; n > 0 {
		st.MeanWait = waits / sim.Time(n)
		st.MeanService = services / sim.Time(n)
		if st.Makespan > 0 {
			st.ThroughputPerMS = float64(n) / (float64(st.Makespan) / float64(sim.MS))
		}
	}
	for _, w := range s.workers {
		fs := FabricStats{
			Name: w.be.Name(), Jobs: w.jobs, Reconfigs: w.reconfigs, Busy: w.busyTotal,
		}
		if st.Makespan > 0 {
			fs.Utilization = float64(w.busyTotal) / float64(st.Makespan)
		}
		st.Fabrics = append(st.Fabrics, fs)
	}
	return st
}

// Percentile returns the p-th percentile (nearest-rank) of durs; zero
// when durs is empty. durs is not modified. Callers taking several
// percentiles of one population should sort once with slices.Sort and
// use PercentileSorted instead.
func Percentile(durs []sim.Time, p float64) sim.Time {
	sorted := append([]sim.Time(nil), durs...)
	slices.Sort(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted returns the p-th percentile (nearest-rank) of an
// ascending-sorted population; zero when it is empty.
func PercentileSorted(sorted []sim.Time, p float64) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
