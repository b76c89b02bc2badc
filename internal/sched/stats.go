package sched

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"duet/internal/sim"
)

// StatsMode selects how the scheduler keeps completed jobs' sojourns.
// Every other Stats field is exact and the same in both modes, and
// neither mode keeps a reference to a retired job.
type StatsMode int

// Stats modes.
const (
	// StatsExact keeps every sojourn sample, in completion order, and
	// computes exact nearest-rank percentiles over the full population:
	// O(completed jobs) memory at 8 bytes a job. The default.
	StatsExact StatsMode = iota
	// StatsStreaming folds each sojourn into a fixed-memory Digest, so
	// memory stays O(1) in the job count. P50 and P99 then carry the
	// digest's documented relative value error (DigestRelError, <0.8%).
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

// aggregate is what the scheduler keeps of its retired jobs, folded in
// at each finish instant: the makespan over every retired job, the exact
// wait/service sums over completed ones, and their sojourns — every
// sample in completion order (exact mode) or a Digest (streaming mode).
// The counts live in the scheduler's Counters.
type aggregate struct {
	makespan   sim.Time
	waitSum    sim.Time
	serviceSum sim.Time
	samples    []sim.Time // exact mode
	digest     *Digest    // streaming mode; nil in exact mode
}

func (g *aggregate) finish(j *Job) {
	// Failed jobs occupy their fabric too (quiesce + failed stream), so
	// the makespan — the utilization and throughput denominator — covers
	// their finish instants as well.
	if j.Finish > g.makespan {
		g.makespan = j.Finish
	}
	if j.Err != nil {
		return
	}
	g.waitSum += j.Wait()
	g.serviceSum += j.Service()
	if g.digest != nil {
		g.digest.Add(j.Sojourn())
	} else {
		g.samples = append(g.samples, j.Sojourn())
	}
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
// internal/cluster) merges: the completed jobs' sojourns — in exact
// mode every sample in completion order, in streaming mode the digest —
// and the exact wait/service sums over them. Both the slice and the
// digest are the scheduler's own: callers merge or read them but must
// not modify them.
func (s *Scheduler) Harvest() (sojourns []sim.Time, d *Digest, waitSum, serviceSum sim.Time) {
	g := &s.agg
	return g.samples, g.digest, g.waitSum, g.serviceSum
}

// Stats computes the run summary at the current instant.
func (s *Scheduler) Stats() Stats {
	st := Stats{Counters: s.ctr, Makespan: s.agg.makespan}
	sojourns, d, waits, services := s.Harvest()
	// Summarize sorts its samples; Harvest's stay in completion order.
	st.Summarize(slices.Clone(sojourns), d, waits, services)
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

// MeanService is Stats().MeanService read from the running sums, without
// building the summary: zero before the first completion.
func (s *Scheduler) MeanService() sim.Time {
	if n := s.ctr.Completed; n > 0 {
		return s.agg.serviceSum / sim.Time(n)
	}
	return 0
}

// Summarize fills st's derived fields — MeanWait, MeanService,
// ThroughputPerMS, P50 and P99 — from st.Completed, st.Makespan, and the
// completed jobs' exact wait/service sums and sojourns. The sojourns
// are a digest when d is non-nil (samples is then ignored), and
// otherwise the raw samples, which Summarize sorts in place. A
// scheduler's Stats and a cluster's merged Stats both derive through it.
func (st *Stats) Summarize(samples []sim.Time, d *Digest, waitSum, serviceSum sim.Time) {
	if n := st.Completed; n > 0 {
		st.MeanWait = waitSum / sim.Time(n)
		st.MeanService = serviceSum / sim.Time(n)
		if st.Makespan > 0 {
			st.ThroughputPerMS = float64(n) / (float64(st.Makespan) / float64(sim.MS))
		}
	}
	if d != nil {
		st.P50, st.P99 = d.Quantile(50), d.Quantile(99)
		return
	}
	// Sort the population once and take both ranks from it.
	slices.Sort(samples)
	st.P50 = PercentileSorted(samples, 50)
	st.P99 = PercentileSorted(samples, 99)
}

// PercentileSorted returns the p-th percentile (nearest-rank) of an
// ascending-sorted population; zero when it is empty.
func PercentileSorted[T ~int64](sorted []T, p float64) T {
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
