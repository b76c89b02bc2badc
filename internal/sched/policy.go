package sched

import (
	"fmt"

	"duet/internal/sim"
)

// Policy selects how queued jobs are matched with idle workers.
type Policy int

// Scheduling policies.
const (
	// FIFO dispatches strictly in arrival order onto the lowest-numbered
	// idle worker that fits the job, ignoring residency; the head of the
	// line is never overtaken.
	FIFO Policy = iota
	// SJF dispatches the queued job with the smallest predicted service
	// time (ties broken by higher priority, then arrival order),
	// preferring a worker where its bitstream is already resident.
	SJF
	// Affinity is reuse-aware: it first dispatches jobs whose bitstream
	// is resident on an idle worker (avoiding reprogramming entirely),
	// falling back to FIFO order when no resident match exists.
	Affinity
	// Hybrid is the spill policy for mixed fabric/CPU pools: fabric
	// workers are placed reuse-aware (affinity first, then FIFO), and
	// when no fabric is free a job spills to an idle CPU soft-path
	// worker — but only if the modeled CPU completion beats waiting for
	// the earliest fabric (jobs whose bitstream fits no fabric at all
	// always take the soft path). Without CPU workers it degenerates to
	// a work-conserving affinity placement.
	Hybrid
	NumPolicies
)

func (p Policy) String() string {
	names := [...]string{"fifo", "sjf", "affinity", "hybrid"}
	if p < 0 || int(p) >= len(names) {
		return "unknown"
	}
	return names[p]
}

// MarshalText encodes the policy as its String name, so machine-readable
// study output stays self-describing and stable across enum reorderings.
func (p Policy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText parses a policy name as printed by String.
func (p *Policy) UnmarshalText(name []byte) error {
	for q := Policy(0); q < NumPolicies; q++ {
		if q.String() == string(name) {
			*p = q
			return nil
		}
	}
	return fmt.Errorf("sched: unknown policy %q", name)
}

// pick applies the configured policy: it returns the chosen idle worker
// and the queue index of the job to place, or (nil, -1) when nothing is
// placeable — the queue is empty, every worker is busy, or (with
// heterogeneous capacities) every worker the candidate fits is busy.
// Jobs are only ever paired with workers that can hold their bitstream,
// so an admitted job waits for a fitting worker instead of being killed
// on a too-small one.
//
// Every decision reads scheduler-owned state — the fit table, each
// worker's cached kind and tracked resident app, and the per-app queue
// counts — never the backends.
func (s *Scheduler) pick(now sim.Time) (*worker, int) {
	if len(s.queue) == 0 {
		return nil, -1
	}
	idle := s.idleScratch[:0]
	for _, w := range s.workers {
		if !w.busy {
			idle = append(idle, w)
		}
	}
	s.idleScratch = idle
	if len(idle) == 0 {
		return nil, -1
	}
	// firstFit returns the lowest-numbered idle policy-usable worker
	// that fits the job's bitstream; preferResident upgrades to a
	// resident match. Both skip CPU soft-path workers whenever fabric
	// workers exist — spill capacity belongs to the Hybrid policy alone.
	firstFit := func(j *Job) *worker {
		for _, w := range idle {
			if s.usable(w) && s.fits(j.App, w) {
				return w
			}
		}
		return nil
	}
	preferResident := func(j *Job) *worker {
		var first *worker
		for _, w := range idle {
			if !s.usable(w) || !s.fits(j.App, w) {
				continue
			}
			if w.resident == j.App {
				return w
			}
			if first == nil {
				first = w
			}
		}
		return first
	}
	switch s.cfg.Policy {
	case SJF:
		best := -1
		for i, j := range s.queue {
			if firstFit(j) == nil {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			di, db := s.predict(j), s.predict(s.queue[best])
			if di < db || (di == db && j.Priority > s.queue[best].Priority) {
				best = i
			}
		}
		if best == -1 {
			return nil, -1
		}
		return preferResident(s.queue[best]), best
	case Affinity:
		if w, i := s.pickResident(idle, false); w != nil {
			return w, i
		}
		for i, j := range s.queue {
			if w := firstFit(j); w != nil {
				return w, i
			}
		}
		return nil, -1
	case Hybrid:
		return s.pickHybrid(idle, now)
	default: // FIFO: strict arrival order — the head waits for a fitting
		// worker to free rather than being overtaken.
		w := firstFit(s.queue[0])
		if w == nil {
			return nil, -1
		}
		return w, 0
	}
}

// pickResident is the reuse-aware pass: the earliest queued job whose
// bitstream is resident on an idle usable worker (fabric-class only when
// fabricOnly is set), placed on the lowest-numbered such worker. Only
// workers whose resident app has queued jobs are candidates, so the scan
// skips the queue entirely when none are, and otherwise stops at the
// first job of a candidate's app. (nil, -1) when no job has a match.
func (s *Scheduler) pickResident(idle []*worker, fabricOnly bool) (*worker, int) {
	cand := s.residentScratch[:0]
	for _, w := range idle {
		if w.resident >= 0 && s.apps[w.resident].queued > 0 && s.usable(w) && (!fabricOnly || w.kind != BackendCPU) {
			cand = append(cand, w)
		}
	}
	s.residentScratch = cand
	if len(cand) == 0 {
		return nil, -1
	}
	for i, j := range s.queue {
		for _, w := range cand {
			if w.resident == j.App {
				return w, i
			}
		}
	}
	panic("sched: per-app queue counts out of step with the queue")
}

// pickHybrid is the Hybrid policy body: reuse-aware fabric placement
// first, then a modeled spill decision onto idle CPU soft-path workers.
// Under Hybrid every non-quarantined worker is usable.
func (s *Scheduler) pickHybrid(idle []*worker, now sim.Time) (*worker, int) {
	// Pass 1: bitstream affinity over idle fabric-class workers.
	if w, i := s.pickResident(idle, true); w != nil {
		return w, i
	}
	// Pass 2: FIFO order onto the lowest-numbered fitting idle fabric.
	for i, j := range s.queue {
		for _, w := range idle {
			if !w.quarantined && w.kind != BackendCPU && s.fits(j.App, w) {
				return w, i
			}
		}
	}
	// Pass 3: spill. Every fabric that could run a queued job is busy
	// (or too small), so walk the queue in order over a virtual copy of
	// the fabrics' modeled free times, charging each job ahead onto its
	// earliest fabric: a job spills to an idle CPU worker when the soft
	// path's completion beats its modeled fabric completion — including
	// the queue wait behind the jobs ahead of it — or when no fabric
	// fits its bitstream at all.
	var cpu *worker
	for _, w := range idle {
		if !w.quarantined && w.kind == BackendCPU {
			cpu = w
			break
		}
	}
	if cpu == nil {
		return nil, -1
	}
	free := s.estScratch[:0]
	for _, w := range s.workers {
		t := w.estFree
		if !w.busy || t < now {
			t = now
		}
		free = append(free, t)
	}
	s.estScratch = free
	for i, j := range s.queue {
		app := j.app
		best := -1
		for wi, w := range s.workers {
			// Quarantined fabrics never free up again: they are not a
			// wait-for option, so the spill decision ignores them.
			if w.quarantined || w.kind == BackendCPU || !s.fits(j.App, w) {
				continue
			}
			if best == -1 || free[wi] < free[best] {
				best = wi
			}
		}
		cpuFinish := now + cpu.be.ServiceTime(app, j.InputSize)
		if best == -1 || cpuFinish < free[best]+s.predict(j) {
			return cpu, i
		}
		// Job i is modeled to wait for that fabric: charge it there so
		// later queue entries see the contention ahead of them.
		free[best] += s.predict(j)
	}
	return nil, -1
}
