package sched

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"duet/internal/efpga"
	"duet/internal/sim"
)

// pickOracle is the reference placement: pick as it was before the
// scheduler tracked residency, queue counts, kinds and fits itself. It
// asks the backends for every (queued job × idle worker) pair — Resident
// names compared as strings, Kind and Capacity per test — so it is the
// ground truth pick's indexes must reproduce decision for decision.
func (s *Scheduler) pickOracle(now sim.Time) (*worker, int) {
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
		app := j.app
		for _, w := range idle {
			if !s.usable(w) {
				continue
			}
			if app.BS.Res.Fits(w.be.Capacity()) {
				return w
			}
		}
		return nil
	}
	preferResident := func(j *Job) *worker {
		app := j.app
		var first *worker
		for _, w := range idle {
			if !s.usable(w) || !app.BS.Res.Fits(w.be.Capacity()) {
				continue
			}
			if w.be.Resident() == app.BS.Name {
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
		for i, j := range s.queue {
			name := j.app.BS.Name
			for _, w := range idle {
				if s.usable(w) && w.be.Resident() == name {
					return w, i
				}
			}
		}
		for i, j := range s.queue {
			if w := firstFit(j); w != nil {
				return w, i
			}
		}
		return nil, -1
	case Hybrid:
		return s.pickHybridOracle(idle, now)
	default: // FIFO: strict arrival order — the head waits for a fitting
		// worker to free rather than being overtaken.
		w := firstFit(s.queue[0])
		if w == nil {
			return nil, -1
		}
		return w, 0
	}
}

// pickHybridOracle is pickHybrid's reference body (see pickOracle).
func (s *Scheduler) pickHybridOracle(idle []*worker, now sim.Time) (*worker, int) {
	// Pass 1: bitstream affinity over idle fabric-class workers.
	for i, j := range s.queue {
		name := j.app.BS.Name
		for _, w := range idle {
			if !w.quarantined && w.be.Kind() != BackendCPU && w.be.Resident() == name {
				return w, i
			}
		}
	}
	// Pass 2: FIFO order onto the lowest-numbered fitting idle fabric.
	for i, j := range s.queue {
		app := j.app
		for _, w := range idle {
			if !w.quarantined && w.be.Kind() != BackendCPU && app.BS.Res.Fits(w.be.Capacity()) {
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
		if !w.quarantined && w.be.Kind() == BackendCPU {
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
			if w.quarantined || w.be.Kind() == BackendCPU || !app.BS.Res.Fits(w.be.Capacity()) {
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

// oracleBackend is a scripted worker for the differential test: a fabric
// (BackendModel) or CPU soft path with a settable capacity and resident
// bitstream. Placement only reads it; nothing is ever dispatched.
type oracleBackend struct {
	kind     BackendKind
	cap      efpga.Resources
	resident string
}

func (b *oracleBackend) Kind() BackendKind               { return b.kind }
func (b *oracleBackend) Name() string                    { return b.kind.String() }
func (b *oracleBackend) Capacity() efpga.Resources       { return b.cap }
func (b *oracleBackend) Register(*efpga.Bitstream) error { return nil }
func (b *oracleBackend) Resident() string                { return b.resident }
func (b *oracleBackend) ReconfigCost(*App) sim.Time      { return 0 }
func (b *oracleBackend) Bind(func(*Job, error))          {}
func (b *oracleBackend) Dispatch(*Job, *App)             { panic("oracleBackend: dispatch") }
func (b *oracleBackend) ServiceTime(a *App, n int) sim.Time {
	// The soft path's calibrated-slowdown shape: a few times the
	// fabric occupancy, so Hybrid's spill decision goes both ways.
	return 3 * sim.Time(a.Cycles(n)) * a.Period()
}

// fixedTimeline pins the scheduler's clock; pick schedules nothing.
type fixedTimeline sim.Time

func (t fixedTimeline) Now() sim.Time                   { return sim.Time(t) }
func (fixedTimeline) AfterArg(sim.Time, func(any), any) {}

// oracleApps is the differential test's catalog: bitstreams of growing
// footprint, so the small fabric sizes below hold some apps but not all.
var oracleApps = []struct {
	name string
	luts int
	fmax float64
}{
	{"small", 100, 250},
	{"mid", 1000, 150},
	{"large", 5000, 100},
	{"xl", 20000, 0},
}

// oracleCaps are the fabric sizes a random worker draws from: one that
// holds nothing, ones that hold a prefix of oracleApps, and all of it.
var oracleCaps = []int{50, 500, 2000, 10000, 1 << 20}

// randomState builds a scheduler of policy p with nWorkers workers
// (nCPU of them CPU soft paths) and qlen queued jobs, every other field
// — capacities, residency, busy, quarantine and repair state, modeled
// free times, job shapes — drawn from seed. The scheduler's own indexes
// are derived the way the running scheduler keeps them: residency
// through syncResident, queue counts through enqueue, fits through
// buildFit.
func randomState(p Policy, nWorkers, nCPU, qlen int, seed uint64) (*Scheduler, sim.Time) {
	r := rand.New(rand.NewPCG(seed, uint64(p)<<16|uint64(nWorkers)<<8|uint64(qlen)))
	const now = 1000 * sim.NS
	bes := make([]Backend, nWorkers)
	raw := make([]*oracleBackend, nWorkers)
	for i := range bes {
		b := &oracleBackend{kind: BackendModel, cap: efpga.Resources{LUTs: oracleCaps[r.IntN(len(oracleCaps))]}}
		if i >= nWorkers-nCPU {
			b.kind, b.cap = BackendCPU, UnboundedResources
		}
		raw[i], bes[i] = b, b
	}
	s := New(fixedTimeline(now), bes, Config{Policy: p})
	nApps := 1 + r.IntN(len(oracleApps))
	for _, a := range oracleApps[:nApps] {
		bs := &efpga.Bitstream{Name: a.name, Res: efpga.Resources{LUTs: a.luts}, FmaxMHz: a.fmax}
		if err := s.RegisterApp(App{BS: bs, FixedCycles: int64(1 + r.IntN(4000)), CyclesPerItem: int64(r.IntN(8))}); err != nil {
			panic(err)
		}
	}
	for i, w := range s.workers {
		if raw[i].kind != BackendCPU {
			switch k := r.IntN(nApps + 2); {
			case k < nApps:
				raw[i].resident = oracleApps[k].name
			case k == nApps:
				raw[i].resident = "foreign" // installed outside the catalog
			}
		}
		s.syncResident(w, -1)
		w.busy = r.IntN(3) == 0
		w.quarantined = r.IntN(5) == 0
		w.repairPending = w.quarantined && r.IntN(2) == 0
		w.estFree = now + sim.Time(r.IntN(200))*sim.US - 50*sim.US
	}
	for range qlen {
		id := AppID(r.IntN(nApps))
		j := &Job{Request: Request{App: id, InputSize: r.IntN(64), Priority: r.IntN(3)}, app: s.apps[id]}
		s.enqueue(j)
	}
	s.buildFit()
	return s, now
}

// checkPickOracle reports where pick and pickOracle disagree on one state.
func checkPickOracle(s *Scheduler, now sim.Time) error {
	gw, gi := s.pick(now)
	ww, wi := s.pickOracle(now)
	id := func(w *worker) int {
		if w == nil {
			return -1
		}
		return w.id
	}
	if gw != ww || gi != wi {
		return fmt.Errorf("%v over %d workers, %d queued: pick = (worker %d, job %d), oracle = (worker %d, job %d)",
			s.cfg.Policy, len(s.workers), len(s.queue), id(gw), gi, id(ww), wi)
	}
	return nil
}

// FuzzPickOracle drives pick and the pre-index reference body over
// random scheduler states — every policy, 1–6 workers mixing model
// fabrics (some too small for any app) and CPU soft paths, random busy,
// quarantined and resident state, and a queue of 0–64 jobs — and
// requires the same (worker, job) decision on every one.
func FuzzPickOracle(f *testing.F) {
	// serve-cycle's saturated shape: 2 fabrics, the queue at its cap.
	for p := range NumPolicies {
		for seed := range uint64(8) {
			f.Add(uint8(p), uint8(2), uint8(0), uint8(DefaultQueueCap), seed)
		}
	}
	// Mixed pools, shallow and deep queues.
	for seed := range uint64(32) {
		f.Add(uint8(seed), uint8(1+seed%6), uint8(seed%3), uint8(seed*7%65), seed)
	}
	f.Fuzz(func(t *testing.T, policy, workers, cpus, qlen uint8, seed uint64) {
		n := 1 + int(workers)%6
		s, now := randomState(Policy(int(policy)%int(NumPolicies)), n, int(cpus)%(n+1), int(qlen)%65, seed)
		if err := checkPickOracle(s, now); err != nil {
			t.Fatal(err)
		}
	})
}
