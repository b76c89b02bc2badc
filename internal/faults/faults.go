// Package faults is the deterministic fault-injection layer of the
// serving stack: a seeded, fully reproducible Plan of modeled failures,
// injected below the sched.Backend seam so the cycle-level and analytic
// model backends fail identically — the same faults at the same
// simulated instants, whatever executes the job.
//
// Two fault classes are modeled:
//
//   - Wedge-on-reprogram: with a per-fabric probability, a placement
//     that triggers reconfiguration never completes it — the modeled
//     ProgWedged outcome (see core.Adapter's bounded programming poll).
//     The injector charges a detection occupancy, then fails the job
//     with an error wrapping sched.ErrWedged; the scheduler quarantines
//     the fabric and retries the victim (sched/faults.go).
//   - Shard crash/rejoin schedules: simulated-time outage windows per
//     cluster shard, enforced by the scheduler's downtime state machine
//     and visible to cluster front ends for reroute and hedging.
//
// Determinism: every draw is a pure counted hash of (seed, fault class,
// shard, site, sequence) — no RNG stream that scheduling order could
// perturb. The nth reprogram attempt on worker w of shard s wedges, or
// not, identically on every backend and at every study-pool width,
// because the scheduler's dispatch sequence is itself deterministic.
package faults

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"duet/internal/efpga"
	"duet/internal/sched"
	"duet/internal/sim"
)

// WedgeDetect is the occupancy charged before a wedged reprogram
// is detected: the modeled driver's bounded programming-status poll
// giving up.
const WedgeDetect = 50 * sim.US

// Plan is one seeded, fully reproducible fault scenario. The zero Plan
// (and a nil *Plan) injects nothing; an empty plan wired into a stack
// still installs the injection seam, which is what the fault-free
// overhead benchmark measures.
type Plan struct {
	// Seed keys every draw; two runs of one plan make identical draws.
	Seed int64

	// WedgeProb is the probability that a reprogram attempt wedges its
	// fabric; WedgeProbs, when non-empty, overrides it per worker index
	// (entries beyond its length fall back to WedgeProb). CPU soft-path
	// workers never reprogram and so never wedge.
	WedgeProb  float64
	WedgeProbs []float64
	// MaxRetries is the per-job re-queue budget after wedges, applied
	// through sched.FaultConfig.
	MaxRetries int

	// EnforceDeadlines drops queued jobs past their absolute deadline
	// with a distinct timed-out outcome (sched.ErrTimedOut).
	EnforceDeadlines bool

	// ShardDown lists outage windows per cluster shard (index = shard;
	// shards past its length never crash). Windows must be ascending and
	// non-overlapping per shard.
	ShardDown [][]sched.Downtime

	// Hedge, when positive, makes cluster front ends duplicate arrivals
	// routed to a shard that will crash within Hedge of the arrival
	// instant onto a healthy backup shard — hedged re-dispatch ahead of
	// the crash the victim arrival would be killed by.
	Hedge sim.Time

	// RepairDelay, when positive, turns quarantine into a transient
	// state: a wedged fabric is scheduled for repair after a seeded delay
	// derived from RepairDelay — exponential backoff over the worker's
	// lifetime wedge count, with a deterministic ±50% jitter drawn like
	// every other fault (see RepairDelayFor). Zero keeps quarantine
	// permanent, the pre-repair behavior.
	RepairDelay sim.Time
	// RecoverHold is the cluster front ends' recovery hysteresis: the
	// health-weighted front end keeps deprioritizing a shard whose
	// outage window closed less than RecoverHold ago.
	RecoverHold sim.Time

	// Domains groups shards into named correlated-failure domains (racks,
	// power feeds): a domain's outage windows down every member shard at
	// once, and its wedge probability raises every member worker's.
	Domains []Domain
}

// Domain is one named correlated-failure domain — a rack or power group
// of cluster shards that fails together instead of independently.
type Domain struct {
	// Name labels the domain in flag specs and reports.
	Name string
	// Shards lists the member shard indices.
	Shards []int
	// Down lists the domain's outage windows: every member shard is down
	// for each window, merged into the shard's own ShardDown schedule
	// (see DownFor).
	Down []sched.Downtime
	// WedgeProb, when higher than a member worker's own probability,
	// raises it — a domain-wide event (power sag, cooling failure) that
	// makes every member fabric wedge-prone at once.
	WedgeProb float64
}

// member reports whether shard belongs to the domain.
func (d *Domain) member(shard int) bool {
	for _, s := range d.Shards {
		if s == shard {
			return true
		}
	}
	return false
}

// ParseDomains parses a -domains flag spec: ';'-separated domains, each
//
//	name=SHARD[+SHARD...][@FROM-TO[,FROM-TO...]][~WEDGEPROB]
//
// with FROM/TO in microseconds of simulated time. For example
//
//	rack0=0+1@4000-9000;feedA=2@1000-2000,5000-6000~0.8
//
// declares rack0 downing shards 0 and 1 for [4ms, 9ms) and feedA
// downing shard 2 for two windows while raising its wedge probability
// to 0.8. An empty spec returns no domains.
func ParseDomains(spec string) ([]Domain, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []Domain
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("faults: domain %q: want name=shards[@windows][~prob]", part)
		}
		d := Domain{Name: name}
		if body, prob, ok := strings.Cut(rest, "~"); ok {
			p, err := strconv.ParseFloat(strings.TrimSpace(prob), 64)
			if err != nil || p < 0 || p > 1 {
				return nil, fmt.Errorf("faults: domain %q: bad wedge probability %q", name, prob)
			}
			d.WedgeProb = p
			rest = body
		}
		shardsSpec, winSpec, _ := strings.Cut(rest, "@")
		for _, s := range strings.Split(shardsSpec, "+") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faults: domain %q: bad shard %q", name, s)
			}
			d.Shards = append(d.Shards, n)
		}
		if len(d.Shards) == 0 {
			return nil, fmt.Errorf("faults: domain %q: no member shards", name)
		}
		for _, w := range strings.Split(winSpec, ",") {
			w = strings.TrimSpace(w)
			if w == "" {
				continue
			}
			fromS, toS, ok := strings.Cut(w, "-")
			if !ok {
				return nil, fmt.Errorf("faults: domain %q: window %q: want FROM-TO in microseconds", name, w)
			}
			from, err1 := strconv.ParseInt(strings.TrimSpace(fromS), 10, 64)
			to, err2 := strconv.ParseInt(strings.TrimSpace(toS), 10, 64)
			if err1 != nil || err2 != nil || from < 0 || to <= from {
				return nil, fmt.Errorf("faults: domain %q: bad window %q", name, w)
			}
			// A bound past sim.Forever would overflow sim.Time when
			// scaled from microseconds.
			if maxUS := int64(sim.Forever / sim.US); to > maxUS {
				return nil, fmt.Errorf("faults: domain %q: window %q ends past %dus", name, w, maxUS)
			}
			d.Down = append(d.Down, sched.Downtime{From: sim.Time(from) * sim.US, To: sim.Time(to) * sim.US})
		}
		out = append(out, d)
	}
	return out, nil
}

// DownFor reports shard's effective outage schedule: its own ShardDown
// windows merged with every member domain's windows — ascending and
// non-overlapping, the form sched.FaultConfig.Down requires. Nil for
// shards with no windows anywhere.
func (p *Plan) DownFor(shard int) []sched.Downtime {
	if p == nil || shard < 0 {
		return nil
	}
	var base []sched.Downtime
	if shard < len(p.ShardDown) {
		base = p.ShardDown[shard]
	}
	extra := false
	for i := range p.Domains {
		if len(p.Domains[i].Down) > 0 && p.Domains[i].member(shard) {
			extra = true
			break
		}
	}
	if !extra {
		return base
	}
	all := append([]sched.Downtime(nil), base...)
	for i := range p.Domains {
		if p.Domains[i].member(shard) {
			all = append(all, p.Domains[i].Down...)
		}
	}
	return mergeDowntimes(all)
}

// mergeDowntimes sorts windows by opening instant and coalesces
// overlapping or touching ones into the ascending non-overlapping form
// the scheduler's downtime state machine walks.
func mergeDowntimes(ws []sched.Downtime) []sched.Downtime {
	slices.SortFunc(ws, func(a, b sched.Downtime) int {
		switch {
		case a.From != b.From:
			if a.From < b.From {
				return -1
			}
			return 1
		case a.To != b.To:
			if a.To < b.To {
				return -1
			}
			return 1
		}
		return 0
	})
	var out []sched.Downtime
	for _, w := range ws {
		if w.To <= w.From {
			continue
		}
		if n := len(out); n > 0 && w.From <= out[n-1].To {
			if w.To > out[n-1].To {
				out[n-1].To = w.To
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// EffectiveShardDown renders every shard's effective outage schedule
// (own windows plus member-domain windows) for a cluster of the given
// shard count — what cluster front ends route and hedge against. The
// result covers max(shards, the widest schedule the plan names).
func (p *Plan) EffectiveShardDown(shards int) [][]sched.Downtime {
	if p == nil {
		return nil
	}
	n := shards
	if len(p.ShardDown) > n {
		n = len(p.ShardDown)
	}
	for i := range p.Domains {
		for _, s := range p.Domains[i].Shards {
			if s+1 > n {
				n = s + 1
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([][]sched.Downtime, n)
	any := false
	for s := 0; s < n; s++ {
		out[s] = p.DownFor(s)
		if len(out[s]) > 0 {
			any = true
		}
	}
	if !any {
		return nil
	}
	return out
}

// FaultConfig renders the plan's scheduler-side knobs for one shard.
func (p *Plan) FaultConfig(shard int) sched.FaultConfig {
	if p == nil {
		return sched.FaultConfig{}
	}
	fc := sched.FaultConfig{
		MaxRetries:       p.MaxRetries,
		EnforceDeadlines: p.EnforceDeadlines,
		Down:             p.DownFor(shard),
	}
	if p.RepairDelay > 0 {
		fc.Repair = func(worker, nth int) sim.Time {
			return p.RepairDelayFor(shard, worker, nth)
		}
	}
	return fc
}

// maxBackoffShift caps the repair backoff at 64x the base delay.
const maxBackoffShift = 6

// RepairDelayFor is the seeded repair delay for the nth lifetime wedge
// of (shard, worker), counting from 1: RepairDelay doubled per prior
// wedge (capped at 64x) with a deterministic ±50% jitter — a pure
// counted draw keyed like every other fault, so the cycle and model
// backends schedule identical repair instants. Zero (permanent
// quarantine) when the plan has no repair process.
func (p *Plan) RepairDelayFor(shard, worker, nth int) sim.Time {
	if p == nil || p.RepairDelay <= 0 || nth <= 0 {
		return 0
	}
	shift := nth - 1
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	base := p.RepairDelay << shift
	jitter := 0.5 + draw(uint64(p.Seed), classRepair, uint64(shard), uint64(worker), uint64(nth))
	return sim.Time(float64(base) * jitter)
}

// wedgeProbFor resolves the effective wedge probability of one worker on
// one shard: the per-worker override (falling back to the shared
// probability), raised to any member domain's higher probability.
func (p *Plan) wedgeProbFor(shard, worker int) float64 {
	prob := p.WedgeProb
	if worker >= 0 && worker < len(p.WedgeProbs) {
		prob = p.WedgeProbs[worker]
	}
	for i := range p.Domains {
		if p.Domains[i].WedgeProb > prob && p.Domains[i].member(shard) {
			prob = p.Domains[i].WedgeProb
		}
	}
	return prob
}

// Fault-class discriminators mixed into every draw, so the wedge and
// repair streams are independent even at equal sites. The values are
// part of every draw's key: renumbering one moves every seeded fault of
// its class.
const (
	classWedge  uint64 = 1
	classRepair uint64 = 3
)

// mix is a splitmix64-style finalizer over the draw's key material.
func mix(vals ...uint64) uint64 {
	z := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		z += v
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	return z
}

// draw maps key material to a uniform in [0, 1).
func draw(vals ...uint64) float64 {
	return float64(mix(vals...)>>11) / (1 << 53)
}

// Injector makes one shard's fault draws. It is shared by the shard's
// backend wrappers and is not safe for concurrent use (a shard runs on
// one timeline).
type Injector struct {
	plan  *Plan
	shard int
}

// NewInjector builds shard's injector over plan (nil plan injects
// nothing).
func NewInjector(plan *Plan, shard int) *Injector {
	return &Injector{plan: plan, shard: shard}
}

// wedge decides whether worker's nth reprogram attempt wedges.
func (in *Injector) wedge(worker, attempt int) bool {
	if in.plan == nil {
		return false
	}
	prob := in.plan.wedgeProbFor(in.shard, worker)
	if prob <= 0 {
		return false
	}
	return draw(uint64(in.plan.Seed), classWedge, uint64(in.shard), uint64(worker), uint64(attempt)) < prob
}

// Timeline is the scheduler's timeline, which the wrapper charges fault
// occupancies on. Both *model.Events and *sim.Engine satisfy it — the
// same seam the model backends schedule through.
type Timeline = sched.Timeline

// Wrap decorates one execution backend with the injector's fault model;
// worker is its scheduler index (the wedge-probability and draw site).
// The wrapper is transparent under an empty plan: every dispatch goes
// straight to the inner backend after one cheap probability check, and
// completions reach the scheduler without passing through it.
func (in *Injector) Wrap(tl Timeline, worker int, be sched.Backend) sched.Backend {
	b := &backend{inner: be, tl: tl, in: in, worker: worker}
	b.wedgeFn = func(a any) {
		j := a.(*sched.Job)
		b.done(j, fmt.Errorf("faults: reprogram of %q on worker %d: %w", b.wedged, b.worker, sched.ErrWedged))
	}
	return b
}

// backend is the fault-injecting sched.Backend decorator. One job is in
// flight per worker, so the wedged bitstream rides in a field and the
// detection callback stays closure-free.
type backend struct {
	inner  sched.Backend
	tl     Timeline
	in     *Injector
	worker int

	// attempts counts reprogram attempts on this worker — the wedge
	// draw's deterministic sequence number.
	attempts int

	done    func(*sched.Job, error)
	wedged  string // bitstream of the in-flight wedged reprogram
	wedgeFn func(any)
}

func (b *backend) Kind() sched.BackendKind { return b.inner.Kind() }
func (b *backend) Name() string            { return b.inner.Name() }

func (b *backend) Capacity() efpga.Resources            { return b.inner.Capacity() }
func (b *backend) Register(bs *efpga.Bitstream) error   { return b.inner.Register(bs) }
func (b *backend) Resident() string                     { return b.inner.Resident() }
func (b *backend) ReconfigCost(app *sched.App) sim.Time { return b.inner.ReconfigCost(app) }
func (b *backend) ServiceTime(app *sched.App, n int) sim.Time {
	return b.inner.ServiceTime(app, n)
}

// Scrub forwards the repair process's probationary configuration-state
// discard to scrub-capable inner backends (see sched.Scrubber).
func (b *backend) Scrub() {
	if sc, ok := b.inner.(sched.Scrubber); ok {
		sc.Scrub()
	}
}

// Bind keeps the scheduler's callback for wedged attempts and hands it
// straight to the inner backend, which completes every other job.
func (b *backend) Bind(done func(*sched.Job, error)) {
	b.done = done
	b.inner.Bind(done)
}

// Dispatch draws the job's faults, then delegates. A placement that
// would reprogram (nonzero modeled reconfig cost) counts as an attempt;
// a wedged attempt never reaches the inner backend — the job occupies
// the worker for the detection time and fails with sched.ErrWedged,
// leaving the inner backend's residency untouched (the fabric is
// quarantined anyway).
func (b *backend) Dispatch(j *sched.Job, app *sched.App) {
	if b.inner.ReconfigCost(app) > 0 {
		b.attempts++
		if b.in.wedge(b.worker, b.attempts) {
			// The attempt started a reconfiguration; the observer
			// contract (Reprogrammed settled synchronously at dispatch)
			// holds for wedged attempts too.
			j.Reprogrammed = true
			b.wedged = app.BS.Name
			b.tl.AfterArg(WedgeDetect, b.wedgeFn, j)
			return
		}
	}
	b.inner.Dispatch(j, app)
}
