// Package telemetry is the simulated-time-windowed flight recorder for
// the accelerator-as-a-service scheduler: the sensor layer that turns
// the serve/cluster studies' end-of-run aggregates into time-resolved
// series a production control loop (an SLO autoscaler, a capacity
// planner) can reason over.
//
// A Recorder implements sched.Observer's single Observe(sched.Event)
// hook, so it hangs off the shared sched.Scheduler code paths below the
// Backend seam — the cycle-level adapter path and the analytic model
// path feed it identically, which is what lets `duetsim xval`-style
// cross-validation extend to per-window quantiles. Every observation is bucketed by simulated
// time into fixed-width windows: window i covers
// [i*Width, (i+1)*Width). Per window the recorder keeps
//
//   - Counts: arrivals, completions, failures, queue rejects,
//     reprograms and soft-path spills (both counted at the dispatch
//     instant), the fault-path and recovery counters, and deadline
//     misses — one struct that the JSON rows, the CSV columns, Merge
//     and Summarize all read — plus the admission queue's depth
//     high-water mark;
//   - per-worker busy time, with occupancy intervals split exactly
//     across the window boundaries they span;
//   - a sched.Digest over the sojourns of jobs *finishing* in the
//     window, for per-window p50/p99 at the digest's documented
//     relative value error.
//
// Memory is O(windows): the window table grows with the simulated
// horizon, never with the job count (the digests are fixed-memory, the
// counters are scalars). Because windows are keyed by absolute
// simulated time and every cluster shard simulates the same global
// timeline, per-shard window series align index for index, and Merge
// combines them exactly — counters add, busy columns concatenate in
// shard order, digests merge elementwise — mirroring the end-of-run
// digest merge in cluster.Merge. The merged series is therefore as
// deterministic as the shards themselves: byte-identical per (seed,
// shards, front end, policy) at any study-pool width.
package telemetry

import (
	"fmt"
	"reflect"

	"duet/internal/sched"
	"duet/internal/sim"
)

// Recorder is the windowed flight recorder. Create one per scheduler
// with NewRecorder and attach it with sched.Scheduler.SetObserver
// before the first Submit. The zero Recorder is not usable: the window
// width must be fixed up front so shard series align.
type Recorder struct {
	width sim.Time
	kinds []sched.BackendKind
	wins  []window

	// hasFabric records whether any observed worker is fabric-class. A
	// BackendCPU dispatch is a soft-path *spill* only when there is a
	// fabric to spill from; on a pure-CPU pool every placement is just
	// normal service and must not be counted as a spill.
	hasFabric bool

	// horizon is the run's latest observed simulated instant (arrival,
	// dispatch, retire, or busy-interval end — whichever is latest), the
	// clamp for the final window's End and utilization denominator in
	// Series. Live feeders extend it explicitly through ExtendHorizon so
	// idle tail time is accounted too.
	horizon sim.Time
}

// Counts are a window's event counters. Each field is one series
// column: its json tag names it in the JSON rows and the CSV header, and
// Add sums it, so a new counter is one new field here (plus a WriteProm
// line to scrape it).
type Counts struct {
	Arrivals    int `json:"arrivals"`
	Completions int `json:"completions"`
	Failures    int `json:"failures"`
	Rejects     int `json:"rejects"`
	Reprograms  int `json:"reprograms"`
	Spills      int `json:"spills"`
	// Fault-path counters (see sched/faults.go) and deadline misses
	// (completions past their deadline; goodput is completions minus
	// misses). All omit when zero, so a fault-free run's series keeps
	// its pre-fault shape.
	Wedges      int `json:"wedges,omitempty"`
	Retries     int `json:"retries,omitempty"`
	Timeouts    int `json:"timeouts,omitempty"`
	Quarantines int `json:"quarantines,omitempty"`
	// Recovery counters: repairs landing in the window, probationary
	// re-reprograms that wedged again, and the quarantine time the
	// window's repairs repaid (booked at the repair instant).
	Repairs        int      `json:"repairs,omitempty"`
	ProbationFails int      `json:"probation_fails,omitempty"`
	QuarantineTime sim.Time `json:"quarantine_time,omitempty"`
	DeadlineMisses int      `json:"deadline_misses,omitempty"`
}

// Add sums o into c, field by field (every field is an integer count).
func (c *Counts) Add(o *Counts) {
	dst, src := reflect.ValueOf(c).Elem(), reflect.ValueOf(o).Elem()
	for i := range dst.NumField() {
		dst.Field(i).SetInt(dst.Field(i).Int() + src.Field(i).Int())
	}
}

// window is one simulated-time bucket of the recorder.
type window struct {
	Counts
	queueMax int
	busy     []sim.Time // per worker, indexed like kinds
	sojourns sched.Digest
}

// NewRecorder builds a recorder over windows of the given width (must
// be positive). kinds is the scheduler's worker-kind vector
// (sched.Scheduler.WorkerKinds), worker-index order: it sizes the
// per-window busy columns and tells fabric-class occupancy from
// soft-path occupancy in the emitted series.
func NewRecorder(width sim.Time, kinds []sched.BackendKind) *Recorder {
	if width <= 0 {
		panic("telemetry: window width must be positive")
	}
	r := &Recorder{width: width, kinds: append([]sched.BackendKind(nil), kinds...)}
	for _, k := range r.kinds {
		if k != sched.BackendCPU {
			r.hasFabric = true
		}
	}
	return r
}

// Width reports the window width.
func (r *Recorder) Width() sim.Time { return r.width }

// Horizon reports the run's latest observed simulated instant — the end
// of the recorded timeline, which clamps the final window in Series.
func (r *Recorder) Horizon() sim.Time { return r.horizon }

// ExtendHorizon advances the run horizon to at, materializing the
// window covering it, without recording any event. A live feeder (the
// daemon's clock bridge) calls it as wall time passes so windows with no
// activity still appear — with zero counters and zero utilization —
// instead of the series freezing at the last event. Instants at or
// before the current horizon are no-ops.
func (r *Recorder) ExtendHorizon(at sim.Time) {
	if at <= r.horizon {
		return
	}
	// at is an exclusive end: the last covered instant is at-1, so a
	// horizon landing exactly on a window boundary does not materialize
	// an empty window beyond it.
	r.win(at - 1)
	r.horizon = at
}

// note advances the horizon to an observed instant.
func (r *Recorder) note(at sim.Time) {
	if at > r.horizon {
		r.horizon = at
	}
}

// Workers reports the number of per-window busy columns (the observed
// scheduler's worker count; after Merge, the sum over shards).
func (r *Recorder) Workers() int { return len(r.kinds) }

// win returns the window covering instant at, growing the dense table
// as the simulated horizon extends.
func (r *Recorder) win(at sim.Time) *window {
	if at < 0 {
		at = 0
	}
	i := int(int64(at) / int64(r.width))
	if i >= len(r.wins) {
		r.wins = append(r.wins, make([]window, i+1-len(r.wins))...)
	}
	w := &r.wins[i]
	if w.busy == nil && len(r.kinds) > 0 {
		w.busy = make([]sim.Time, len(r.kinds))
	}
	return w
}

var _ sched.Observer = (*Recorder)(nil)

// Observe books one scheduler event in the window of its instant:
//
//   - an arrival counts in its submit window and advances the window's
//     queue-depth high-water mark;
//   - a dispatch counts a reprogram and/or a soft-path spill in the
//     dispatch window (the reprogram flow it schedules is attributed to
//     the window it started in). A BackendCPU placement is a spill only
//     when the recorder has fabric-class workers: on a pure soft-path
//     pool there is no fabric to spill from;
//   - a retire counts the job in its finish window and folds its
//     sojourn into that window's digest (failures contribute no sojourn,
//     matching sched.Stats); late completions also count as misses, so
//     the series carries per-window goodput;
//   - a busy interval is split exactly across the windows it spans, so
//     per-window utilization is an integral, not a sample;
//   - a repair books the whole quarantine stretch it ends in the repair
//     window (time-in-quarantine is booked at repayment, like a latency
//     sample);
//   - rejects, wedges, retries, timeouts, quarantines and probation
//     failures each count in their window.
func (r *Recorder) Observe(e sched.Event) {
	r.note(e.At)
	if e.Kind == sched.EventBusy {
		r.busy(e.Worker, e.At-e.Span, e.At)
		return
	}
	w := r.win(e.At)
	switch e.Kind {
	case sched.EventArrival:
		w.Arrivals++
		w.queueMax = max(w.queueMax, e.Depth)
	case sched.EventReject:
		w.Rejects++
	case sched.EventDispatch:
		if e.Job.Reprogrammed {
			w.Reprograms++
		}
		if r.hasFabric && r.kinds[e.Worker] == sched.BackendCPU {
			w.Spills++
		}
	case sched.EventRetire:
		j := e.Job
		if j.Err != nil {
			w.Failures++
			return
		}
		w.Completions++
		if j.MissedDeadline() {
			w.DeadlineMisses++
		}
		w.sojourns.Add(j.Sojourn())
	case sched.EventWedge:
		w.Wedges++
	case sched.EventRetry:
		w.Retries++
	case sched.EventTimeout:
		w.Timeouts++
	case sched.EventQuarantine:
		w.Quarantines++
	case sched.EventRepair:
		w.Repairs++
		w.QuarantineTime += e.Span
	case sched.EventProbationFail:
		w.ProbationFails++
	}
}

// busy splits the occupancy interval [from, to) of one worker across
// the windows it spans.
func (r *Recorder) busy(worker int, from, to sim.Time) {
	if from < 0 {
		from = 0
	}
	for from < to {
		w := r.win(from)
		end := (from/r.width + 1) * r.width
		if end > to {
			end = to
		}
		w.busy[worker] += end - from
		from = end
	}
}

// Merge combines per-shard recorders into one fresh cluster-wide
// recorder; nil inputs are skipped and a nil result means no input
// carried telemetry. Window i of the result is the exact combination of
// every input's window i: counters add, queue high-water marks take the
// maximum (per-shard queues are independent; the mark reports the worst
// single queue), busy columns concatenate in input order (shard 0's
// workers first), and sojourn digests merge elementwise — so the merged
// series equals what one recorder observing every shard would have
// recorded, up to the queue-mark convention. All inputs must share one
// window width; the inputs are not modified.
func Merge(rs ...*Recorder) (*Recorder, error) {
	var live []*Recorder
	for _, r := range rs {
		if r != nil {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil, nil
	}
	width := live[0].width
	var kinds []sched.BackendKind
	maxWins := 0
	for _, r := range live {
		if r.width != width {
			return nil, fmt.Errorf("telemetry: window width mismatch (%v vs %v)", r.width, width)
		}
		kinds = append(kinds, r.kinds...)
		if len(r.wins) > maxWins {
			maxWins = len(r.wins)
		}
	}
	m := NewRecorder(width, kinds)
	m.wins = make([]window, maxWins)
	off := 0
	for _, r := range live {
		// The merged horizon is the latest shard horizon — exactly what
		// one recorder observing every shard would have noted.
		if r.horizon > m.horizon {
			m.horizon = r.horizon
		}
		for i := range r.wins {
			src, dst := &r.wins[i], &m.wins[i]
			dst.Counts.Add(&src.Counts)
			dst.queueMax = max(dst.queueMax, src.queueMax)
			if src.busy != nil {
				if dst.busy == nil {
					dst.busy = make([]sim.Time, len(kinds))
				}
				copy(dst.busy[off:off+len(r.kinds)], src.busy)
			}
			dst.sojourns.Merge(&src.sojourns)
		}
		off += len(r.kinds)
	}
	return m, nil
}
