package sched

import "duet/internal/sim"

// Observer receives the scheduler's lifecycle events — the seam the
// windowed flight recorder (internal/telemetry) hangs off. Events fire
// from the shared Scheduler code paths, below the Backend seam, so
// every execution backend (cycle-level adapter, analytic model, CPU soft
// path) is instrumented identically: a cycle-backed and a model-backed
// run of the same stream produce the same event sequence.
//
// Observe fires synchronously at the scheduler's current simulated
// instant; an unset observer costs one nil check per event. Observers
// are scoped to one scheduler and are never called concurrently (a
// scheduler runs on one timeline). An observer reads Event.Job during
// the call and keeps no reference to it: front ends recycle a retired
// job once OnResult returns (see Scheduler.OnResult).
type Observer interface {
	Observe(Event)
}

// EventKind names one scheduler lifecycle transition.
type EventKind uint8

// Event kinds, with the Event fields each one sets beyond Kind and At.
const (
	// EventArrival fires once per Submit offer — admitted, rejected, or
	// failed at submit — before any dispatch the offer triggers. Depth
	// is the admission-queue depth including the offered job when it was
	// admitted: the queue's high-water point.
	EventArrival EventKind = iota
	// EventReject fires when an offer bounced off the full admission
	// queue (after its EventArrival).
	EventReject
	// EventDispatch fires at each job's dispatch instant with Worker and
	// Job. Job.Reprogrammed reports whether the placement triggered a
	// reconfiguration, which backends flag synchronously during Dispatch
	// (see CycleBackend.Dispatch).
	EventDispatch
	// EventRetire fires at each job's finish instant with Job, once per
	// completed or failed job (Job.Err distinguishes; jobs bounced by the
	// admission queue never started and are not retired).
	EventRetire
	// EventBusy reports one occupancy interval of Worker: Span long,
	// ending at the release instant At. Zero-length intervals (a job
	// failing at its dispatch instant) are not reported.
	EventBusy
	// EventWedge fires when a reprogram on Worker wedges (the
	// ProgWedged-class fault outcome), at the detection instant, before
	// the victim's retry or retirement.
	EventWedge
	// EventRetry fires when a wedge victim is re-queued within its retry
	// budget (after its EventWedge; the job is not retired).
	EventRetry
	// EventTimeout fires when a queued job is dropped past its deadline
	// under FaultConfig.EnforceDeadlines (before its EventRetire, whose
	// job carries an ErrTimedOut error).
	EventTimeout
	// EventQuarantine fires once per Worker removed from service by a
	// wedged reprogram (after the wedge's EventWedge).
	EventQuarantine
	// EventRepair fires when a scheduled repair returns a quarantined
	// Worker to service on probation; Span is the time it spent out of
	// service.
	EventRepair
	// EventProbationFail fires when a repaired Worker's probationary
	// re-reprogram wedges again (before the re-quarantine's
	// EventQuarantine).
	EventProbationFail
)

// Event is one scheduler lifecycle event. Fields a kind does not use
// are zero.
type Event struct {
	Kind   EventKind
	At     sim.Time
	Worker int
	Job    *Job     // EventDispatch, EventRetire
	Span   sim.Time // EventBusy: busy interval; EventRepair: time quarantined
	Depth  int      // EventArrival: admission-queue depth
}

// SetObserver attaches an observer to the scheduler (nil detaches). Set
// it before the first Submit: events before attachment are simply not
// observed.
func (s *Scheduler) SetObserver(o Observer) { s.obs = o }

// WorkerKinds reports each worker's backend kind in worker-index order —
// what an observer needs to tell fabric-class busy time from soft-path
// busy time.
func (s *Scheduler) WorkerKinds() []BackendKind {
	ks := make([]BackendKind, len(s.workers))
	for i, w := range s.workers {
		ks[i] = w.kind
	}
	return ks
}

// observe keeps every event site to one branch when no observer is
// attached.
func (s *Scheduler) observe(e Event) {
	if s.obs != nil {
		s.obs.Observe(e)
	}
}
