package sched

import (
	"errors"
	"fmt"

	"duet/internal/sim"
)

// This file is the scheduler's fault-handling layer: what the shared
// dispatch/complete paths do when an execution backend fails in one of
// the modeled ways (internal/faults injects them below the Backend seam,
// so the cycle and model backends fail identically).
//
//   - A wedged reprogram (an error wrapping ErrWedged) quarantines the
//     worker — mirroring the driver's ProgWedged outcome, where a fabric
//     that never acknowledges its programming engine cannot be trusted
//     with further placements — and re-queues the victim job within a
//     bounded retry budget. Followers steer to the remaining healthy
//     workers, or to the CPU soft path under the Hybrid policy's
//     existing spill decision. Without a repair process the quarantine
//     is permanent; with one (FaultConfig.Repair) the worker returns to
//     service after the configured delay on probation — its backend is
//     scrubbed, so the first placement pays a full probationary
//     re-reprogram and can wedge again.
//   - Shard downtime (FaultConfig.Down) kills every queued job and
//     refuses submissions while a window is open; in-flight jobs run to
//     completion (the replica's workers are modeled as surviving the
//     front-end-visible crash). Both kill paths retire with an error
//     wrapping ErrUnavailable.
//   - Deadline enforcement (FaultConfig.EnforceDeadlines) drops queued
//     jobs whose absolute deadline has passed before dispatch, retiring
//     them with an error wrapping ErrTimedOut — a distinct timed-out
//     outcome instead of a late completion.
//
// Every transition fires an Observer event (wedge/retry/timeout/
// quarantine/repair/probation-fail) and bumps a dedicated Counters
// field, and all decisions happen in this shared scheduler code at
// backend-reported instants, so a cycle-backed and a model-backed run
// under one fault plan make identical fault decisions at identical
// simulated times.

// Error sentinels for the modeled fault outcomes. Backends and injectors
// wrap them (errors.Is distinguishes); Stats counts them per class.
var (
	// ErrWedged marks a reprogram that never completed: the fabric is
	// quarantined and the job is retried within FaultConfig.MaxRetries.
	ErrWedged = errors.New("fabric wedged mid-reprogram")
	// ErrTimedOut marks a queued job dropped past its absolute deadline
	// (FaultConfig.EnforceDeadlines).
	ErrTimedOut = errors.New("deadline passed before dispatch")
	// ErrUnavailable marks a job killed or refused because no service
	// remained: the shard was inside a Down window, or every worker that
	// could hold its bitstream is quarantined.
	ErrUnavailable = errors.New("service unavailable")
)

// Downtime is one closed-open shard outage window [From, To) in
// simulated time.
type Downtime struct {
	From, To sim.Time
}

// FaultConfig parameterizes the scheduler's fault handling. The zero
// value — no retries, no enforcement, no windows — adds no behavior and
// keeps every fault-free run byte-identical to a scheduler without it.
type FaultConfig struct {
	// MaxRetries bounds per-job re-queues after a wedged reprogram; a
	// job whose budget is exhausted (or that fits no remaining healthy
	// worker) retires with the wedge error.
	MaxRetries int
	// EnforceDeadlines drops queued jobs whose absolute Deadline has
	// passed before dispatch (retired with ErrTimedOut) instead of
	// serving them late.
	EnforceDeadlines bool
	// Down lists shard outage windows, ascending and non-overlapping.
	// Entering a window kills every queued job and refuses submissions
	// until it closes; in-flight jobs complete.
	Down []Downtime
	// Repair, when set, is consulted at each quarantine: it returns the
	// repair delay for the nth lifetime wedge of the given worker (nth
	// counts from 1). A positive delay schedules a repair event that far
	// in the future; zero or negative means this quarantine is permanent.
	// The callback must be a pure function of (worker, nth) so the cycle
	// and model backends schedule identical repair instants.
	Repair func(worker, nth int) sim.Time
}

// syncFaults advances the downtime state machine to now. It runs at
// every activity instant (submit, completion), so window transitions are
// observed lazily at the next event — never by a timeline event of their
// own, which keeps the cycle and model backends' event streams
// identical. Crossing into (or entirely past) a window kills the jobs
// queued before it opened; submissions while a window is open are
// refused in Submit via s.down.
func (s *Scheduler) syncFaults(now sim.Time) {
	down := s.cfg.Faults.Down
	for s.downIdx < len(down) {
		w := down[s.downIdx]
		if now < w.From {
			return
		}
		if now < w.To {
			if !s.down {
				s.down = true
				s.failQueued(now, w)
			}
			return
		}
		// The window closed before this activity instant. Jobs queued
		// before it opened still died at the crash (submissions since
		// were refused, so everything queued predates From).
		if !s.down {
			s.failQueued(now, w)
		}
		s.down = false
		s.downIdx++
	}
}

// failQueued kills every queued job at a shard crash (window w), in
// queue order, at instant now.
func (s *Scheduler) failQueued(now sim.Time, w Downtime) {
	q := s.queue
	s.queue = s.queue[:0]
	for _, j := range q {
		j.app.queued--
		j.Finish = now
		j.Err = fmt.Errorf("sched: queued job killed by shard outage [%v, %v): %w", w.From, w.To, ErrUnavailable)
		s.retire(j)
	}
}

// DownAt reports whether instant at falls inside a configured outage
// window — a pure read (no state machine advance) for health surfaces.
func (s *Scheduler) DownAt(at sim.Time) bool {
	for _, w := range s.cfg.Faults.Down {
		if at < w.From {
			return false
		}
		if at < w.To {
			return true
		}
	}
	return false
}

// purgeExpired drops queued jobs whose absolute deadline has passed,
// retiring each with ErrTimedOut. Runs at dispatch entry under
// EnforceDeadlines, so a job is never placed after its deadline.
func (s *Scheduler) purgeExpired(now sim.Time) {
	kept := s.queue[:0]
	for _, j := range s.queue {
		if j.Deadline > 0 && j.Deadline <= now {
			j.app.queued--
			j.Finish = now
			j.Err = fmt.Errorf("sched: %w (deadline %v, now %v)", ErrTimedOut, j.Deadline, now)
			s.observe(Event{Kind: EventTimeout, At: now})
			s.retire(j)
			continue
		}
		kept = append(kept, j)
	}
	s.queue = kept
}

// quarantine marks worker w untrusted: no policy places on it until a
// repair returns it to service (see usable) — without a repair process,
// never. Queued jobs that fit no remaining usable worker and cannot
// outwait a pending repair are retired immediately with ErrUnavailable
// instead of waiting forever.
func (s *Scheduler) quarantine(w *worker, now sim.Time) {
	if w.quarantined {
		return
	}
	w.quarantined = true
	w.wedgeCount++
	w.quarantinedAt = now
	s.ctr.Quarantined++
	s.observe(Event{Kind: EventQuarantine, At: now, Worker: w.id})
	if rf := s.cfg.Faults.Repair; rf != nil {
		if d := rf(w.id, w.wedgeCount); d > 0 {
			w.repairPending = true
			s.tl.AfterArg(d, s.repairFn, w)
		}
	}
	kept := s.queue[:0]
	for _, j := range s.queue {
		if s.placeableEventually(j) {
			kept = append(kept, j)
			continue
		}
		j.app.queued--
		j.Finish = now
		j.Err = fmt.Errorf("sched: every fitting worker quarantined: %w", ErrUnavailable)
		s.retire(j)
	}
	s.queue = kept
}

// repair is the scheduled repair-event callback: it returns a
// quarantined worker to service on probation. The backend is scrubbed
// (the probationary re-reprogram: its next placement pays the full
// reconfiguration cost), the time spent in quarantine is charged, and
// dispatch runs immediately — jobs that were queued waiting for this
// repair place right away.
func (s *Scheduler) repair(w *worker) {
	if !w.quarantined || !w.repairPending {
		return
	}
	now := s.tl.Now()
	s.syncFaults(now)
	w.quarantined = false
	w.repairPending = false
	w.probation = true
	s.ctr.Quarantined--
	s.ctr.Repairs++
	s.ctr.QuarantineTime += now - w.quarantinedAt
	if sc, ok := w.be.(Scrubber); ok {
		sc.Scrub()
	}
	s.syncResident(w, -1)
	s.observe(Event{Kind: EventRepair, At: now, Worker: w.id, Span: now - w.quarantinedAt})
	s.dispatch(now)
}

// placeableEventually reports whether some worker that can hold j's
// bitstream is usable or has a repair in flight — the same fit test
// Submit admits against, re-run after quarantines shrink the pool. A job
// whose only fitting workers are quarantined but being repaired stays
// queued for the repair instead of dying.
func (s *Scheduler) placeableEventually(j *Job) bool {
	for _, w := range s.workers {
		if !s.fits(j.App, w) {
			continue
		}
		if s.usable(w) || (w.quarantined && w.repairPending) {
			return true
		}
	}
	return false
}

// completeWedged handles a wedged-reprogram completion: quarantine the
// worker, then re-queue the victim within its retry budget (or retire it
// with the wedge error). Returns after releasing the worker's busy
// interval — the wedge-detection occupancy the injector charged.
func (s *Scheduler) completeWedged(w *worker, j *Job, err error, now sim.Time) {
	s.ctr.Wedges++
	s.observe(Event{Kind: EventWedge, At: now, Worker: w.id})
	if w.probation {
		// The probationary re-reprogram itself wedged: a flapping fabric.
		// The re-quarantine below restarts the backoff ladder from the
		// worker's (now larger) lifetime wedge count.
		w.probation = false
		s.ctr.ProbationFails++
		s.observe(Event{Kind: EventProbationFail, At: now, Worker: w.id})
	}
	s.quarantine(w, now)
	if j.Retries < s.cfg.Faults.MaxRetries && s.placeableEventually(j) {
		j.Retries++
		s.ctr.Retries++
		// The wedged attempt's outcome fields are stale, not final:
		// reset them so the retry's dispatch re-settles Reprogrammed.
		j.Reprogrammed = false
		j.Err = nil
		s.observe(Event{Kind: EventRetry, At: now})
		s.enqueue(j)
		s.release(w, now)
		return
	}
	j.Finish = now
	j.Err = err
	s.retire(j)
	s.release(w, now)
}

// QuarantinedWorkers reports how many workers are currently quarantined
// by wedged reprograms (repairs return workers to the healthy count).
func (s *Scheduler) QuarantinedWorkers() int { return s.ctr.Quarantined }

// HealthyWorkers reports the workers still accepting placements.
func (s *Scheduler) HealthyWorkers() int { return len(s.workers) - s.ctr.Quarantined }
