package sched

import "fmt"

// Count reports the number of samples d has recorded.
func (d *Digest) Count() uint64 { return d.count }

// CheckResidency compares every idle worker's tracked resident app with
// its backend's Resident(), resolved through the catalog (-1 when the
// name is not in it). Busy workers are skipped: their residency changes
// under the job and is re-read at its completion.
func CheckResidency(s *Scheduler) error {
	for _, w := range s.workers {
		if w.busy {
			continue
		}
		name := w.be.Resident()
		want, ok := s.byName[name]
		if !ok {
			want = -1
		}
		if w.resident != want {
			return fmt.Errorf("worker %d tracks app %d resident, backend holds %q (app %d)", w.id, w.resident, name, want)
		}
	}
	return nil
}

// CheckQueueCounts compares each app's queued count with the jobs of it
// in the admission queue. It holds between queue mutations, not inside
// the kill and purge loops that retire queued jobs one by one.
func CheckQueueCounts(s *Scheduler) error {
	counts := make([]int32, len(s.apps))
	for _, j := range s.queue {
		counts[j.App]++
	}
	for a, app := range s.apps {
		if app.queued != counts[a] {
			return fmt.Errorf("app %d counts %d queued, the queue holds %d", a, app.queued, counts[a])
		}
	}
	return nil
}
