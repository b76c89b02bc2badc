package telemetry

import (
	"strings"
	"testing"

	"duet/internal/sched"
)

// TestWritePromGolden pins the full exposition for a small deterministic
// run: the daemon's /metrics golden-scrape test reuses the same
// recorder-side determinism this asserts.
func TestWritePromGolden(t *testing.T) {
	r := NewRecorder(100, kinds(sched.BackendCycle, sched.BackendCPU))
	arrive(r, 10, 1)
	arrive(r, 20, 2)
	dispatch(r, 20, 1, false)
	dispatch(r, 30, 0, true)
	occupy(r, 0, 30, 180)
	occupy(r, 1, 20, 120)
	retire(r, &sched.Job{Submit: 20, Finish: 120})
	retire(r, &sched.Job{Submit: 10, Finish: 180})
	observe(r, sched.EventReject, 150)

	var b strings.Builder
	if err := WriteProm(&b, "duetsim", r); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	const want = `# HELP duetsim_arrivals_total Jobs offered to the scheduler.
# TYPE duetsim_arrivals_total counter
duetsim_arrivals_total 2
# HELP duetsim_completions_total Jobs completed.
# TYPE duetsim_completions_total counter
duetsim_completions_total 2
# HELP duetsim_failures_total Jobs failed (unknown app, capacity, programming error).
# TYPE duetsim_failures_total counter
duetsim_failures_total 0
# HELP duetsim_rejects_total Jobs bounced by the full admission queue.
# TYPE duetsim_rejects_total counter
duetsim_rejects_total 1
# HELP duetsim_reprograms_total Fabric reconfigurations triggered by placement.
# TYPE duetsim_reprograms_total counter
duetsim_reprograms_total 1
# HELP duetsim_spills_total Jobs spilled to the CPU soft path.
# TYPE duetsim_spills_total counter
duetsim_spills_total 1
# HELP duetsim_wedges_total Reprograms that wedged (fabric quarantined).
# TYPE duetsim_wedges_total counter
duetsim_wedges_total 0
# HELP duetsim_retries_total Wedge-victim jobs re-queued within their retry budget.
# TYPE duetsim_retries_total counter
duetsim_retries_total 0
# HELP duetsim_timeouts_total Queued jobs dropped past their deadline.
# TYPE duetsim_timeouts_total counter
duetsim_timeouts_total 0
# HELP duetsim_quarantines_total Workers removed from service by wedged reprograms.
# TYPE duetsim_quarantines_total counter
duetsim_quarantines_total 0
# HELP duetsim_repairs_total Quarantined workers returned to service on probation.
# TYPE duetsim_repairs_total counter
duetsim_repairs_total 0
# HELP duetsim_probation_failures_total Probationary re-reprograms that wedged again.
# TYPE duetsim_probation_failures_total counter
duetsim_probation_failures_total 0
# HELP duetsim_goodput_total Completions that met their deadline.
# TYPE duetsim_goodput_total counter
duetsim_goodput_total 2
# HELP duetsim_quarantine_seconds_total Simulated time repaired workers spent quarantined.
# TYPE duetsim_quarantine_seconds_total counter
duetsim_quarantine_seconds_total 0
# HELP duetsim_queue_depth_max Run-wide admission-queue high-water mark.
# TYPE duetsim_queue_depth_max gauge
duetsim_queue_depth_max 2
# HELP duetsim_horizon_seconds Latest observed simulated instant.
# TYPE duetsim_horizon_seconds gauge
duetsim_horizon_seconds 1.8e-10
# HELP duetsim_window_width_seconds Flight-recorder window width (simulated time).
# TYPE duetsim_window_width_seconds gauge
duetsim_window_width_seconds 1e-10
# HELP duetsim_windows Flight-recorder windows recorded so far.
# TYPE duetsim_windows gauge
duetsim_windows 2
# HELP duetsim_worker_busy_seconds_total Cumulative worker occupancy (simulated seconds).
# TYPE duetsim_worker_busy_seconds_total counter
duetsim_worker_busy_seconds_total{worker="0",kind="cycle"} 1.5e-10
duetsim_worker_busy_seconds_total{worker="1",kind="cpu"} 1e-10
# HELP duetsim_window_utilization Worker utilization of the newest window.
# TYPE duetsim_window_utilization gauge
duetsim_window_utilization 0.625
# HELP duetsim_window_sojourn_seconds Sojourn latency of the newest window with completions.
# TYPE duetsim_window_sojourn_seconds gauge
duetsim_window_sojourn_seconds{quantile="0.5"} 1e-10
duetsim_window_sojourn_seconds{quantile="0.99"} 1.7e-10
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePromNil: a nil recorder (e.g. telemetry disabled) writes
// nothing rather than erroring.
func TestWritePromNil(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, "duetsim", nil); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil recorder wrote %q", b.String())
	}
}

// TestWritePromFaultCounters: every run-wide counter sample must carry
// its own count. The golden run above leaves the fault counters at zero,
// so it cannot tell two of them apart; everyCount makes each distinct.
func TestWritePromFaultCounters(t *testing.T) {
	r := NewRecorder(100, kinds(sched.BackendCycle, sched.BackendCPU))
	everyCount(r)
	var b strings.Builder
	if err := WriteProm(&b, "duetsim", r); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"duetsim_arrivals_total 14",
		"duetsim_completions_total 13",
		"duetsim_failures_total 3",
		"duetsim_rejects_total 4",
		"duetsim_reprograms_total 5",
		"duetsim_spills_total 6",
		"duetsim_wedges_total 7",
		"duetsim_retries_total 8",
		"duetsim_timeouts_total 9",
		"duetsim_quarantines_total 10",
		"duetsim_repairs_total 11",
		"duetsim_probation_failures_total 12",
		"duetsim_goodput_total 11",
		"duetsim_quarantine_seconds_total 2.75e-10",
	} {
		if !strings.Contains(b.String(), "\n"+line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, b.String())
		}
	}
}
