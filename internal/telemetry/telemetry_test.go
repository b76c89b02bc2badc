package telemetry

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"duet/internal/sched"
	"duet/internal/sim"
)

func kinds(ks ...sched.BackendKind) []sched.BackendKind { return ks }

// Event shorthands: the scheduler's side of the Observe seam.
func observe(r *Recorder, kind sched.EventKind, at sim.Time) {
	r.Observe(sched.Event{Kind: kind, At: at})
}

func arrive(r *Recorder, at sim.Time, depth int) {
	r.Observe(sched.Event{Kind: sched.EventArrival, At: at, Depth: depth})
}

func dispatch(r *Recorder, at sim.Time, worker int, reprogrammed bool) {
	r.Observe(sched.Event{Kind: sched.EventDispatch, At: at, Worker: worker, Job: &sched.Job{Reprogrammed: reprogrammed}})
}

func retire(r *Recorder, j *sched.Job) {
	r.Observe(sched.Event{Kind: sched.EventRetire, At: j.Finish, Job: j})
}

func occupy(r *Recorder, worker int, from, to sim.Time) {
	r.Observe(sched.Event{Kind: sched.EventBusy, At: to, Worker: worker, Span: to - from})
}

func TestNewRecorderRejectsBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRecorder(0) did not panic")
		}
	}()
	NewRecorder(0, nil)
}

// TestRecorderWindowing: observations must land in the window covering
// their simulated instant, and the dense table must cover every window
// up to the latest touched one.
func TestRecorderWindowing(t *testing.T) {
	r := NewRecorder(100, kinds(sched.BackendCycle, sched.BackendCPU))
	arrive(r, 0, 3)
	arrive(r, 99, 5)  // same window, deeper queue
	arrive(r, 100, 1) // next window starts exactly at the edge
	observe(r, sched.EventReject, 250)
	dispatch(r, 310, 0, true)
	dispatch(r, 310, 1, false)
	retire(r, &sched.Job{Submit: 330, Finish: 450}) // sojourn 120: inside the digest's exact region
	rows := r.Series()
	if len(rows) != 5 {
		t.Fatalf("Series() has %d windows, want 5", len(rows))
	}
	if rows[0].Arrivals != 2 || rows[0].QueueMax != 5 {
		t.Fatalf("window 0 = %+v, want 2 arrivals, queue max 5", rows[0])
	}
	if rows[1].Arrivals != 1 {
		t.Fatalf("window 1 arrivals = %d, want 1", rows[1].Arrivals)
	}
	if rows[2].Rejects != 1 {
		t.Fatalf("window 2 rejects = %d, want 1", rows[2].Rejects)
	}
	if rows[3].Reprograms != 1 || rows[3].Spills != 1 {
		t.Fatalf("window 3 = %+v, want 1 reprogram, 1 spill", rows[3])
	}
	if rows[4].Completions != 1 || rows[4].P50 != 120 {
		t.Fatalf("window 4 = %+v, want 1 completion, p50 120", rows[4])
	}
	for i, row := range rows {
		wantEnd := sim.Time(i+1) * 100
		if i == len(rows)-1 {
			wantEnd = 450 // the run horizon (the retire at 450) clamps the last window
		}
		if row.Window != i || row.Start != sim.Time(i)*100 || row.End != wantEnd {
			t.Fatalf("row %d has span [%v, %v), want [%v, %v)", i, row.Start, row.End, sim.Time(i)*100, wantEnd)
		}
	}
}

// TestSeriesHorizonClamp: regression for the last-window utilization
// bug — a run ending mid-window must report End at the horizon and
// compute utilization over the covered span, not the full window width.
func TestSeriesHorizonClamp(t *testing.T) {
	r := NewRecorder(100, kinds(sched.BackendModel))
	// One worker busy for the whole run, which ends at 250: windows 0 and
	// 1 are fully covered, window 2 only to its midpoint.
	occupy(r, 0, 0, 250)
	retire(r, &sched.Job{Submit: 0, Finish: 250})
	if got := r.Horizon(); got != 250 {
		t.Fatalf("Horizon() = %v, want 250", got)
	}
	rows := r.Series()
	if len(rows) != 3 {
		t.Fatalf("%d windows, want 3", len(rows))
	}
	last := rows[2]
	if last.Start != 200 || last.End != 250 {
		t.Fatalf("last window spans [%v, %v), want [200, 250)", last.Start, last.End)
	}
	// 50 busy over a 50-wide covered span: fully utilized, not 50%.
	if last.Utilization != 1.0 {
		t.Fatalf("last window utilization = %v, want 1.0", last.Utilization)
	}
	for i := 0; i < 2; i++ {
		if rows[i].End != sim.Time(i+1)*100 || rows[i].Utilization != 1.0 {
			t.Fatalf("window %d = [%v, %v) util %v, want full window fully utilized",
				i, rows[i].Start, rows[i].End, rows[i].Utilization)
		}
	}
}

// TestMergeHorizon: the merged recorder's horizon must be the latest
// shard horizon, and the merged series' last window must clamp to it.
func TestMergeHorizon(t *testing.T) {
	a := NewRecorder(100, kinds(sched.BackendModel))
	b := NewRecorder(100, kinds(sched.BackendModel))
	retire(a, &sched.Job{Submit: 0, Finish: 120})
	retire(b, &sched.Job{Submit: 0, Finish: 180})
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Horizon(); got != 180 {
		t.Fatalf("merged horizon = %v, want 180", got)
	}
	rows := m.Series()
	if got := rows[len(rows)-1].End; got != 180 {
		t.Fatalf("merged last window End = %v, want 180", got)
	}
}

// TestExtendHorizon: a live feeder extending the horizon must
// materialize idle windows (zero counters, zero utilization) and move
// the clamp, without recording any event.
func TestExtendHorizon(t *testing.T) {
	r := NewRecorder(100, kinds(sched.BackendModel))
	arrive(r, 10, 1)
	r.ExtendHorizon(350)
	if got := r.Horizon(); got != 350 {
		t.Fatalf("Horizon() = %v, want 350", got)
	}
	rows := r.Series()
	if len(rows) != 4 {
		t.Fatalf("%d windows, want 4 (idle tail materialized)", len(rows))
	}
	for i := 1; i < 4; i++ {
		if rows[i].Arrivals != 0 || rows[i].Utilization != 0 {
			t.Fatalf("idle window %d = %+v", i, rows[i])
		}
	}
	if rows[3].End != 350 {
		t.Fatalf("last window End = %v, want 350", rows[3].End)
	}
	// Extending backwards is a no-op.
	r.ExtendHorizon(200)
	if got := r.Horizon(); got != 350 {
		t.Fatalf("Horizon() after backwards extend = %v, want 350", got)
	}
}

// TestSpillRequiresFabric: regression for the spill miscount — CPU
// dispatches only count as spills when the observed scheduler has
// fabric-class workers; a pure soft-path pool has nothing to spill from.
func TestSpillRequiresFabric(t *testing.T) {
	pure := NewRecorder(100, kinds(sched.BackendCPU, sched.BackendCPU))
	dispatch(pure, 10, 0, false)
	if got := pure.Series()[0].Spills; got != 0 {
		t.Fatalf("pure-CPU pool recorded %d spills, want 0", got)
	}
	mixed := NewRecorder(100, kinds(sched.BackendCycle, sched.BackendCPU))
	dispatch(mixed, 10, 1, false)
	dispatch(mixed, 10, 0, false)
	if got := mixed.Series()[0].Spills; got != 1 {
		t.Fatalf("mixed pool recorded %d spills, want 1", got)
	}
}

// TestRecorderBusySplit: an occupancy interval spanning window edges
// must be split exactly — per-window busy sums to the interval length
// and no window's share exceeds its width.
func TestRecorderBusySplit(t *testing.T) {
	r := NewRecorder(100, kinds(sched.BackendCycle, sched.BackendCPU))
	occupy(r, 0, 50, 320) // 50 in w0, 100 in w1, 100 in w2, 20 in w3
	occupy(r, 1, 0, 100)  // exactly w0
	rows := r.Series()
	want := [][]sim.Time{{50, 100}, {100, 0}, {100, 0}, {20, 0}}
	for i, w := range want {
		if !reflect.DeepEqual(rows[i].Busy, w) {
			t.Fatalf("window %d busy = %v, want %v", i, rows[i].Busy, w)
		}
	}
	if rows[0].BusyCPU != 100 {
		t.Fatalf("window 0 busy_cpu = %v, want 100 (worker 1 is the CPU)", rows[0].BusyCPU)
	}
	var total sim.Time
	for _, row := range rows {
		total += row.BusyTotal
	}
	if total != 270+100 {
		t.Fatalf("total busy %v, want 370", total)
	}
	// Utilization: window 1 has one of two workers fully busy.
	if rows[1].Utilization != 0.5 {
		t.Fatalf("window 1 utilization = %v, want 0.5", rows[1].Utilization)
	}
}

// TestRecorderMerge: merging shard recorders must add counters, take
// the queue high-water max, concatenate busy columns in shard order and
// merge the digests — and must not mutate its inputs.
func TestRecorderMerge(t *testing.T) {
	a := NewRecorder(100, kinds(sched.BackendCycle))
	b := NewRecorder(100, kinds(sched.BackendCycle, sched.BackendCPU))
	arrive(a, 10, 4)
	occupy(a, 0, 0, 60)
	retire(a, &sched.Job{Submit: 0, Finish: 80})
	arrive(b, 20, 2)
	occupy(b, 1, 50, 150)
	retire(b, &sched.Job{Submit: 20, Finish: 180})
	aRows, bRows := a.Series(), b.Series()

	m, err := Merge(a, nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers() != 3 {
		t.Fatalf("merged workers = %d, want 3", m.Workers())
	}
	rows := m.Series()
	if rows[0].Arrivals != 2 || rows[0].QueueMax != 4 || rows[0].Completions != 1 {
		t.Fatalf("merged window 0 = %+v", rows[0])
	}
	if want := []sim.Time{60, 0, 50}; !reflect.DeepEqual(rows[0].Busy, want) {
		t.Fatalf("merged window 0 busy = %v, want %v", rows[0].Busy, want)
	}
	if rows[1].Completions != 1 || rows[1].P50 != 160 {
		t.Fatalf("merged window 1 = %+v, want b's completion (sojourn 160)", rows[1])
	}
	// Inputs untouched.
	if !reflect.DeepEqual(a.Series(), aRows) || !reflect.DeepEqual(b.Series(), bRows) {
		t.Fatal("Merge mutated an input recorder")
	}

	if _, err := Merge(a, NewRecorder(50, nil)); err == nil {
		t.Fatal("width mismatch not rejected")
	}
	if m, err := Merge(nil, nil); m != nil || err != nil {
		t.Fatalf("all-nil merge = (%v, %v), want (nil, nil)", m, err)
	}
}

// TestMergeEqualsUnshardedRecorder: a recorder observing a whole stream
// must equal the merge of recorders observing any split of it (modulo
// the busy-column concatenation, exercised here with one worker per
// shard mapped onto distinct columns).
func TestMergeEqualsUnshardedRecorder(t *testing.T) {
	whole := NewRecorder(1000, kinds(sched.BackendCycle, sched.BackendCycle))
	s0 := NewRecorder(1000, kinds(sched.BackendCycle))
	s1 := NewRecorder(1000, kinds(sched.BackendCycle))
	shards := []*Recorder{s0, s1}
	for i := 0; i < 500; i++ {
		at := sim.Time(i * 37 % 10000)
		s := shards[i%2]
		arrive(whole, at, i%7)
		arrive(s, at, i%7)
		occupy(whole, i%2, at, at+29)
		occupy(s, 0, at, at+29)
		j := &sched.Job{Submit: at, Finish: at + sim.Time(100+i)}
		retire(whole, j)
		retire(s, j)
	}
	m, err := Merge(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	mr, wr := m.Series(), whole.Series()
	if len(mr) != len(wr) {
		t.Fatalf("merged %d windows, whole %d", len(mr), len(wr))
	}
	for i := range mr {
		got, want := mr[i], wr[i]
		// Busy columns are permuted (shard concatenation vs round-robin
		// worker choice); compare the totals and everything else.
		got.Busy, want.Busy = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window %d: merged %+v != whole %+v", i, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
	rows := []WindowRow{
		{Window: 0, Start: 0, End: 100, Counts: Counts{Arrivals: 5, Rejects: 1, Reprograms: 2}, QueueMax: 3, Utilization: 0.5, P99: 40},
		{Window: 1, Start: 100, End: 200, Counts: Counts{Arrivals: 3, Completions: 6, Reprograms: 2}, QueueMax: 9, Utilization: 0.9, P99: 70},
		{Window: 2, Start: 200, End: 300, Counts: Counts{Spills: 4}, Utilization: 0.1, P99: 70},
	}
	s := Summarize(rows)
	if s.Windows != 3 || s.Width != 100 || s.Arrivals != 8 || s.Completions != 6 ||
		s.Rejects != 1 || s.Spills != 4 || s.QueueMax != 9 {
		t.Fatalf("summary totals = %+v", s)
	}
	if s.PeakUtilization != 0.9 || s.PeakUtilWindow != 1 {
		t.Fatalf("peak util = %v (w%d)", s.PeakUtilization, s.PeakUtilWindow)
	}
	if s.PeakP99 != 70 || s.PeakP99Window != 1 { // tie goes to the earliest window
		t.Fatalf("peak p99 = %v (w%d), want 70 (w1)", s.PeakP99, s.PeakP99Window)
	}
	if s.PeakReprograms != 2 || s.PeakReprogramsWin != 0 {
		t.Fatalf("peak reprograms = %d (w%d), want 2 (w0)", s.PeakReprograms, s.PeakReprogramsWin)
	}
}

// TestCSVRoundTrip: WriteCSV then ParseCSV must reproduce the rows
// (minus the JSON-only per-worker busy vector).
func TestCSVRoundTrip(t *testing.T) {
	const header = "window,start,end,arrivals,completions,failures,rejects,reprograms,spills,wedges,retries,timeouts,quarantines,repairs,probation_fails,quarantine_time,deadline_misses,goodput,queue_max,busy_cpu,busy_total,utilization,p50,p99"
	if CSVHeader != header {
		t.Fatalf("CSVHeader = %q, want %q", CSVHeader, header)
	}
	r := NewRecorder(100, kinds(sched.BackendCycle, sched.BackendCPU))
	arrive(r, 10, 2)
	occupy(r, 0, 0, 150)
	occupy(r, 1, 40, 90)
	retire(r, &sched.Job{Submit: 10, Finish: 130})
	rows := r.Series()
	var sb strings.Builder
	if err := WriteCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCSV(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i].Busy = nil
	}
	if !reflect.DeepEqual(back, rows) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, rows)
	}
	if _, err := ParseCSV("not,a,series\n"); err == nil {
		t.Fatal("bogus CSV parsed")
	}
	// A NaN utilization would parse but could not round-trip (or be
	// re-emitted as JSON), so it is rejected.
	zeros := CSVHeader + "\n" + strings.Repeat("0,", 21) // up to utilization
	if _, err := ParseCSV(zeros + "0.5,0,0\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCSV(zeros + "NaN,0,0\n"); err == nil {
		t.Fatal("NaN utilization parsed")
	}
}

// TestLoadSeries: the loader must sniff all three on-disk forms and pull
// every windows array out of a nested -json document in sorted-path
// order, under both key spellings.
func TestLoadSeries(t *testing.T) {
	rows := []WindowRow{{Window: 0, End: 100, Counts: Counts{Arrivals: 2}, Busy: []sim.Time{30}}}
	asJSON, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := WriteCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	for _, form := range []string{sb.String(), string(asJSON)} {
		found, err := LoadSeries([]byte(form))
		if err != nil {
			t.Fatalf("load %q form: %v", form[:10], err)
		}
		if len(found) != 1 || found[0].Path != "" || len(found[0].Rows) != 1 {
			t.Fatalf("load %q form: found %+v", form[:10], found)
		}
	}

	doc := []byte(`{
		"serve": [ {"Policy": "fifo", "Windows": ` + string(asJSON) + `} ],
		"cluster": [ {"windows": ` + string(asJSON) + `}, {"windows": ` + string(asJSON) + `} ]
	}`)
	found, err := LoadSeries(doc)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(found))
	for i, fs := range found {
		paths[i] = fs.Path
		if len(fs.Rows) != 1 || fs.Rows[0].Arrivals != 2 {
			t.Fatalf("series %s rows = %+v", fs.Path, fs.Rows)
		}
	}
	want := []string{"cluster[0].windows", "cluster[1].windows", "serve[0].Windows"}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("paths = %v, want %v", paths, want)
	}

	if _, err := LoadSeries([]byte(`{"no": "series"}`)); err == nil {
		t.Fatal("document without windows arrays loaded")
	}
	if _, err := LoadSeries([]byte(`!garbage`)); err == nil {
		t.Fatal("garbage loaded")
	}
}

// everyCount feeds r every event kind, all inside window 0, and returns
// the counts it must record: each counter distinct and non-zero, so a
// dropped or swapped column cannot pass. Worker 0 is fabric, worker 1
// the CPU soft path.
func everyCount(r *Recorder) Counts {
	want := Counts{
		Arrivals: 14, Completions: 13, Failures: 3, Rejects: 4, Reprograms: 5,
		Spills: 6, Wedges: 7, Retries: 8, Timeouts: 9, Quarantines: 10,
		Repairs: 11, ProbationFails: 12, QuarantineTime: 11 * 25, DeadlineMisses: 2,
	}
	repeat := func(n int, f func()) {
		for range n {
			f()
		}
	}
	repeat(want.Arrivals, func() { arrive(r, 10, 1) })
	repeat(want.Rejects, func() { observe(r, sched.EventReject, 20) })
	repeat(want.Reprograms, func() { dispatch(r, 30, 0, true) })
	repeat(want.Spills, func() { dispatch(r, 30, 1, false) })
	repeat(want.Completions-want.DeadlineMisses, func() { retire(r, &sched.Job{Submit: 10, Finish: 40}) })
	repeat(want.DeadlineMisses, func() { retire(r, &sched.Job{Submit: 10, Request: sched.Request{Deadline: 30}, Finish: 40}) })
	repeat(want.Failures, func() { retire(r, &sched.Job{Finish: 40, Err: sched.ErrUnavailable}) })
	repeat(want.Wedges, func() { observe(r, sched.EventWedge, 50) })
	repeat(want.Retries, func() { observe(r, sched.EventRetry, 50) })
	repeat(want.Timeouts, func() { observe(r, sched.EventTimeout, 60) })
	repeat(want.Quarantines, func() { observe(r, sched.EventQuarantine, 50) })
	repeat(want.Repairs, func() { r.Observe(sched.Event{Kind: sched.EventRepair, At: 70, Span: 25}) })
	repeat(want.ProbationFails, func() { observe(r, sched.EventProbationFail, 80) })
	return want
}

// TestEveryWindowCounter carries every Counts field through Series,
// Summarize, the CSV round trip and Merge.
func TestEveryWindowCounter(t *testing.T) {
	r := NewRecorder(100, kinds(sched.BackendCycle, sched.BackendCPU))
	want := everyCount(r)
	wv := reflect.ValueOf(want)
	seen := map[int64]bool{}
	for i := range wv.NumField() {
		if v := wv.Field(i).Int(); v == 0 || seen[v] {
			t.Fatalf("everyCount: %s = %d, want distinct and non-zero", wv.Type().Field(i).Name, v)
		}
		seen[wv.Field(i).Int()] = true
	}

	rows := r.Series()
	if len(rows) != 1 || rows[0].Counts != want {
		t.Fatalf("Series counts = %+v, want %+v", rows[0].Counts, want)
	}
	if s := Summarize(rows); s.Counts != want || s.Goodput != want.Completions-want.DeadlineMisses {
		t.Fatalf("Summarize = %+v, want counts %+v", s, want)
	}

	var sb strings.Builder
	if err := WriteCSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCSV(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Counts != want {
		t.Fatalf("CSV round trip counts = %+v, want %+v", back, want)
	}

	m, err := Merge(r, r)
	if err != nil {
		t.Fatal(err)
	}
	mv := reflect.ValueOf(m.Series()[0].Counts)
	for i := range mv.NumField() {
		if got := mv.Field(i).Int(); got != 2*wv.Field(i).Int() {
			t.Errorf("Merge: %s = %d, want %d", mv.Type().Field(i).Name, got, 2*wv.Field(i).Int())
		}
	}
}
