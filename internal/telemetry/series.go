package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"duet/internal/sched"
	"duet/internal/sim"
)

// WindowRow is one window of the emitted series — the machine-readable
// snapshot behind `duetsim -windows` and the `report` subcommand. Field
// (and JSON key) order is part of the determinism contract: the CI
// windows-determinism job diffs these bytes across study-pool widths.
type WindowRow struct {
	Window int      `json:"window"`
	Start  sim.Time `json:"start"`
	End    sim.Time `json:"end"`
	Counts
	// Goodput is the completions that met their deadline (omitted when
	// zero, like the fault-path counters).
	Goodput     int        `json:"goodput,omitempty"`
	QueueMax    int        `json:"queue_max"`
	Busy        []sim.Time `json:"busy_per_worker"`
	BusyCPU     sim.Time   `json:"busy_cpu"`
	BusyTotal   sim.Time   `json:"busy_total"`
	Utilization float64    `json:"utilization"`
	P50         sim.Time   `json:"p50"`
	P99         sim.Time   `json:"p99"`
}

// Series snapshots the recorder as one row per window, in window order
// — every touched window, including idle ones between the first and
// last. Utilization is total busy time over the window's whole worker
// capacity (workers x span); BusyCPU splits out the soft-path share of
// BusyTotal, the fabric-vs-CPU pressure signal.
//
// The final window is clamped to the run horizon: when the run ends
// mid-window its End is the horizon, not the full window edge, and its
// utilization denominator is the covered span — a run that keeps every
// worker busy right up to its last completion reports 100%, not the
// fraction of an arbitrary window width it happened to end inside.
func (r *Recorder) Series() []WindowRow {
	rows := make([]WindowRow, len(r.wins))
	for i := range r.wins {
		w := &r.wins[i]
		end := sim.Time(i+1) * r.width
		// Only the last window can extend past the horizon (the horizon
		// is at least the instant that materialized the last window, so
		// it is never below any window's start; the floor is defensive).
		if end > r.horizon {
			end = r.horizon
			if start := sim.Time(i) * r.width; end < start {
				end = start
			}
		}
		row := WindowRow{
			Window:   i,
			Start:    sim.Time(i) * r.width,
			End:      end,
			Counts:   w.Counts,
			Goodput:  w.Completions - w.DeadlineMisses,
			QueueMax: w.queueMax,
			Busy:     make([]sim.Time, len(r.kinds)),
			P50:      w.sojourns.Quantile(50),
			P99:      w.sojourns.Quantile(99),
		}
		copy(row.Busy, w.busy)
		for k, b := range row.Busy {
			row.BusyTotal += b
			if r.kinds[k] == sched.BackendCPU {
				row.BusyCPU += b
			}
		}
		if span := end - row.Start; span > 0 && len(r.kinds) > 0 {
			row.Utilization = float64(row.BusyTotal) / (float64(span) * float64(len(r.kinds)))
		}
		rows[i] = row
	}
	return rows
}

// Summary condenses a window series to the numbers a capacity planner
// asks for first: run-wide totals plus the worst windows — peak-window
// p99, the worst reconfig-rate window, the utilization peak and mean,
// and the deepest queue high-water mark.
type Summary struct {
	Windows int
	Width   sim.Time

	Counts
	Goodput  int
	QueueMax int

	// Availability is the served fraction of offered work — completions
	// over arrivals (1 when nothing was offered); Goodput above narrows
	// it to completions that also met their deadline.
	Availability float64

	MeanUtilization float64
	PeakUtilization float64
	PeakUtilWindow  int

	PeakP99       sim.Time
	PeakP99Window int

	PeakReprograms    int
	PeakReprogramsWin int
}

// Summarize reduces rows to a Summary. Empty input yields the zero
// Summary. Ties go to the earliest window.
func Summarize(rows []WindowRow) Summary {
	var s Summary
	if len(rows) == 0 {
		return s
	}
	s.Windows = len(rows)
	s.Width = rows[0].End - rows[0].Start
	for _, r := range rows {
		s.Counts.Add(&r.Counts)
		s.Goodput += r.Goodput
		s.QueueMax = max(s.QueueMax, r.QueueMax)
		s.MeanUtilization += r.Utilization
		if r.Utilization > s.PeakUtilization {
			s.PeakUtilization = r.Utilization
			s.PeakUtilWindow = r.Window
		}
		if r.P99 > s.PeakP99 {
			s.PeakP99 = r.P99
			s.PeakP99Window = r.Window
		}
		if r.Reprograms > s.PeakReprograms {
			s.PeakReprograms = r.Reprograms
			s.PeakReprogramsWin = r.Window
		}
	}
	s.MeanUtilization /= float64(len(rows))
	s.Availability = 1
	if s.Arrivals > 0 {
		s.Availability = float64(s.Completions) / float64(s.Arrivals)
	}
	return s
}

// eachColumn calls fn with the JSON key and settable value of every CSV
// column of row v, in order: each field of WindowRow, Counts flattened,
// except the per-worker busy vector, which is JSON-only (CSV carries the
// totals).
func eachColumn(v reflect.Value, fn func(name string, c reflect.Value)) {
	for i := range v.NumField() {
		switch c := v.Field(i); c.Kind() {
		case reflect.Struct:
			eachColumn(c, fn)
		case reflect.Slice:
		default:
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			fn(name, c)
		}
	}
}

// csvColumns lists row r's CSV columns in CSVHeader order.
func csvColumns(r *WindowRow) []reflect.Value {
	var cols []reflect.Value
	eachColumn(reflect.ValueOf(r).Elem(), func(_ string, c reflect.Value) { cols = append(cols, c) })
	return cols
}

// CSVHeader is the column order of the CSV series form.
var CSVHeader = func() string {
	var names []string
	eachColumn(reflect.ValueOf(&WindowRow{}).Elem(), func(name string, _ reflect.Value) { names = append(names, name) })
	return strings.Join(names, ",")
}()

// formatFloat renders a float shortest-round-trip — byte-stable for
// equal values, the same contract encoding/json gives the JSON form.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// WriteCSV emits the series in the stable column order of CSVHeader.
func WriteCSV(w io.Writer, rows []WindowRow) error {
	if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
		return err
	}
	var line []byte
	for i := range rows {
		line = line[:0]
		for k, c := range csvColumns(&rows[i]) {
			if k > 0 {
				line = append(line, ',')
			}
			if c.Kind() == reflect.Float64 {
				line = append(line, formatFloat(c.Float())...)
			} else {
				line = strconv.AppendInt(line, c.Int(), 10)
			}
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ParseCSV reads a series back from its CSV form. The per-worker busy
// vector is not present in CSV and comes back nil.
func ParseCSV(data string) ([]WindowRow, error) {
	lines := strings.Split(strings.TrimRight(data, "\n"), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != CSVHeader {
		return nil, fmt.Errorf("telemetry: not a window-series CSV (want header %q)", CSVHeader)
	}
	rows := make([]WindowRow, 0, len(lines)-1)
	for ln, line := range lines[1:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r WindowRow
		cols := csvColumns(&r)
		f := strings.Split(line, ",")
		if len(f) != len(cols) {
			return nil, fmt.Errorf("telemetry: CSV line %d has %d fields, want %d", ln+2, len(f), len(cols))
		}
		for k, c := range cols {
			if err := parseColumn(c, f[k]); err != nil {
				return nil, fmt.Errorf("telemetry: CSV line %d: %w", ln+2, err)
			}
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// parseColumn parses one CSV field into its column. Utilization must be
// finite: the JSON form cannot carry NaN or infinities.
func parseColumn(c reflect.Value, src string) error {
	if c.Kind() == reflect.Float64 {
		v, err := strconv.ParseFloat(src, 64)
		if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			err = fmt.Errorf("non-finite value %q", src)
		}
		c.SetFloat(v)
		return err
	}
	v, err := strconv.ParseInt(src, 10, c.Type().Bits())
	c.SetInt(v)
	return err
}

// FoundSeries is one window series located inside a loaded document,
// labeled with the JSON path it was found at ("" for a bare series).
type FoundSeries struct {
	Path string
	Rows []WindowRow
}

// LoadSeries parses a saved series in any form `duetsim` emits: a CSV
// file (report -csv), a bare JSON array of window rows, or a full
// `-json` study document in which every `"windows"`/`"Windows"` array —
// at any nesting depth — is extracted, in deterministic (sorted-path)
// order.
func LoadSeries(data []byte) ([]FoundSeries, error) {
	trimmed := strings.TrimLeft(string(data), " \t\r\n")
	if strings.HasPrefix(trimmed, CSVHeader) {
		rows, err := ParseCSV(trimmed)
		if err != nil {
			return nil, err
		}
		return []FoundSeries{{Rows: rows}}, nil
	}
	if strings.HasPrefix(trimmed, "[") {
		var rows []WindowRow
		if err := json.Unmarshal(data, &rows); err != nil {
			return nil, fmt.Errorf("telemetry: parsing series array: %w", err)
		}
		return []FoundSeries{{Rows: rows}}, nil
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("telemetry: input is neither a window-series CSV nor JSON: %w", err)
	}
	var found []FoundSeries
	extractSeries(doc, "", &found)
	if len(found) == 0 {
		return nil, fmt.Errorf("telemetry: no \"windows\" series found in document (was the run missing -windows?)")
	}
	return found, nil
}

// extractSeries walks a decoded JSON document depth-first with sorted
// map keys (map iteration order must not leak into output order) and
// collects every "windows" key (any case — study structs emit
// "Windows", CLI rows emit "windows") whose value round-trips into
// []WindowRow.
func extractSeries(v any, path string, out *[]FoundSeries) {
	switch n := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(n))
		for k := range n {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := path + "." + k
			if path == "" {
				p = k
			}
			if strings.EqualFold(k, "windows") {
				if rows, ok := reparseRows(n[k]); ok {
					*out = append(*out, FoundSeries{Path: p, Rows: rows})
					continue
				}
			}
			extractSeries(n[k], p, out)
		}
	case []any:
		for i, e := range n {
			extractSeries(e, fmt.Sprintf("%s[%d]", path, i), out)
		}
	}
}

// reparseRows round-trips a decoded JSON value into window rows.
func reparseRows(v any) ([]WindowRow, bool) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, false
	}
	var rows []WindowRow
	if err := json.Unmarshal(b, &rows); err != nil || len(rows) == 0 {
		return nil, false
	}
	return rows, true
}
