package telemetry

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"duet/internal/sched"
)

// FuzzLoadSeries: LoadSeries reads files from outside the program, so
// hostile bytes must never panic, and any series it accepts — from CSV
// or from either JSON form — must come back unchanged through WriteCSV
// and ParseCSV, minus the JSON-only per-worker busy vector.
func FuzzLoadSeries(f *testing.F) {
	r := NewRecorder(100, kinds(sched.BackendCycle, sched.BackendCPU))
	everyCount(r)
	occupy(r, 0, 0, 150)
	rows := r.Series()
	var csv strings.Builder
	if err := WriteCSV(&csv, rows); err != nil {
		f.Fatal(err)
	}
	arr, err := json.Marshal(rows)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(csv.String()))
	f.Add(arr)
	f.Add([]byte(`{"serve": [{"Policy": "fifo", "Windows": ` + string(arr) + `}], "cluster": [{"windows": ` + string(arr) + `}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		found, err := LoadSeries(data)
		if err != nil {
			return
		}
		for _, fs := range found {
			var sb strings.Builder
			if err := WriteCSV(&sb, fs.Rows); err != nil {
				t.Fatal(err)
			}
			back, err := ParseCSV(sb.String())
			if err != nil {
				t.Fatalf("series %q: re-parsing its own CSV: %v", fs.Path, err)
			}
			want := make([]WindowRow, len(fs.Rows))
			copy(want, fs.Rows)
			for i := range want {
				want[i].Busy = nil
			}
			if !reflect.DeepEqual(back, want) {
				t.Fatalf("series %q: CSV round trip\n got %+v\nwant %+v", fs.Path, back, want)
			}
		}
	})
}
