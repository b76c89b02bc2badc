package apps

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// fig12Golden is one Fig. 12 row as the golden file records it: the three
// runtimes in picoseconds and the derived ratios at full float64 precision.
type fig12Golden struct {
	Name         string  `json:"name"`
	CPUPS        int64   `json:"cpu_ps"`
	DuetPS       int64   `json:"duet_ps"`
	FPSoCPS      int64   `json:"fpsoc_ps"`
	SpeedupDuet  float64 `json:"speedup_duet"`
	SpeedupFPSoC float64 `json:"speedup_fpsoc"`
	ADPDuet      float64 `json:"adp_duet"`
	ADPFPSoC     float64 `json:"adp_fpsoc"`
}

// TestDumpFig12 runs the full-size Fig. 12 sweep (skipped in -short) and
// pins every row against testdata/fig12.golden.json. Regenerate with
// UPDATE_GOLDEN=1 after an intentional change.
func TestDumpFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	rows := Fig12(0, All())
	golden := make([]fig12Golden, len(rows))
	for i, r := range rows {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Name, r.Err)
		}
		golden[i] = fig12Golden{
			Name: r.Name, CPUPS: int64(r.CPURuntime), DuetPS: int64(r.DuetRuntime), FPSoCPS: int64(r.FPSoCRuntime),
			SpeedupDuet: r.SpeedupDuet, SpeedupFPSoC: r.SpeedupFPSoC, ADPDuet: r.ADPDuet, ADPFPSoC: r.ADPFPSoC,
		}
	}
	sd, sf, ad, af := Geomeans(rows)
	t.Logf("GEOMEAN: duet=%.2fx fpsoc=%.2fx adpDuet=%.2f adpFPSoC=%.2f (paper: 4.53x / 2.14x / 0.61 / 1.23)", sd, sf, ad, af)

	path := filepath.Join("testdata", "fig12.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		b, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	var want []fig12Golden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(golden) {
		t.Fatalf("%d rows, golden has %d", len(golden), len(want))
	}
	for i, got := range golden {
		if got != want[i] {
			t.Errorf("row %d diverged from golden:\n got  %+v\n want %+v", i, got, want[i])
		}
	}
}
