package apps

import "testing"

// TestDumpFig12 prints the full-size Fig. 12 sweep (skipped in -short).
func TestDumpFig12(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	rows := Fig12(0, All())
	for _, r := range rows {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Name, r.Err)
			continue
		}
		t.Logf("%-10s duet=%6.2fx fpsoc=%6.2fx adpD=%5.2f adpF=%5.2f (cpu=%v)",
			r.Name, r.SpeedupDuet, r.SpeedupFPSoC, r.ADPDuet, r.ADPFPSoC, r.CPURuntime)
	}
	sd, sf, ad, af := Geomeans(rows)
	t.Logf("GEOMEAN: duet=%.2fx fpsoc=%.2fx adpDuet=%.2f adpFPSoC=%.2f (paper: 4.53x / 2.14x / 0.61 / 1.23)", sd, sf, ad, af)
}
