package workload

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestDumpPaperFigs runs the full Fig. 9, 10 and 11 grids of `duetsim
// fig9|fig10|fig11` and the default `duetsim ablate` grid (skipped in
// -short), and pins every row byte for byte against
// testdata/paper_figs.golden.json: latencies and breakdowns in
// picoseconds, bandwidths at full float64 precision. These rows run
// through the soft-register engine, the Memory Hub and the CDC bridges.
// Regenerate with UPDATE_GOLDEN=1 after an intentional change.
func TestDumpPaperFigs(t *testing.T) {
	doc := struct {
		Fig9     []Fig9Row      `json:"fig9"`
		Fig10    []Fig10Row     `json:"fig10"`
		Fig11    []Fig11Row     `json:"fig11"`
		Ablation AblationResult `json:"ablation"`
	}{
		Fig9:     Fig9P(0, []float64{100, 200, 500}),
		Fig10:    Fig10P(0, []float64{20, 50, 100, 200, 500}),
		Fig11:    Fig11P(0, []int{1, 2, 4, 8, 16}),
		Ablation: Ablation(0, nil, nil, 100),
	}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "paper_figs.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range min(len(gl), len(wl)) {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("line %d diverged from golden:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d lines, golden has %d", len(gl), len(wl))
	}
}
