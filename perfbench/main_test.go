package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"duet/internal/workload"
)

// TestMain lets the test binary serve as the benchmark's iteration
// process, which measure starts with os.Executable.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// pinnedSeeds are the seeds reference.json pins for every workload.
var pinnedSeeds = []int64{1, 2}

func references(t *testing.T) map[string]string {
	t.Helper()
	refs := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		t.Fatal(err)
	}
	return refs
}

// TestTinyRunsMatchReference runs every workload at tiny size on both
// pinned seeds, untraced and traced: both must reproduce the pinned
// output digest.
func TestTinyRunsMatchReference(t *testing.T) {
	refs := references(t)
	for _, w := range workloads {
		for _, seed := range pinnedSeeds {
			p := params{seed: seed, size: tiny}
			want, ok := refs[refKey(w.name, tiny, seed)]
			if !ok {
				t.Fatalf("%s: no reference for seed %d", w.name, seed)
			}
			plain, err := w.run(p, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			traced, err := w.run(p, newTrace())
			if err != nil {
				t.Fatalf("%s seed %d traced: %v", w.name, seed, err)
			}
			if plain.hash != want || traced.hash != want {
				t.Errorf("%s seed %d: digests untraced %s traced %s, pinned %s", w.name, seed, plain.hash, traced.hash, want)
			}
		}
	}
}

// TestServeClusterMatchesReference holds workload.ServeCluster itself to
// the digests the serve workloads' public-piece pipeline is pinned to.
func TestServeClusterMatchesReference(t *testing.T) {
	refs := references(t)
	for _, w := range []struct {
		name string
		spec serveSpec
	}{{"capacity-model", capacityModel}, {"serve-cycle", serveCycle}} {
		for _, seed := range pinnedSeeds {
			p := params{seed: seed, size: tiny}
			res, err := workload.ServeCluster(w.spec.config(p))
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			got := digest(newServeOut(res.Offered, res.Rerouted, res.Hedged, res.Merged, res.PerShard))
			if want := refs[refKey(w.name, tiny, seed)]; got != want {
				t.Errorf("%s seed %d: workload.ServeCluster digest %s, pinned %s", w.name, seed, got, want)
			}
		}
	}
}

// TestEveryReferencePinsTwoSeeds keeps the full-size references complete.
func TestEveryReferencePinsTwoSeeds(t *testing.T) {
	refs := references(t)
	for _, w := range workloads {
		for _, s := range []size{full, tiny} {
			for _, seed := range pinnedSeeds {
				if _, ok := refs[refKey(w.name, s, seed)]; !ok {
					t.Errorf("reference.json lacks %s", refKey(w.name, s, seed))
				}
			}
		}
	}
}

// TestMismatchCountsAsFailure feeds a wrong reference: every checked
// iteration must fail and the result must read incorrect.
func TestMismatchCountsAsFailure(t *testing.T) {
	rep, err := measure(config{workload: "capacity-model", seed: 1, size: tiny, seconds: 0.01}, "not-a-digest")
	if err != nil {
		t.Fatal(err)
	}
	if rep.correct || rep.failed != rep.attempted || rep.attempted == 0 {
		t.Fatalf("wrong reference: attempted %d failed %d correct %v", rep.attempted, rep.failed, rep.correct)
	}
}

// TestNormScalesByReference checks the unit of the timings: an iteration
// that lasts as long as 500 reference slices reads 500 × refSliceSeconds.
func TestNormScalesByReference(t *testing.T) {
	s := sample{RunS: 1, RefS: 0.002}
	if got := s.norm(s.RunS); math.Abs(got-500*refSliceSeconds) > 1e-12 {
		t.Errorf("norm: %v, want %v", got, 500*refSliceSeconds)
	}
}

// TestProbeStaysOutOfRunTime runs the probe during a sleep: the probe
// must time its slices, and the CPU time it uses must not show in now.
func TestProbeStaysOutOfRunTime(t *testing.T) {
	pr := startProbe()
	t0 := now()
	time.Sleep(300 * time.Millisecond)
	t1 := now()
	if refS := pr.finish(); refS <= 0 || refS > 0.05 {
		t.Errorf("reference slice %v s", refS)
	}
	if d := t1.cpu - t0.cpu; d > 20*time.Millisecond {
		t.Errorf("an idle iteration used %v of CPU with the probe running", d)
	}
}

var metricLine = regexp.MustCompile(`^metric (\S+) (\S+) (\S+)`)

// TestEveryMetricEmitted runs each workload traced at tiny size through
// the command's own output path: every end-to-end and per-layer metric
// is printed with its unit, and the result line carries exactly the
// per-layer set.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		var out bytes.Buffer
		cfg := config{workload: w.name, seed: 1, seconds: 0.01, trace: true, size: tiny}
		if err := run(cfg, &out); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		printed := map[string]string{}
		for _, l := range lines {
			if m := metricLine.FindStringSubmatch(l); m != nil {
				printed[m[1]] = m[3]
			}
		}
		want := append(append(append([]metricDef{}, endToEnd...), workloadEndToEnd[w.name]...), perLayer...)
		want = append(want, metricDef{name: "failed_frac", unit: "ratio"})
		for _, m := range want {
			if unit, ok := printed[m.name]; !ok || unit != m.unit {
				t.Errorf("%s: metric %s printed with unit %q (present %v), want %q", w.name, m.name, unit, ok, m.unit)
			}
		}
		var res jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: result line: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: result %+v", w.name, res)
		}
		for _, m := range perLayer {
			if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
				t.Errorf("%s: result line metric %s = %+v", w.name, m.name, got)
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric catalogue
// in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	defs := func(ds []def) []metricDef {
		var out []metricDef
		for _, d := range ds {
			out = append(out, metricDef{d.Name, d.Unit, d.Better})
		}
		return out
	}
	if got := defs(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end %v, catalogue %v", got, endToEnd)
	}
	if got := defs(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, catalogue %v", got, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var defined []string
	for _, w := range workloads {
		defined = append(defined, w.name)
	}
	if !slices.Equal(names, defined) {
		t.Errorf("BENCHMARK.json workloads %v, defined %v", names, defined)
	}
}
