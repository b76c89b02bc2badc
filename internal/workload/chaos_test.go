package workload

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// chaosJSON renders a scenario outcome exactly as the golden files and
// `duetsim -json chaos` do.
func chaosJSON(t *testing.T, cr ChaosResult) []byte {
	t.Helper()
	b, err := json.MarshalIndent(cr, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestChaosGolden pins every named scenario's full outcome — counters,
// quantiles, and the fault-telemetry window series — against a golden
// file. Regenerate with UPDATE_GOLDEN=1 after an intentional change.
func TestChaosGolden(t *testing.T) {
	for _, name := range ChaosScenarioNames() {
		t.Run(name, func(t *testing.T) {
			cr, err := RunChaos(name, BackendModel, ChaosOverride{})
			if err != nil {
				t.Fatal(err)
			}
			got := chaosJSON(t, cr)
			path := filepath.Join("testdata", "chaos_"+name+".golden.json")
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
			if string(got) != string(want) {
				t.Errorf("scenario %s diverged from golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}

// TestChaosFaultActivity asserts each scenario actually exercises its
// fault class — a scenario that injects nothing would make the golden
// test vacuous.
func TestChaosFaultActivity(t *testing.T) {
	checks := map[string]func(ChaosResult) error{
		"wedge-storm": func(c ChaosResult) error {
			if c.Wedges == 0 || c.Retries == 0 || c.Quarantined == 0 {
				return fmt.Errorf("expected wedges/retries/quarantines, got %d/%d/%d", c.Wedges, c.Retries, c.Quarantined)
			}
			return nil
		},
		"shard-crash-rejoin": func(c ChaosResult) error {
			if c.Rerouted == 0 || c.Hedged == 0 {
				return fmt.Errorf("expected reroutes and hedges, got %d/%d", c.Rerouted, c.Hedged)
			}
			return nil
		},
		"deadline-burst": func(c ChaosResult) error {
			if c.TimedOut == 0 {
				return fmt.Errorf("expected timed-out jobs, got 0")
			}
			return nil
		},
		"quarantine-heal": func(c ChaosResult) error {
			if c.Wedges == 0 || c.Repairs == 0 {
				return fmt.Errorf("expected wedges and repairs, got %d/%d", c.Wedges, c.Repairs)
			}
			if c.QuarantineTime == 0 {
				return fmt.Errorf("repairs repaid no quarantine time")
			}
			return nil
		},
		"rack-outage": func(c ChaosResult) error {
			// The health-weighted front end steers around the down domain,
			// so nothing needs rerouting; the hedge pass still fires for
			// arrivals placed on the rack just ahead of its crash.
			if c.Hedged == 0 {
				return fmt.Errorf("expected hedged duplicates ahead of the domain crash, got 0")
			}
			return nil
		},
		"flapping-fabric": func(c ChaosResult) error {
			if c.Repairs < 2 || c.ProbationFails < 1 {
				return fmt.Errorf("expected repeated repairs with probation failures, got %d/%d", c.Repairs, c.ProbationFails)
			}
			return nil
		},
	}
	for _, name := range ChaosScenarioNames() {
		cr, err := RunChaos(name, BackendModel, ChaosOverride{})
		if err != nil {
			t.Fatal(err)
		}
		if err := checks[name](cr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if cr.Completed == 0 {
			t.Errorf("%s: no job completed", name)
		}
	}
}

// TestChaosBackendsAgree is the cross-backend half of the chaos
// contract: under an identical fault plan, the cycle-level and analytic
// model backends report byte-identical scenario outcomes — the same
// wedges, quarantines, retries, timeouts, reroutes, and the same
// latency quantiles, because the injection seam sits below the shared
// sched.Backend interface.
func TestChaosBackendsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-backend chaos runs are not short")
	}
	for _, name := range ChaosScenarioNames() {
		t.Run(name, func(t *testing.T) {
			model, err := RunChaos(name, BackendModel, ChaosOverride{})
			if err != nil {
				t.Fatal(err)
			}
			cycle, err := RunChaos(name, BackendCycle, ChaosOverride{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(model, cycle) {
				t.Errorf("cycle and model outcomes diverge:\n--- model ---\n%s\n--- cycle ---\n%s",
					chaosJSON(t, model), chaosJSON(t, cycle))
			}
		})
	}
}

// TestChaosStudyWidthInvariant runs the full scenario set at several
// study-pool widths and requires byte-identical outcomes — the chaos
// face of the repo-wide `-parallel` determinism contract.
func TestChaosStudyWidthInvariant(t *testing.T) {
	names := ChaosScenarioNames()
	base, err := ChaosStudy(1, names, BackendModel, ChaosOverride{})
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{2, 8} {
		got, err := ChaosStudy(width, names, BackendModel, ChaosOverride{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Errorf("outcomes at width %d diverge from width 1", width)
		}
	}
}
