package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"duet/internal/apps"
	"duet/internal/coherence"
	"duet/internal/sim"
	"duet/internal/workload"
)

// TestSamePath covers the -in/-out overlap guard: `-out F report -in F`
// must be rejected before os.Create truncates the input (the historical
// failure mode), in every spelling of "the same file".
func TestSamePath(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "series.json")
	if err := os.WriteFile(f, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}

	if !samePath(f, f) {
		t.Fatal("identical paths not detected")
	}
	// Different spellings of the same file.
	dotted := filepath.Join(dir, ".", "series.json")
	if !samePath(f, dotted) {
		t.Fatalf("cleaned spelling %q not matched to %q", dotted, f)
	}
	link := filepath.Join(dir, "link.json")
	if err := os.Symlink(f, link); err == nil {
		if !samePath(f, link) {
			t.Fatal("symlinked spelling not matched")
		}
	}

	other := filepath.Join(dir, "other.json")
	if err := os.WriteFile(other, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if samePath(f, other) {
		t.Fatal("distinct files reported as same")
	}
	// A not-yet-existing output never aliases an existing input.
	if samePath(filepath.Join(dir, "new.json"), f) {
		t.Fatal("nonexistent output matched existing input")
	}
}

// TestCheckPoolFlags covers the pool-size guard: values the commands
// used to replace silently with a default are refused up front.
func TestCheckPoolFlags(t *testing.T) {
	for _, ok := range [][3]int{{2, 4, 0}, {1, 1, 0}, {1, 1, 3}, {coherence.MaxCaches - 1, 1, 0}} {
		if err := checkPoolFlags(ok[0], ok[1], ok[2], workload.BackendCycle); err != nil {
			t.Fatalf("efpgas/shards/softcpus %v rejected: %v", ok, err)
		}
	}
	for _, bad := range [][3]int{{0, 4, 0}, {-1, 4, 0}, {2, 0, 0}, {2, -3, 0}, {2, 4, -1}, {coherence.MaxCaches, 1, 0}} {
		if err := checkPoolFlags(bad[0], bad[1], bad[2], workload.BackendCycle); err == nil {
			t.Fatalf("efpgas/shards/softcpus %v accepted", bad)
		}
	}
	// The analytic model builds no coherence domain.
	if err := checkPoolFlags(1000, 1, 0, workload.BackendModel); err != nil {
		t.Fatalf("-efpgas 1000 on the model backend rejected: %v", err)
	}
}

// TestParseJobs pins the documented -jobs forms and the values refused.
func TestParseJobs(t *testing.T) {
	for in, want := range map[string]int{
		"240": 240, "2.5k": 2500, "250M": 250_000_000, "1G": 1_000_000_000,
		"1B": 1_000_000_000, "1e9": 1_000_000_000, "0.5k": 500,
	} {
		if got, err := parseJobs(in); err != nil || got != want {
			t.Errorf("parseJobs(%q) = (%d, %v), want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"0", "-1", "1.5", "", "k", "NaN", "Inf", "9223372036854775807k", "1e19"} {
		if got, err := parseJobs(in); err == nil {
			t.Errorf("parseJobs(%q) = %d, want an error", in, got)
		}
	}
}

// FuzzParseJobs: an accepted count is positive, and a plain integer
// parses to itself.
func FuzzParseJobs(f *testing.F) {
	for _, s := range []string{"240", "2.5k", "250M", "1G", "1B", "1e9", "0.5k", "1.5", "NaN", "9223372036854775807k", "1e19"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := parseJobs(s)
		if err != nil {
			return
		}
		if got <= 0 {
			t.Fatalf("parseJobs(%q) accepted nonpositive %d", s, got)
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && int64(got) != n {
			t.Fatalf("parseJobs(%q) = %d, want %d", s, got, n)
		}
	})
}

// FuzzParseRepairDelay: an accepted delay is a whole number of
// microseconds in [0, sim.Forever], and its decimal microsecond count
// parses back to the same delay.
func FuzzParseRepairDelay(f *testing.F) {
	for _, s := range []string{"0", "500", "-1", "0x10", "1_000", "1e3", "4611686018427387", "4611686018427388", "9223372036854775807", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := parseRepairDelay(s)
		if err != nil {
			return
		}
		if d < 0 || d > sim.Forever || d%sim.US != 0 {
			t.Fatalf("parseRepairDelay(%q) accepted %d ps", s, d)
		}
		again, err := parseRepairDelay(strconv.FormatInt(int64(d/sim.US), 10))
		if err != nil || again != d {
			t.Fatalf("parseRepairDelay(%q) = %d ps, but its microsecond count parses to %d, %v", s, d, again, err)
		}
	})
}

// runQuiet runs one command line in process with stderr captured, and
// returns the exit code and what was printed there.
func runQuiet(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stderr = f
	code := run(args)
	os.Stderr = stderr
	if os.Stdout != stdout {
		t.Fatalf("run %q left os.Stdout redirected", args)
	}
	b, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(b)
}

// TestRunExitCodes drives the CLI in process: usage errors exit 2
// before any command runs, and flags parse the same wherever they sit.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	series := filepath.Join(dir, "series.json")
	if err := os.WriteFile(series, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"-h"}, 0},
		{[]string{"bogus"}, 2},
		{[]string{"-json", "table1"}, 2},
		{[]string{"-json", "fig9", "fig10"}, 2},
		{[]string{"-out", series, "report", "-in", series}, 2},
		{[]string{"-efpgas", "0", "serve"}, 2},
		{[]string{"-efpgas", "64", "serve"}, 2},
		{[]string{"-efpgas", "64", "-backend", "hybrid", "serve"}, 2},
		{[]string{"-jobs", "1.5", "serve"}, 2},
		{[]string{"-backend", "quantum", "serve"}, 2},
		{[]string{"-policy", "nope", "daemon"}, 2},
		{[]string{"-scenario", "nope", "chaos"}, 2},
		{[]string{"-repairdelay", "-1", "chaos"}, 2},
		{[]string{"-repairdelay", "9223372036854775807", "chaos"}, 2},
		{[]string{"chaos", "-nosuchflag"}, 2},
	} {
		if code, stderr := runQuiet(t, tc.args...); code != tc.code {
			t.Errorf("run %q exit %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr)
		}
	}
	if b, err := os.ReadFile(series); err != nil || string(b) != "keep" {
		t.Errorf("-out truncated -in: %q, %v", b, err)
	}

	names := workload.ChaosScenarioNames()
	list := filepath.Join(dir, "list.txt")
	if code, stderr := runQuiet(t, "-out", list, "-list", "chaos"); code != 0 {
		t.Fatalf("-list chaos exit %d; stderr:\n%s", code, stderr)
	}
	if b, _ := os.ReadFile(list); string(b) != strings.Join(names, "\n")+"\n" {
		t.Errorf("-list chaos printed %q", b)
	}
	before, after := filepath.Join(dir, "before.json"), filepath.Join(dir, "after.json")
	for _, args := range [][]string{
		{"-json", "-list", "-out", before, "chaos"},
		{"chaos", "-json", "-list", "-out", after},
	} {
		if code, stderr := runQuiet(t, args...); code != 0 {
			t.Fatalf("run %q exit %d; stderr:\n%s", args, code, stderr)
		}
	}
	b, _ := os.ReadFile(before)
	var doc struct{ Scenarios []string }
	if err := json.Unmarshal(b, &doc); err != nil || !slices.Equal(doc.Scenarios, names) {
		t.Errorf("-json -list chaos = %s (%v), want scenarios %q", b, err, names)
	}
	if a, _ := os.ReadFile(after); string(a) != string(b) {
		t.Errorf("flags after the command word printed %q, before it %q", a, b)
	}
}

// TestREADMEUsage keeps README's usage block equal to `duetsim -h`.
func TestREADMEUsage(t *testing.T) {
	var buf bytes.Buffer
	fs := flag.NewFlagSet("duetsim", flag.ContinueOnError)
	newOptions(fs)
	fs.SetOutput(&buf)
	usage(fs)
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(readme, buf.Bytes()) {
		t.Errorf("README.md lacks the current `duetsim -h` output; paste it from `go run ./cmd/duetsim -h`:\n%s", buf.String())
	}
}

// TestFig12FailedRowErrors: a row that fails its functional check is
// printed with the error in its check column, the table still prints in
// full, and the command returns an error naming every failed row (so
// `duetsim fig12` exits 1 on a broken accelerator).
func TestFig12FailedRowErrors(t *testing.T) {
	stub := func(name string, broken apps.Variant) apps.Benchmark {
		return apps.Benchmark{Name: name, Run: func(v apps.Variant) apps.Result {
			r := apps.Result{Name: name, Variant: v, Runtime: 1000, AreaMM2: 1}
			if v == broken {
				r.Err = errors.New("checksum mismatch")
			}
			return r
		}}
	}
	var out bytes.Buffer
	benches := []apps.Benchmark{
		stub("good", -1), stub("bad1", apps.VariantDuet), stub("bad2", apps.VariantDuet),
	}
	err := fig12Table(&out, apps.Fig12(1, benches))
	if err == nil {
		t.Fatal("failed rows returned no error")
	}
	for _, name := range []string{"bad1", "bad2"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name failed row %s", err, name)
		}
	}
	if strings.Contains(err.Error(), "good") {
		t.Errorf("error %q names the passing row", err)
	}
	table := out.String()
	if !strings.Contains(table, "checksum mismatch") || !strings.Contains(table, "Geomean") {
		t.Fatalf("table lacks the failed check or the geomean line:\n%s", table)
	}
	for _, line := range strings.Split(table, "\n") {
		if strings.HasPrefix(line, "good") && !strings.HasSuffix(strings.TrimSpace(line), "ok") {
			t.Errorf("passing row not marked ok: %q", line)
		}
	}
	if err := fig12Table(&out, apps.Fig12(1, benches[:1])); err != nil {
		t.Fatalf("all rows passed, got %v", err)
	}
}

// TestAblatePDESFailedRowErrors: a speculative-PDES row that fails its
// functional check is still printed, and the command then returns an
// error (so `duetsim ablate` exits 1).
func TestAblatePDESFailedRowErrors(t *testing.T) {
	var out bytes.Buffer
	err := pdesTable(&out, pdesRow{Error: "entity 3 diverged"})
	if err == nil || !strings.Contains(err.Error(), "entity 3 diverged") {
		t.Fatalf("failed row returned %v", err)
	}
	if !strings.Contains(out.String(), "error: entity 3 diverged") {
		t.Fatalf("table lacks the failed check:\n%s", out.String())
	}
	out.Reset()
	ok := pdesRow{ConservativePS: 2000, SpeculativePS: 1000, Speedup: 2}
	if err := pdesTable(&out, ok); err != nil {
		t.Fatalf("passing row returned %v", err)
	}
	if !strings.Contains(out.String(), "(2.00x;") {
		t.Fatalf("passing row not printed:\n%s", out.String())
	}
}
