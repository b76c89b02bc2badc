// Command benchsnap turns `go test -bench -benchmem` output into a
// committed, stable-key JSON snapshot (BENCH_duetsim.json) and gates
// regressions against it — the repo's committed perf trajectory.
//
//	go test -bench ... -benchmem | benchsnap -out BENCH_duetsim.json   # refresh the snapshot
//	go test -bench ... -benchmem | benchsnap -check BENCH_duetsim.json # gate ns/op and allocs/op
//
// The snapshot maps benchmark name (GOMAXPROCS suffix stripped, so the
// key is machine-shape independent) to its measured ns/op, allocs/op and
// iteration count. Keys marshal sorted, so refreshing the snapshot
// produces a minimal diff. -check compares the piped run against the
// snapshot: a benchmark missing from the run, slower than the snapshot by
// more than -tolerance (default 0.30), or allocating more than 16 objects
// per op above the snapshot fails the gate. Allocation counts are nearly
// deterministic, so their slack only absorbs a few objects of run-to-run
// jitter. Every result line must carry the -benchmem columns. New
// benchmarks not yet in the snapshot are reported but pass — they gate
// only once committed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Entry is one benchmark's snapshot record.
type Entry struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Snapshot is the on-disk form: a name-to-entry map (sorted keys) under
// a versioned envelope so the format can grow fields without breaking
// old gates.
type Snapshot struct {
	Note       string           `json:"note"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// allocSlack is how many objects per op a run may allocate above the
// snapshot: the measured run-to-run jitter is at most 9 (ServeModel1M
// 324–331, ServeRecovery 6836–6845).
const allocSlack = 16

var snapshotNote = fmt.Sprintf("regenerate with scripts/bench.sh; CI gates ns/op (+30%%) and allocs/op (+%d objects) against this file (scripts/bench.sh check)", allocSlack)

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkServeModel1M-8   1   123456789 ns/op   16 B/op   7 allocs/op
//
// The -N GOMAXPROCS suffix is stripped from the captured name. Custom
// b.ReportMetric columns may sit between ns/op and the -benchmem pair.
var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op`)
	allocsCell = regexp.MustCompile(`\s(\d+) allocs/op`)
)

func parse(r io.Reader) (map[string]Entry, error) {
	out := make(map[string]Entry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchsnap: %q: %w", sc.Text(), err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchsnap: %q: %w", sc.Text(), err)
		}
		a := allocsCell.FindStringSubmatch(sc.Text())
		if a == nil {
			return nil, fmt.Errorf("benchsnap: %q: no allocs/op column (run with -benchmem)", sc.Text())
		}
		allocs, err := strconv.ParseInt(a[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchsnap: %q: %w", sc.Text(), err)
		}
		e := Entry{Iterations: iters, NsPerOp: ns, AllocsPerOp: allocs}
		// Repeated names (e.g. -count > 1): keep the fastest run, the
		// stablest estimate of the code's actual cost under CI noise,
		// and the largest allocation count, the top of its jitter.
		if prev, ok := out[m[1]]; ok {
			if prev.NsPerOp < e.NsPerOp {
				e.Iterations, e.NsPerOp = prev.Iterations, prev.NsPerOp
			}
			e.AllocsPerOp = max(e.AllocsPerOp, prev.AllocsPerOp)
		}
		out[m[1]] = e
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("benchsnap: no benchmark result lines on input (pipe `go test -bench` output)")
	}
	return out, nil
}

// check gates the run got against snap, printing one verdict line per
// benchmark to w, and reports whether every pinned benchmark passed.
func check(w io.Writer, snap Snapshot, got map[string]Entry, tolerance float64) bool {
	names := make([]string, 0, len(snap.Benchmarks))
	for name := range snap.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		base := snap.Benchmarks[name]
		cur, found := got[name]
		if !found {
			fmt.Fprintf(w, "FAIL %s: in snapshot but missing from this run\n", name)
			ok = false
			continue
		}
		ratio := cur.NsPerOp / base.NsPerOp
		verdict := "ok  "
		if ratio > 1+tolerance {
			verdict = "FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%s %s: %.0f ns/op vs snapshot %.0f (%+.1f%%, gate +%.0f%%)\n",
			verdict, name, cur.NsPerOp, base.NsPerOp, 100*(ratio-1), 100*tolerance)
		limit := base.AllocsPerOp + allocSlack
		verdict = "ok  "
		if cur.AllocsPerOp > limit {
			verdict = "FAIL"
			ok = false
		}
		fmt.Fprintf(w, "%s %s: %d allocs/op vs snapshot %d (gate %d)\n",
			verdict, name, cur.AllocsPerOp, base.AllocsPerOp, limit)
	}
	for name := range got {
		if _, found := snap.Benchmarks[name]; !found {
			fmt.Fprintf(w, "new  %s: %.0f ns/op (not in snapshot; refresh to gate it)\n", name, got[name].NsPerOp)
		}
	}
	return ok
}

func main() {
	outPath := flag.String("out", "", "write the snapshot of the piped run to `file`")
	checkPath := flag.String("check", "", "compare the piped run against snapshot `file` and fail on regression")
	tolerance := flag.Float64("tolerance", 0.30, "maximum allowed ns/op regression vs the snapshot (0.30 = +30%; allocs/op has its own fixed slack)")
	flag.Parse()
	if (*outPath == "") == (*checkPath == "") {
		fmt.Fprintln(os.Stderr, "benchsnap: exactly one of -out or -check is required")
		os.Exit(2)
	}
	got, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	if *outPath != "" {
		b, err := json.MarshalIndent(Snapshot{Note: snapshotNote, Benchmarks: got}, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*outPath, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchsnap: wrote %d benchmarks to %s\n", len(got), *outPath)
		return
	}
	data, err := os.ReadFile(*checkPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
		os.Exit(1)
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: parsing %s: %v\n", *checkPath, err)
		os.Exit(1)
	}
	if !check(os.Stdout, snap, got, *tolerance) {
		fmt.Printf("benchsnap: regression gate FAILED (tolerance +%.0f%% ns/op, +%d allocs/op)\n", 100**tolerance, allocSlack)
		os.Exit(1)
	}
	fmt.Printf("benchsnap: %d benchmarks within +%.0f%% ns/op and their allocs/op gates of %s\n", len(snap.Benchmarks), 100**tolerance, *checkPath)
}
