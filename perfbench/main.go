// Command perfbench is the simulator's benchmark: one process runs one
// workload for a fixed host-time budget, checks every iteration's
// simulated outputs against a pinned reference, and prints each metric by
// name and unit, then one JSON result line. See README.md.
//
//	bash perfbench/run.sh --workload serve-cycle --seed 1 --seconds 30 --trace 0
//
// All timings are host time (what the simulator costs to run): the gated
// ones CPU time in reference seconds (calibrate.go), the per-layer ones wall
// time. Simulated times and counters are deterministic per seed and are
// checked, not timed.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees; perLayer come
// from the traced run. Both lists match BENCHMARK.json (a self-test
// checks it).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"sim_jobs_per_s", "1/s", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// workloadEndToEnd are end-to-end metrics that exist on one workload only;
// they are printed with the others but are not part of the result line.
var workloadEndToEnd = map[string][]metricDef{
	"paper-cycle":   {{"paper_err_pct", "%", "lower"}},
	"daemon-ingest": {{"submit_p50_us", "us", "lower"}, {"submit_p99_us", "us", "lower"}},
}

var perLayer = []metricDef{
	{"workload.gen_ns_per_arrival", "ns", "lower"},
	{"workload.gen_calls", "count", "lower"},
	{"cluster.producer_self_s", "s", "lower"},
	{"cluster.feed_wait_s", "s", "lower"},
	{"cluster.feed_wait_frac", "ratio", "lower"},
	{"cluster.shard_skew", "ratio", "lower"},
	{"cluster.shard_busy_s", "s", "lower"},
	{"cluster.replica_build_ms", "ms", "lower"},
	{"sched.self_s", "s", "lower"},
	{"sched.dispatches", "count", "lower"},
	{"sched.reconfigs", "count", "lower"},
	{"sched.reuse_ratio", "ratio", "higher"},
	{"sched.rejected", "count", "lower"},
	{"model.dispatch_ns", "ns", "lower"},
	{"model.backend_calls", "count", "lower"},
	{"core.cycle_dispatch_ns", "ns", "lower"},
	{"sim.drain_s", "s", "lower"},
	{"sim.drain_events", "count", "lower"},
	{"faults.seam_ns_per_dispatch", "ns", "lower"},
	{"faults.wedges", "count", "lower"},
	{"faults.retries", "count", "lower"},
	{"faults.repairs", "count", "higher"},
	{"faults.goodput", "ratio", "higher"},
	{"paper.fig9_point_ms", "ms", "lower"},
	{"paper.fig10_point_ms", "ms", "lower"},
	{"paper.fig11_point_ms", "ms", "lower"},
	{"paper.ablation_ms", "ms", "lower"},
	{"paper.fig12_tangent_ms", "ms", "lower"},
	{"paper.fig12_popcount_ms", "ms", "lower"},
	{"paper.fig12_sort32_ms", "ms", "lower"},
	{"paper.fig12_sort64_ms", "ms", "lower"},
	{"paper.fig12_sort128_ms", "ms", "lower"},
	{"paper.fig12_dijkstra_ms", "ms", "lower"},
	{"paper.fig12_barnes-hut_ms", "ms", "lower"},
	{"paper.fig12_pdes4_ms", "ms", "lower"},
	{"paper.fig12_bfs4_ms", "ms", "lower"},
	{"paper.fig12_bfs16_ms", "ms", "lower"},
	{"paper.fig9_noc_ps", "ps", "lower"},
	{"paper.fig9_cdc_ps", "ps", "lower"},
	{"paper.fig9_fast_ps", "ps", "lower"},
	{"paper.fig9_slow_ps", "ps", "lower"},
	{"daemon.submit_ns", "ns", "lower"},
	{"daemon.lookup_ns", "ns", "lower"},
	{"telemetry.scrape_us", "us", "lower"},
	{"daemon.drain_ms", "ms", "lower"},
	{"daemon.admitted", "count", "higher"},
	{"daemon.queue_full", "count", "lower"},
	{"daemon.overloaded", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// reference pins the output digest per "workload/size/seed".
//
//go:embed reference.json
var referenceJSON []byte

const (
	minMeasured = 3 // measured iterations per kind, whatever the budget
	// childEnv marks a child process: it runs one iteration and prints
	// its sample as JSON instead of measuring.
	childEnv = "PERFBENCH_CHILD"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     size
	pin      bool
}

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	var sizeName string
	fs.StringVar(&cfg.workload, "workload", "", "workload to run (paper-cycle, capacity-model, serve-cycle, daemon-ingest)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "host seconds of measured iterations")
	fs.IntVar(&traceFlag, "trace", 0, "1: alternate untraced and traced iterations and report per-layer metrics")
	fs.StringVar(&sizeName, "size", "full", "work per iteration: full or tiny")
	fs.BoolVar(&cfg.pin, "pin", false, "run one iteration and print its reference entry instead of measuring")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := findWorkload(cfg.workload); !ok {
		return cfg, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = traceFlag == 1
	switch sizeName {
	case "full":
		cfg.size = full
	case "tiny":
		cfg.size = tiny
	default:
		return cfg, fmt.Errorf("unknown size %q", sizeName)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	return cfg, nil
}

func refKey(w string, s size, seed int64) string { return fmt.Sprintf("%s/%s/%d", w, s, seed) }

// sample is one iteration as a child process reports it.
type sample struct {
	RunS, AllocMB, HeapMB, GCPauseMS float64 // RunS: CPU seconds from set-up to the last output
	SetupS                           float64 // CPU seconds from exec until the platform was built
	RefS                             float64 // mean CPU seconds of a reference slice during the run
	GCCycles                         uint32
	Jobs                             int
	Hash                             string
	Extra, Layer                     map[string]float64 // Layer: traced iterations only
	Err                              string
}

// norm is an iteration's CPU time t in reference seconds: t divided by
// the mean time of a reference slice during the iteration, times
// refSliceSeconds.
func (s sample) norm(t float64) float64 { return t / s.RefS * refSliceSeconds }

// report is a finished run: every metric by name, plus the check tally.
type report struct {
	correct           bool
	attempted, failed int
	values            map[string]float64
	counts            map[string]int // samples behind each timing
	runs, refs        []float64      // every untraced iteration's RunS and RefS
}

func run(cfg config, stdout io.Writer) error {
	w, _ := findWorkload(cfg.workload)
	p := params{seed: cfg.seed, size: cfg.size}
	refs := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return fmt.Errorf("reading reference.json: %w", err)
	}
	if cfg.pin {
		out, err := w.run(p, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%q: %q,\n", refKey(w.name, cfg.size, cfg.seed), out.hash)
		return nil
	}
	rep, err := measure(cfg, refs[refKey(w.name, cfg.size, cfg.seed)])
	if err != nil {
		return err
	}
	printReport(stdout, w, cfg, rep)
	return nil
}

// childMain runs one iteration in this process and prints its sample. A
// fresh process per iteration is what a duetsim user runs, and it keeps
// iterations independent: a finished Dolly instance's simulation threads
// park forever, so in one long-lived process every experiment would stay
// on the heap (about 60 MB per paper-cycle iteration).
func childMain(args []string, stdout io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w, _ := findWorkload(cfg.workload)
	s, err := iterate(w, params{seed: cfg.seed, size: cfg.size}, cfg.trace)
	if err != nil {
		s.Err = err.Error()
	}
	if err := json.NewEncoder(stdout).Encode(s); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// spawn runs one iteration in a child process and returns its sample.
func spawn(exe string, cfg config, traced bool) (sample, error) {
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--size", cfg.size.String(), "--trace", traceArg)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return sample{}, fmt.Errorf("iteration process: %w", err)
	}
	var s sample
	if err := json.Unmarshal(out, &s); err != nil {
		return sample{}, fmt.Errorf("iteration process output: %w", err)
	}
	if s.Err != "" {
		return s, errors.New(s.Err)
	}
	return s, nil
}

// measure runs iterations, each in a fresh child process, until the
// budget is spent; with cfg.trace it alternates untraced and traced ones.
// Every iteration's output digest is checked against ref (or, for an
// unpinned seed, against the first iteration's).
func measure(cfg config, ref string) (report, error) {
	rep := report{values: map[string]float64{}, counts: map[string]int{}}
	exe, err := os.Executable()
	if err != nil {
		return rep, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	want := ref
	var plain, traced []sample
	next := func(tr bool) {
		s, err := spawn(exe, cfg, tr)
		rep.attempted++
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: iteration failed:", err)
			rep.failed++
			return
		}
		if want == "" {
			want = s.Hash
		}
		if s.Hash != want {
			fmt.Fprintf(os.Stderr, "perfbench: output digest %s, want %s\n", s.Hash, want)
			rep.failed++
			return
		}
		if tr {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for rounds := 0; ; rounds++ {
		short := rep.attempted < 2*minMeasured && (len(plain) < minMeasured || (cfg.trace && len(traced) < minMeasured))
		// Once there are enough samples, start another round only if it
		// ends within the budget, at the mean round time so far.
		if !short && time.Since(start)*time.Duration(rounds+1)/time.Duration(rounds) > budget {
			break
		}
		next(false)
		if cfg.trace {
			next(true)
		}
	}
	rep.correct = rep.failed == 0
	if len(plain) == 0 {
		return rep, nil // nothing to time: the result line reports the failures
	}

	v := rep.values
	// Timings are medians over iterations in reference seconds (see norm).
	// The host's speed is not steady: other tenants of a shared host slow
	// the same work by up to 50% for seconds to minutes at a time, on the
	// CPU clock as much as on the wall clock. Reference slices timed in
	// the same process, during the run, slow with it; the ratio stays put.
	v["setup_s"] = median(pick(plain, func(s sample) float64 { return s.norm(s.SetupS) }))
	rep.counts["setup_s"] = len(plain)
	rep.runs = pick(plain, func(s sample) float64 { return s.RunS })
	rep.refs = pick(plain, func(s sample) float64 { return s.RefS })
	runS := median(pick(plain, func(s sample) float64 { return s.norm(s.RunS) }))
	v["run_s"] = runS
	rep.counts["run_s"] = len(plain)
	v["sim_jobs_per_s"] = float64(plain[0].Jobs) / runS
	v["peak_heap_mb"] = median(pick(plain, func(s sample) float64 { return s.HeapMB }))
	v["alloc_mb"] = median(pick(plain, func(s sample) float64 { return s.AllocMB }))
	for _, m := range workloadEndToEnd[cfg.workload] {
		v[m.name] = median(pick(plain, func(s sample) float64 { return s.Extra[m.name] }))
	}
	v["failed_frac"] = float64(rep.failed) / float64(rep.attempted)
	if cfg.trace {
		for _, m := range perLayer {
			v[m.name] = median(pick(traced, func(s sample) float64 { return s.Layer[m.name] }))
		}
		v["runtime.gc_cycles"] = median(pick(plain, func(s sample) float64 { return float64(s.GCCycles) }))
		v["runtime.gc_pause_ms"] = median(pick(plain, func(s sample) float64 { return s.GCPauseMS }))
		tracedS := median(pick(traced, func(s sample) float64 { return s.norm(s.RunS) }))
		v["trace.overhead_pct"] = 100 * (tracedS/runS - 1)
		rep.counts["traced_run_s"] = len(traced)
	}
	return rep, nil
}

var heapMetrics = []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/allocs:bytes"}}

// readHeap reads the live heap (as of the last GC) and the cumulative
// bytes allocated.
func readHeap() (live, allocs uint64) {
	metrics.Read(heapMetrics)
	return heapMetrics[0].Value.Uint64(), heapMetrics[1].Value.Uint64()
}

// iterate runs one iteration on one P, sampling the live heap every
// millisecond on a side goroutine it stops before returning. One P for
// every workload: on a shared 2-CPU host a second P puts the run at the
// mercy of whoever else uses the other CPU (README.md has the measured
// spreads).
func iterate(w benchWorkload, p params, traced bool) (sample, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, alloc0 := readHeap()

	stop, peakc := make(chan struct{}), make(chan uint64)
	go func() {
		var peak uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-stop:
				peakc <- peak
				return
			case <-tick.C:
				metrics.Read(m)
				peak = max(peak, m[0].Value.Uint64())
			}
		}
	}()

	var tr *trace
	if traced {
		tr = newTrace()
	}
	pr := startProbe()
	t0 := now()
	out, err := w.run(p, tr)
	end := now()
	refS := pr.finish()
	close(stop)
	peak := <-peakc
	live, alloc1 := readHeap()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	// Set-up ends, and run_s starts, once the platform is built.
	ready := t0
	if !out.built.wall.IsZero() {
		ready = out.built
	}

	s := sample{
		RunS:      (end.cpu - ready.cpu).Seconds(),
		SetupS:    ready.cpu.Seconds(),
		RefS:      refS,
		AllocMB:   float64(alloc1-alloc0) / 1e6,
		HeapMB:    float64(max(peak, live)) / 1e6,
		GCCycles:  ms1.NumGC - ms0.NumGC,
		GCPauseMS: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		Jobs:      out.jobs,
		Hash:      out.hash,
		Extra:     out.extra,
	}
	if tr != nil {
		s.Layer = tr.vals
	}
	return s, err
}

func pick(ss []sample, f func(sample) float64) []float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = f(s)
	}
	return v
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printReport prints the environment, every metric as "metric NAME VALUE
// UNIT", and last the JSON result line: the end-to-end metrics untraced,
// the per-layer metrics traced.
func printReport(out io.Writer, w benchWorkload, cfg config, rep report) {
	studyWidth := "-"
	if w.name == "paper-cycle" {
		studyWidth = "1"
	}
	fmt.Fprintf(out, "env workload=%s size=%s seed=%d nproc=%d gomaxprocs=1 go=%s study_width=%s shards=%d\n",
		w.name, cfg.size, cfg.seed, runtime.NumCPU(), runtime.Version(), studyWidth, w.shards)
	line := func(m metricDef) {
		n := ""
		if c, ok := rep.counts[m.name]; ok {
			n = " n=" + strconv.Itoa(c)
		}
		fmt.Fprintf(out, "metric %s %s %s%s\n", m.name, strconv.FormatFloat(rep.values[m.name], 'g', -1, 64), m.unit, n)
	}
	for _, m := range endToEnd {
		line(m)
	}
	for _, m := range workloadEndToEnd[w.name] {
		line(m)
	}
	line(metricDef{"failed_frac", "ratio", "lower"})
	for _, l := range []struct {
		name string
		v    []float64
	}{{"run_cpu_s", rep.runs}, {"ref_cpu_s", rep.refs}} {
		fmt.Fprint(out, "samples ", l.name)
		for _, r := range l.v {
			fmt.Fprintf(out, " %.4g", r)
		}
		fmt.Fprintln(out)
	}
	if cfg.trace {
		fmt.Fprintf(out, "traced iterations n=%d\n", rep.counts["traced_run_s"])
		for _, m := range perLayer {
			line(m)
		}
	}
	res := jsonResult{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, m := range defs {
		res.Metrics[m.name] = jsonMetric{Value: rep.values[m.name], Unit: m.unit}
	}
	b, _ := json.Marshal(res) // plain floats and strings cannot fail to encode
	fmt.Fprintln(out, string(b))
}
