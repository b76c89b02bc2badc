// Command duetsim regenerates the tables and figures of "Duet: Creating
// Harmony between Processors and Embedded FPGAs" (HPCA 2023) from live
// simulation, and runs the serving studies built on them. `duetsim -h`
// prints the command table and every flag.
//
// Every sweep (fig9, fig10, fig11, fig12, ablate, study, serve, cluster,
// xval, chaos) runs its grid of independent simulation points on the
// internal/study worker pool; -parallel bounds the pool (default
// GOMAXPROCS) and the output is byte-identical at every width. -json switches the sweep
// commands to machine-readable output with a stable field order; -stats
// stream runs serve/cluster with fixed-memory streaming latency stats;
// -backend selects the serve/cluster execution backend (cycle-level
// Dolly instances, the calibrated analytic model, or hybrid cycle + CPU
// soft-path spill).
//
// -windows N turns on the simulated-time flight recorder for serve and
// cluster: the run's span is split into N windows and every result
// carries a per-window telemetry series (internal/telemetry) — counters,
// per-worker busy time, queue high-water mark and p50/p99 sojourn per
// window. -out FILE redirects stdout to FILE; `report -in FILE` loads a
// saved run (full -json document, bare series array, or CSV) and prints
// per-window tables plus worst-window summaries, and `report -csv`
// re-emits the loaded series as CSV.
//
// `duetsim daemon` turns the simulator into a live service: an HTTP
// front door (POST /v1/jobs, GET /metrics) that maps wall-clock arrivals
// onto the simulated timeline and pushes them through the real
// scheduler; `duetsim loadgen` benchmarks it. See README for endpoints
// and flags.
//
// Absolute numbers come from this repository's cycle-level models; the
// paper's own numbers are printed alongside where published. README.md
// and PERF.md discuss paper-vs-measured.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"duet/internal/accel"
	"duet/internal/apps"
	"duet/internal/area"
	"duet/internal/cluster"
	"duet/internal/coherence"
	"duet/internal/faults"
	"duet/internal/sched"
	"duet/internal/sim"
	"duet/internal/telemetry"
	"duet/internal/workload"
)

func main() { os.Exit(run(os.Args[1:])) }

// command is one entry of the command table.
type command struct {
	name    string
	summary string
	sweep   bool // accepts -json: prints one machine-readable document
	run     func(*options) error
}

// commands is the command table: dispatch, usage, the -json check and
// `all` read it. It is filled in init because `all` dispatches through
// it, which a package-level initializer would make a cycle.
var commands []command

// allCommands are the paper's tables and figures, which `all` runs.
var allCommands = []string{"table1", "table2", "fig9", "fig10", "fig11", "fig12"}

func init() {
	commands = []command{
		{"table1", "area/frequency of Dolly hard components (Table I)", false, table1},
		{"table2", "soft accelerator synthesis results (Table II)", false, table2},
		{"fig9", "CPU-eFPGA communication latency breakdown", true, fig9},
		{"fig10", "single-processor bandwidth vs eFPGA clock", true, fig10},
		{"fig11", "per-processor bandwidth vs contention", true, fig11},
		{"fig12", "application speedups and ADP", false, fig12},
		{"ablate", "hub-window / CDC-depth / speculation ablations", true, ablations},
		{"ablations", "same as ablate", true, ablations},
		{"study", "fig9+fig10+fig11+ablations in one sweep", true, studyCmd},
		{"serve", "multi-tenant accelerator-as-a-service study", true, serve},
		{"cluster", "sharded serve farm across -shards serve replicas", true, clusterCmd},
		{"xval", "model-vs-cycle backend cross-validation gate", true, xval},
		{"chaos", "deterministic fault-injection scenarios", true, chaosCmd},
		{"report", "summarize a saved -windows series (-in FILE)", false, reportCmd},
		{"daemon", "live HTTP ingest server over the scheduler", false, daemonCmd},
		{"loadgen", "drive a running daemon with open/closed load", true, loadgenCmd},
		{"all", "the paper's tables and figures: " + strings.Join(allCommands, " "), false, runAll},
	}
}

// lookup returns the named command, or nil.
func lookup(name string) *command {
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == name })
	if i < 0 {
		return nil
	}
	return &commands[i]
}

// commandNames lists the table's command names, the sweep commands only
// when sweepOnly is set.
func commandNames(sweepOnly bool) string {
	var names []string
	for _, c := range commands {
		if c.sweep || !sweepOnly {
			names = append(names, c.name)
		}
	}
	return strings.Join(names, "|")
}

func runAll(o *options) error {
	for _, name := range allCommands {
		if err := lookup(name).run(o); err != nil {
			return err
		}
	}
	return nil
}

// options holds every flag's value; each flag binds into exactly one
// field. Commands copy the serve base and set only what differs.
type options struct {
	studyFlags
	serve    workload.ServeConfig // -seed -jobs -efpgas -stats -backend -softcpus -windows
	shards   int
	progress bool
	faults   faultFlags
	daemon   daemonFlags
	loadgen  loadgenFlags

	scenario, in, out      string
	list, csv              bool
	tolerance              float64
	cpuprofile, memprofile string
}

// studyFlags are the switches every sweep command shares.
type studyFlags struct {
	parallel int
	json     bool
	quick    bool
}

// faultFlags override a fault plan; chaos and daemon share them.
type faultFlags struct {
	repairDelay sim.Time // -repairdelay, given in simulated microseconds
	domains     string   // -domains, in faults.ParseDomains syntax
}

func newOptions(fs *flag.FlagSet) *options {
	o := &options{serve: workload.ServeConfig{Jobs: 240}}
	s := &o.serve
	fs.BoolVar(&o.quick, "quick", false, "smaller workloads (faster, less stable numbers)")
	fs.IntVar(&o.parallel, "parallel", 0, "study-pool width for sweep commands and fig12; 0 = GOMAXPROCS, output identical at every width")
	fs.BoolVar(&o.json, "json", false, "machine-readable output (stable field order) for sweep commands")

	fs.Int64Var(&s.Seed, "seed", 1, "serve/cluster: arrival-process seed (loadgen: app/tenant/gap seed)")
	fs.Func("jobs", fmt.Sprintf("serve/cluster/xval: `N` offered jobs; suffixes and scientific notation accepted (250M, 1e9, 2.5k) (default %d)", s.Jobs),
		func(v string) (err error) {
			s.Jobs, err = parseJobs(v)
			return err
		})
	fs.IntVar(&s.EFPGAs, "efpgas", 2, "serve/cluster: number of eFPGAs (per shard)")
	fs.TextVar(&s.Stats, "stats", sched.StatsExact, "serve/cluster latency stats, `exact|stream`: exact (every sojourn sample) or stream (fixed-memory digest)")
	fs.TextVar(&s.Backend, "backend", workload.BackendCycle, "serve/cluster execution backend, `cycle|model|hybrid`: cycle (Dolly instance), model (analytic fast path), hybrid (cycle + CPU soft-path spill)")
	fs.IntVar(&s.SoftCPUs, "softcpus", 0, "serve/cluster: CPU soft-path workers per replica (hybrid backend defaults to 1)")
	fs.IntVar(&s.Windows, "windows", 0, "serve/cluster: record a flight-recorder series over N simulated-time windows (0 = off)")

	fs.IntVar(&o.shards, "shards", 4, "cluster: number of Duet replicas")
	fs.BoolVar(&o.progress, "progress", false, "serve/cluster: print progress lines (jobs done, sim time, live heap) to stderr every 2s")

	fs.StringVar(&o.scenario, "scenario", "all", "chaos: named fault scenario (see chaos -list) or all")
	fs.BoolVar(&o.list, "list", false, "chaos: print the named scenarios and exit")
	fs.Func("repairdelay", "chaos/daemon: repair wedged fabrics after ~`N` simulated microseconds, with backoff (0 = quarantine is permanent)",
		func(v string) (err error) {
			o.faults.repairDelay, err = parseRepairDelay(v)
			return err
		})
	fs.StringVar(&o.faults.domains, "domains", "", "chaos/daemon: correlated failure domains, e.g. 'rack0=0+1@4000-9000;feedA=2@1000-2000~0.8'")

	fs.StringVar(&o.out, "out", "", "redirect stdout to `file` (report reads such files back with -in)")
	fs.StringVar(&o.in, "in", "", "report: load the series from `file` (default stdin)")
	fs.BoolVar(&o.csv, "csv", false, "report: re-emit the loaded series as CSV instead of tables")
	fs.Float64Var(&o.tolerance, "tolerance", workload.XValTolerance, "xval: maximum model-vs-cycle p50/p99 relative error before failing")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the executed commands to `file`")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile taken after the commands to `file`")

	o.daemon.bind(fs)
	o.loadgen.bind(fs)
	return o
}

// usageError is a mistake on the command line; it exits 2, not 1.
type usageError struct{ error }

func usagef(format string, a ...any) error { return usageError{fmt.Errorf(format, a...)} }

// run executes one command line and returns its exit code: 0 on
// success, 2 for a usage error, 1 for any other failure. Flags apply
// globally, wherever they appear: before, between or after the command
// words (`duetsim cluster -shards 4`).
func run(args []string) int {
	fs := flag.NewFlagSet("duetsim", flag.ContinueOnError)
	o := newOptions(fs)
	fs.Usage = func() { usage(fs) }
	var words []string
	for {
		if err := fs.Parse(args); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return 0
			}
			return 2 // the flag package has printed the error and usage
		}
		// A lone "-" is a word, not a flag: Parse leaves it unconsumed.
		for args = fs.Args(); len(args) > 0 && (args[0] == "-" || !strings.HasPrefix(args[0], "-")); args = args[1:] {
			words = append(words, args[0])
		}
		if len(args) == 0 {
			break
		}
	}
	if len(words) == 0 {
		fs.Usage()
		return 2
	}
	err := o.execute(words)
	if err == nil {
		return 0
	}
	fmt.Fprintf(os.Stderr, "duetsim: %v\n", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// execute checks the flag combination, then runs the command words in
// order through the command table, stopping at the first failure.
func (o *options) execute(words []string) (err error) {
	if err := checkPoolFlags(o.serve.EFPGAs, o.shards, o.serve.SoftCPUs, o.serve.Backend); err != nil {
		return usageError{err}
	}
	// -json promises one parseable document on stdout, so it pairs with
	// exactly one sweep command; the text-only commands and multi-command
	// runs would interleave tables or concatenate documents.
	if o.json {
		if len(words) != 1 {
			return usagef("-json takes exactly one command")
		}
		if c := lookup(words[0]); c == nil || !c.sweep {
			return usagef("-json is not supported with %q; use a sweep command (%s)", words[0], commandNames(true))
		}
	}
	// -out redirects everything the commands print — tables, -json
	// documents, CSV — while diagnostics stay on stderr. Reassigning
	// os.Stdout covers every print path without threading a writer
	// through each command.
	if o.out != "" {
		// os.Create truncates -out before any command runs, so `-out F
		// report -in F` would destroy the very file report is about to
		// read. Refuse the overlap instead of silently emptying the input.
		if o.in != "" && samePath(o.out, o.in) {
			return usagef("-out %q would truncate -in %q before report reads it; use a different output path", o.out, o.in)
		}
		f, err := os.Create(o.out)
		if err != nil {
			return fmt.Errorf("-out: %w", err)
		}
		stdout := os.Stdout
		os.Stdout = f
		defer func() {
			os.Stdout = stdout
			if cerr := f.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("-out: %w", cerr))
			}
		}()
	}
	// Profiling wraps only the command runs (flag parsing and usage errors
	// are excluded), so kernel regressions can be profiled straight from
	// the CLI: duetsim -cpuprofile cpu.out cluster; go tool pprof cpu.out
	// Profiles are flushed on every exit path, including command errors.
	stopProfiles, err := startProfiles(o.cpuprofile, o.memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			err = errors.Join(err, perr)
		}
	}()
	for _, w := range words {
		c := lookup(w)
		if c == nil {
			return usagef("unknown command %q (have %s)", w, commandNames(false))
		}
		if err := c.run(o); err != nil {
			return fmt.Errorf("%s: %w", w, err)
		}
	}
	return nil
}

// usage prints the command table and every flag.
func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprintln(w, "usage: duetsim [flags] command...")
	fmt.Fprintln(w, "\nCommands:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, c := range commands {
		fmt.Fprintf(tw, "  %s\t%s\n", c.name, c.summary)
	}
	tw.Flush()
	fmt.Fprintf(w, "\n-json takes exactly one sweep command: %s\n", commandNames(true))
	fmt.Fprintln(w, "\nFlags (global: before, between or after the command words):")
	fs.PrintDefaults()
}

// parseJobs parses the -jobs count: a plain integer, an integer or
// decimal with a scale suffix (2k, 250M, 1G, 1B — case-insensitive,
// B and G both a billion), or scientific notation (1e9, 2.5e7). The
// value must come out a positive whole number of jobs.
func parseJobs(s string) (int, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	if n := len(t); n > 0 {
		switch t[n-1] {
		case 'k', 'K':
			mult, t = 1e3, t[:n-1]
		case 'm', 'M':
			mult, t = 1e6, t[:n-1]
		case 'g', 'G', 'b', 'B':
			mult, t = 1e9, t[:n-1]
		}
	}
	var jobs int64
	if n, err := strconv.ParseInt(t, 10, 64); err == nil {
		if n != 0 && (n > math.MaxInt64/mult || n < math.MinInt64/mult) {
			return 0, fmt.Errorf("job count %q overflows", s)
		}
		jobs = n * mult
	} else {
		f, ferr := strconv.ParseFloat(t, 64)
		if ferr != nil {
			return 0, fmt.Errorf("cannot parse job count %q", s)
		}
		f *= float64(mult)
		if f != math.Trunc(f) {
			return 0, fmt.Errorf("job count %q is not a whole number of jobs", s)
		}
		if f >= math.MaxInt64 || f <= math.MinInt64 {
			return 0, fmt.Errorf("job count %q overflows", s)
		}
		jobs = int64(f)
	}
	if jobs <= 0 {
		return 0, fmt.Errorf("job count %q is not positive", s)
	}
	if jobs > math.MaxInt {
		return 0, fmt.Errorf("job count %q overflows", s)
	}
	return int(jobs), nil
}

// startProgress starts the -progress reporter: a background ticker
// printing a stderr line every 2 s with jobs delivered, the percentage
// of the expected total, the simulated-time high-water mark and the
// live heap. Returns the Progress sink to wire into run configs and a
// stop function that prints one final line; when off, both are no-ops
// (a nil *cluster.Progress disables every tap on the hot path).
func startProgress(enabled bool, total int) (*cluster.Progress, func()) {
	if !enabled {
		return nil, func() {}
	}
	p := &cluster.Progress{}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(2 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				printProgress(p, total)
			}
		}
	}()
	return p, func() {
		once.Do(func() {
			close(done)
			printProgress(p, total)
		})
	}
}

func printProgress(p *cluster.Progress, total int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	jobs := p.Jobs()
	pct := ""
	if total > 0 {
		pct = fmt.Sprintf(" (%.1f%%)", 100*float64(jobs)/float64(total))
	}
	fmt.Fprintf(os.Stderr, "progress: %d jobs%s, sim %v, heap %d MB\n",
		jobs, pct, p.SimAt(), ms.HeapAlloc>>20)
}

// checkPoolFlags rejects worker-pool sizes the commands would otherwise
// replace with a default behind the user's back: -efpgas and -shards
// must be positive, -softcpus non-negative. A cycle or hybrid backend
// also caps -efpgas at the caches one coherence domain holds.
func checkPoolFlags(efpgas, shards, softCPUs int, backend workload.BackendMode) error {
	switch {
	case efpgas <= 0:
		return fmt.Errorf("-efpgas must be positive, got %d", efpgas)
	case efpgas >= coherence.MaxCaches && backend != workload.BackendModel:
		return fmt.Errorf("-efpgas %d: a %s replica's core and %d hub caches exceed one coherence domain's %d caches", efpgas, backend, efpgas, coherence.MaxCaches)
	case shards <= 0:
		return fmt.Errorf("-shards must be positive, got %d", shards)
	case softCPUs < 0:
		return fmt.Errorf("-softcpus must be non-negative, got %d", softCPUs)
	}
	return nil
}

// parseRepairDelay converts -repairdelay from simulated microseconds. A
// negative delay would be ignored and one past sim.Forever would wrap
// negative, so both are refused.
func parseRepairDelay(s string) (sim.Time, error) {
	us, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("cannot parse %q as microseconds", s)
	}
	if maxUS := int64(sim.Forever / sim.US); us < 0 || us > maxUS {
		return 0, fmt.Errorf("repair delay %dus is outside [0, %d]", us, maxUS)
	}
	return sim.Time(us) * sim.US, nil
}

// samePath reports whether two paths name the same file: equal after
// cleaning, or resolving (via Stat) to the same inode — so "./x" vs "x"
// and symlinked spellings are both caught. Stat failures (e.g. the
// output does not exist yet) fall back to the lexical comparison.
func samePath(a, b string) bool {
	if filepath.Clean(a) == filepath.Clean(b) {
		return true
	}
	ia, errA := os.Stat(a)
	ib, errB := os.Stat(b)
	return errA == nil && errB == nil && os.SameFile(ia, ib)
}

// startProfiles begins CPU profiling and returns a flush function that
// stops the CPU profile and writes the heap profile. Empty paths disable
// the respective profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuF *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuF = f
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

// emitJSON prints one machine-readable document for a command. Field
// order tracks struct declaration order and enums marshal as their
// String names, so the bytes are stable per (flags, seed) — the contract
// the CI determinism job diffs across -parallel widths.
func emitJSON(v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	_, err = os.Stdout.Write(append(b, '\n'))
	return err
}

func table1(*options) error {
	header("Table I: Area and Typical Frequency of Dolly Components (published data + linear scaling model)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Component\tTechnology\tArea (mm2)\tFreq (MHz)\tScaled Area*\tScaled Freq*")
	for _, c := range area.TableI {
		fmt.Fprintf(w, "%s\t%s\t%.2f\t%.0f\t%.2f\t%.0f\n",
			c.Name, c.Technology, c.AreaMM2, c.FreqMHz, c.ScaledArea, c.ScaledFreq)
	}
	w.Flush()
	fmt.Println("* scaled to 45 nm with a linear MOSFET scaling model")
	return nil
}

func table2(*options) error {
	header("Table II: Clock Frequency and Area of Soft Accelerators (synthesis cost model vs paper)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Benchmark\tFmax model\tFmax paper\tNormArea model\tNormArea paper\tCLB model\tCLB paper\tBRAM model\tBRAM paper")
	reports := accel.TableII()
	for i, p := range accel.PaperTableII {
		m := reports[i]
		fmt.Fprintf(w, "%s\t%.0f MHz\t%.0f MHz\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
			p.Name, m.FmaxMHz, p.FmaxMHz, m.NormArea, p.NormArea, m.CLBUtil, p.CLBUtil, m.BRAMUtil, p.BRAMUtil)
	}
	w.Flush()
	fmt.Println("(Yosys/VTR/Catapult replaced by the calibrated cost model in internal/efpga/synth.go)")
	return nil
}

var fig9Freqs = []float64{100, 200, 500}

func fig9(o *options) error {
	rows := workload.Fig9P(o.parallel, fig9Freqs)
	if o.json {
		return emitJSON(struct {
			Fig9 []workload.Fig9Row `json:"fig9"`
		}{rows})
	}
	printFig9(rows)
	return nil
}

func printFig9(rows []workload.Fig9Row) {
	header("Fig. 9: CPU-eFPGA Communication Latency (Dolly-P1M1, single transaction; lower is better)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Mechanism\teFPGA MHz\tTotal\tNoC\tFastLogic\tSlowLogic\tCDC")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.0f\t%v\t%v\t%v\t%v\t%v\n",
			r.Mechanism, r.FreqMHz, r.Total,
			r.Breakdown[sim.CatNoC], r.Breakdown[sim.CatFast],
			r.Breakdown[sim.CatSlow], r.Breakdown[sim.CatCDC])
	}
	w.Flush()
	fmt.Println("Paper: proxy cuts CPU-pull latency 42-82%, eFPGA-pull 13-43%; shadow regs cut 50-80%.")
}

var fig10Freqs = []float64{20, 50, 100, 200, 500}

func fig10(o *options) error {
	rows := workload.Fig10P(o.parallel, fig10Freqs)
	if o.json {
		return emitJSON(struct {
			Fig10 []workload.Fig10Row `json:"fig10"`
		}{rows})
	}
	printFig10(rows, fig10Freqs)
	return nil
}

func printFig10(rows []workload.Fig10Row, freqs []float64) {
	header("Fig. 10: Processor-eFPGA Bandwidth vs eFPGA Clock (512 quad-words; higher is better)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "Mechanism")
	for _, f := range freqs {
		fmt.Fprintf(w, "\t%.0f MHz", f)
	}
	fmt.Fprintln(w)
	// Rows arrive mechanism-major in frequency order (the study grid).
	for m := workload.Mechanism(0); m < workload.NumMechanisms; m++ {
		fmt.Fprintf(w, "%s", m)
		for i := range freqs {
			fmt.Fprintf(w, "\t%.0f MB/s", rows[int(m)*len(freqs)+i].MBps)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Println("Paper peaks: eFPGA pull w/ proxy 558 MB/s (>=100MHz), CPU pull 201, shadow regs 213, normal regs 121 @500MHz.")
}

var fig11Counts = []int{1, 2, 4, 8, 16}

func fig11(o *options) error {
	rows := workload.Fig11P(o.parallel, fig11Counts)
	if o.json {
		return emitJSON(struct {
			Fig11 []workload.Fig11Row `json:"fig11"`
		}{rows})
	}
	printFig11(rows, fig11Counts)
	return nil
}

func printFig11(rows []workload.Fig11Row, counts []int) {
	header("Fig. 11: Per-Processor Bandwidth vs Contending Processors (eFPGA @500MHz)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "Series")
	for _, n := range counts {
		fmt.Fprintf(w, "\t%d procs", n)
	}
	fmt.Fprintln(w)
	for k := workload.ContentionKind(0); k < workload.NumContentionKinds; k++ {
		fmt.Fprintf(w, "%s", k)
		for i := range counts {
			fmt.Fprintf(w, "\t%.0f MB/s", rows[int(k)*len(counts)+i].PerProcMBps)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Println("Paper: shadow registers sustain ~8 processors; normal registers only ~2.")
}

// studyCmd sweeps every figure and ablation grid through one study pool
// and reports the combined results — the machine-readable regeneration
// target the CI determinism job diffs across -parallel widths.
func studyCmd(o *options) error {
	fig9F, fig10F := []float64{100, 500}, []float64{50, 200}
	counts := []int{1, 4, 8}
	windows, stages := []int{1, 2, 4, 8}, []int{2, 3, 4}
	if o.quick {
		fig9F, fig10F = []float64{100}, []float64{100}
		counts = []int{1, 8}
		windows, stages = []int{1, 8}, []int{2, 4}
	}
	doc := struct {
		Fig9     []workload.Fig9Row      `json:"fig9"`
		Fig10    []workload.Fig10Row     `json:"fig10"`
		Fig11    []workload.Fig11Row     `json:"fig11"`
		Ablation workload.AblationResult `json:"ablation"`
	}{
		Fig9:     workload.Fig9P(o.parallel, fig9F),
		Fig10:    workload.Fig10P(o.parallel, fig10F),
		Fig11:    workload.Fig11P(o.parallel, counts),
		Ablation: workload.Ablation(o.parallel, windows, stages, 100),
	}
	if o.json {
		return emitJSON(doc)
	}
	printFig9(doc.Fig9)
	printFig10(doc.Fig10, fig10F)
	printFig11(doc.Fig11, counts)
	printAblation(doc.Ablation)
	return nil
}

func fig12(o *options) error {
	header("Fig. 12: Application Benchmark Speedup and ADP (normalized to processor-only)")
	benches := apps.All()
	if o.quick {
		benches = benches[:7] // single-and-4-core benchmarks only
	}
	return fig12Table(os.Stdout, apps.Fig12(o.parallel, benches))
}

// fig12Table prints one Fig. 12 row per benchmark, then the geomeans. A
// row that fails its functional check shows the error in its check
// column, and once the table is out the returned error names every
// failed row.
func fig12Table(out io.Writer, rows []apps.Fig12Row) error {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Benchmark\tSpeedup Duet\tSpeedup FPSoC\tADP Duet\tADP FPSoC\tCPU runtime\tcheck")
	var failed []error
	for _, r := range rows {
		status := "ok"
		if r.Err != nil {
			status = r.Err.Error()
			failed = append(failed, r.Err)
		}
		fmt.Fprintf(w, "%s\t%.2fx\t%.2fx\t%.2f\t%.2f\t%v\t%s\n",
			r.Name, r.SpeedupDuet, r.SpeedupFPSoC, r.ADPDuet, r.ADPFPSoC, r.CPURuntime, status)
	}
	w.Flush() // once: every flush restarts the column widths
	sd, sf, ad, af := apps.Geomeans(rows)
	fmt.Fprintf(out, "\nGeomean: Duet %.2fx, FPSoC %.2fx; ADP Duet %.2f, FPSoC %.2f\n", sd, sf, ad, af)
	fmt.Fprintln(out, "Paper geomeans: Duet 4.53x, FPSoC 2.14x; ADP Duet 0.61, FPSoC 1.23.")
	if len(failed) > 0 {
		return fmt.Errorf("fig12: %d of %d rows failed their functional check: %w", len(failed), len(rows), errors.Join(failed...))
	}
	return nil
}

// servePolicies is the study's policy axis: the three classic policies,
// plus the hybrid spill policy when the replica has CPU soft-path
// workers for it to spill to.
func servePolicies(beMode workload.BackendMode) []sched.Policy {
	ps := []sched.Policy{sched.FIFO, sched.SJF, sched.Affinity}
	if beMode == workload.BackendHybrid {
		ps = append(ps, sched.Hybrid)
	}
	return ps
}

func serve(o *options) error {
	s := o.serve
	policies := servePolicies(s.Backend)
	prog, stopProgress := startProgress(o.progress, s.Jobs*len(policies))
	defer stopProgress()
	var cfgs []workload.ServeConfig
	for _, p := range policies {
		cfg := s
		cfg.Policy, cfg.Progress = p, prog
		cfgs = append(cfgs, cfg)
	}
	results := workload.ServeStudy(o.parallel, cfgs)
	stopProgress()
	if o.json {
		return emitJSON(struct {
			Serve []workload.ServeResult `json:"serve"`
		}{results})
	}
	header(fmt.Sprintf("Serve: multi-tenant accelerator-as-a-service (%d jobs, %d eFPGAs, seed %d, %s stats, %s backend)",
		s.Jobs, s.EFPGAs, s.Seed, s.Stats, s.Backend))
	fmt.Printf("App mix:")
	for _, a := range workload.ServeApps {
		fmt.Printf(" %s", a.Name)
	}
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Policy\tCompleted\tRejected\tThroughput\tp50\tp99\tMean wait\tReconfigs\tMissed DL\tFabric util")
	for _, r := range results {
		util := ""
		for i, f := range r.Fabrics {
			if i > 0 {
				util += " "
			}
			util += fmt.Sprintf("%.0f%%", 100*f.Utilization)
		}
		fmt.Fprintf(w, "%s\t%d/%d\t%d\t%.2f jobs/ms\t%v\t%v\t%v\t%d\t%d\t%s\n",
			r.Policy, r.Completed, r.Offered, r.Rejected, r.ThroughputPerMS,
			r.P50, r.P99, r.MeanWait, r.Reconfigs, r.DeadlineMisses, util)
	}
	w.Flush()
	fmt.Println("Reuse-aware placement avoids reprogramming; output is byte-identical per seed.")
	if s.Windows > 0 {
		fmt.Println("\nFlight recorder (worst windows per policy):")
		for _, r := range results {
			printWindowSummary(fmt.Sprintf("%v", r.Policy), r.Windows)
		}
	}
	return nil
}

// clusterRow is the machine-readable projection of a ClusterResult: the
// merged stats plus per-shard job counts, without the per-shard raw
// sample arrays.
type clusterRow struct {
	FrontEnd  cluster.FrontEnd     `json:"front_end"`
	Policy    sched.Policy         `json:"policy"`
	Backend   workload.BackendMode `json:"backend"`
	Shards    int                  `json:"shards"`
	Offered   int                  `json:"offered"`
	Merged    sched.Stats          `json:"merged"`
	ShardJobs []int                `json:"shard_jobs"`

	// Windows is the merged flight-recorder series (present only under
	// -windows); `duetsim report` extracts these arrays back out of the
	// document.
	Windows []telemetry.WindowRow `json:"windows,omitempty"`
}

// scalingRow is one step of the cluster throughput-scaling sweep.
type scalingRow struct {
	Shards          int      `json:"shards"`
	ThroughputPerMS float64  `json:"throughput_per_ms"`
	P99             sim.Time `json:"p99"`
	Speedup         float64  `json:"speedup"`
}

func toClusterRow(r workload.ClusterResult) clusterRow {
	row := clusterRow{
		FrontEnd: r.FrontEnd, Policy: r.Policy, Backend: r.Backend, Shards: r.Shards,
		Offered: r.Offered, Merged: r.Merged, Windows: r.Windows,
	}
	for _, s := range r.PerShard {
		row.ShardJobs = append(row.ShardJobs, s.Stats.Completed)
	}
	return row
}

func clusterCmd(o *options) error {
	s := o.serve
	// The front-end x policy table: one independent cluster per cell,
	// fanned out on the study pool (each cell spawns its own per-shard
	// goroutines inside its slot).
	var cfgs []workload.ClusterConfig
	for fe := cluster.FrontEnd(0); fe < cluster.NumFrontEnds; fe++ {
		for _, p := range servePolicies(s.Backend) {
			cfg := s
			cfg.Policy = p
			cfgs = append(cfgs, workload.ClusterConfig{ServeConfig: cfg, Shards: o.shards, FrontEnd: fe})
		}
	}
	// The scaling sweep drives a saturating offered load (5us mean gap,
	// deep admission queue): at the default gap one shard already keeps
	// up with arrivals, so added capacity would only show up in latency.
	// The flight recorder rides on the table cells only; the scaling
	// sweep repeats the same scenario at growing shard counts, so its
	// windows would only duplicate the table's series.
	scale := s
	scale.Policy, scale.MeanGapUS, scale.QueueCap, scale.Windows = sched.Affinity, 5, 1024, 0
	var scaleCfgs []workload.ClusterConfig
	for sh := 1; sh <= o.shards; sh *= 2 {
		scaleCfgs = append(scaleCfgs, workload.ClusterConfig{ServeConfig: scale, Shards: sh, FrontEnd: cluster.LeastOutstanding})
	}
	// The Progress sink tallies arrival deliveries across every study
	// point (hedge duplicates can push the count slightly past the
	// nominal total); it never influences results.
	prog, stopProgress := startProgress(o.progress, s.Jobs*(len(cfgs)+len(scaleCfgs)))
	defer stopProgress()
	for i := range cfgs {
		cfgs[i].ServeConfig.Progress = prog
	}
	for i := range scaleCfgs {
		scaleCfgs[i].ServeConfig.Progress = prog
	}
	table, err := workload.ClusterStudy(o.parallel, cfgs)
	if err != nil {
		return err
	}
	scaling, err := workload.ClusterStudy(o.parallel, scaleCfgs)
	if err != nil {
		return err
	}
	stopProgress()
	base := scaling[0].Merged.ThroughputPerMS
	var scaleRows []scalingRow
	for _, r := range scaling {
		scaleRows = append(scaleRows, scalingRow{
			Shards: r.Shards, ThroughputPerMS: r.Merged.ThroughputPerMS,
			P99: r.Merged.P99, Speedup: r.Merged.ThroughputPerMS / base,
		})
	}

	if o.json {
		var rows []clusterRow
		for _, r := range table {
			rows = append(rows, toClusterRow(r))
		}
		return emitJSON(struct {
			Cluster []clusterRow `json:"cluster"`
			Scaling []scalingRow `json:"scaling"`
		}{rows, scaleRows})
	}

	header(fmt.Sprintf("Cluster: sharded serve farm (%d jobs, %d shards x %d eFPGAs, seed %d, %s stats, %s backend)",
		s.Jobs, o.shards, s.EFPGAs, s.Seed, s.Stats, s.Backend))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Front end\tPolicy\tCompleted\tRejected\tThroughput\tp50\tp99\tMean wait\tReconfigs\tMissed DL\tShard jobs")
	for _, r := range table {
		perShard := ""
		for i, s := range r.PerShard {
			if i > 0 {
				perShard += "/"
			}
			perShard += fmt.Sprintf("%d", s.Stats.Completed)
		}
		m := r.Merged
		fmt.Fprintf(w, "%s\t%s\t%d/%d\t%d\t%.2f jobs/ms\t%v\t%v\t%v\t%d\t%d\t%s\n",
			r.FrontEnd, r.Policy, m.Completed, r.Offered, m.Rejected, m.ThroughputPerMS,
			m.P50, m.P99, m.MeanWait, m.Reconfigs, m.DeadlineMisses, perShard)
	}
	w.Flush()

	fmt.Println("\nThroughput scaling under saturating load (5us mean gap; affinity scheduling, least-outstanding front end):")
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Shards\tThroughput\tp99\tSpeedup")
	for _, r := range scaleRows {
		fmt.Fprintf(w, "%d\t%.2f jobs/ms\t%v\t%.2fx\n", r.Shards, r.ThroughputPerMS, r.P99, r.Speedup)
	}
	w.Flush()
	fmt.Println("Per (seed, shards, front end, policy) the table is byte-identical across runs;")
	fmt.Println("a 1-shard cluster reproduces `duetsim serve` exactly.")
	if s.Windows > 0 {
		fmt.Println("\nFlight recorder (worst windows per table cell):")
		for _, r := range table {
			printWindowSummary(fmt.Sprintf("%v/%v", r.FrontEnd, r.Policy), r.Windows)
		}
	}
	return nil
}

// printWindowSummary prints one labeled Summarize line for a recorded
// window series — the text-mode face of the flight recorder.
func printWindowSummary(label string, rows []telemetry.WindowRow) {
	s := telemetry.Summarize(rows)
	if s.Windows == 0 {
		fmt.Printf("  %s: no windows recorded\n", label)
		return
	}
	fmt.Printf("  %s: %d windows x %v; util mean %.0f%% peak %.0f%% (w%d); peak p99 %v (w%d); peak reconfigs %d (w%d); queue max %d; rejects %d; spills %d\n",
		label, s.Windows, s.Width, 100*s.MeanUtilization, 100*s.PeakUtilization, s.PeakUtilWindow,
		s.PeakP99, s.PeakP99Window, s.PeakReprograms, s.PeakReprogramsWin, s.QueueMax, s.Rejects, s.Spills)
}

// reportCmd loads a saved window series — a full -json study document, a
// bare series array, or report's own CSV — and prints each found series
// as a per-window table with a worst-window summary. -csv re-emits the
// series (exactly one must be present) in the stable CSV column order.
func reportCmd(o *options) error {
	var data []byte
	var err error
	if o.in == "" {
		if data, err = io.ReadAll(os.Stdin); err != nil {
			return fmt.Errorf("reading stdin: %w", err)
		}
	} else if data, err = os.ReadFile(o.in); err != nil {
		return err
	}
	found, err := telemetry.LoadSeries(data)
	if err != nil {
		return err
	}
	if o.csv {
		if len(found) != 1 {
			paths := make([]string, len(found))
			for i, fs := range found {
				paths[i] = fs.Path
			}
			return fmt.Errorf("-csv needs exactly one series, document has %d (%s)", len(found), strings.Join(paths, ", "))
		}
		return telemetry.WriteCSV(os.Stdout, found[0].Rows)
	}
	for _, fs := range found {
		label := fs.Path
		if label == "" {
			label = "series"
		}
		header(fmt.Sprintf("Flight recorder: %s", label))
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "Window\tStart\tArrivals\tDone\tFail\tRej\tReprog\tSpill\tQmax\tUtil\tp50\tp99")
		for _, r := range fs.Rows {
			fmt.Fprintf(w, "%d\t%v\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.0f%%\t%v\t%v\n",
				r.Window, r.Start, r.Arrivals, r.Completions, r.Failures, r.Rejects,
				r.Reprograms, r.Spills, r.QueueMax, 100*r.Utilization, r.P50, r.P99)
		}
		w.Flush()
		fmt.Println()
		printWindowSummary("summary", fs.Rows)
	}
	return nil
}

// errXValDiverged is xval's failing verdict, returned after the rows are
// printed.
var errXValDiverged = errors.New("model-vs-cycle divergence exceeds the tolerance")

// xval runs the backend cross-validation study: the serve grid on the
// cycle-level backend and on the analytic model backend, compared field
// by field. Returns errXValDiverged (after printing the offending rows)
// when any p50/p99 relative error exceeds the tolerance or the
// accounting counters diverge — the CI gate for the model backend's
// calibration.
func xval(o *options) error {
	// CrossValidate sets each side's backend itself (ignoring -backend),
	// and the grid fixes the soft-path pool and records no windows.
	s := o.serve
	s.SoftCPUs, s.Windows = 0, 0
	var cfgs []workload.ServeConfig
	for _, p := range []sched.Policy{sched.FIFO, sched.SJF, sched.Affinity, sched.Hybrid} {
		cfg := s
		cfg.Policy = p
		if p == sched.Hybrid {
			// A soft-path worker on both sides (hybrid Dolly vs analytic
			// replica), so the gate covers the CPU spill path too.
			cfg.SoftCPUs = 1
		}
		cfgs = append(cfgs, cfg)
	}
	rows := workload.CrossValidate(o.parallel, cfgs)
	ok := true
	for _, r := range rows {
		if !r.CountersMatch || r.P50RelErr > o.tolerance || r.P99RelErr > o.tolerance {
			ok = false
		}
	}
	if o.json {
		err := emitJSON(struct {
			XVal      []workload.XValRow `json:"xval"`
			Tolerance float64            `json:"tolerance"`
			Pass      bool               `json:"pass"`
		}{rows, o.tolerance, ok})
		if err == nil && !ok {
			err = errXValDiverged
		}
		return err
	}
	header(fmt.Sprintf("XVal: model-vs-cycle backend cross-validation (%d jobs, %d eFPGAs, seed %d, %s stats, tolerance %.2f%%)",
		s.Jobs, s.EFPGAs, s.Seed, s.Stats, 100*o.tolerance))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Policy\tCycle p50\tModel p50\tp50 err\tCycle p99\tModel p99\tp99 err\tCounters")
	for _, r := range rows {
		counters := "exact"
		if !r.CountersMatch {
			counters = "DIVERGED"
		}
		fmt.Fprintf(w, "%s\t%v\t%v\t%.4f%%\t%v\t%v\t%.4f%%\t%s\n",
			r.Policy, r.Cycle.P50, r.Model.P50, 100*r.P50RelErr,
			r.Cycle.P99, r.Model.P99, 100*r.P99RelErr, counters)
	}
	w.Flush()
	if !ok {
		fmt.Printf("FAIL: model-vs-cycle divergence exceeds the %.2f%% tolerance.\n", 100*o.tolerance)
		return errXValDiverged
	}
	fmt.Println("PASS: the analytic model backend reproduces the cycle-level backend within tolerance.")
	return nil
}

// chaosCmd runs the named fault scenarios of the deterministic chaos
// harness (internal/workload/chaos.go) and prints their outcome records.
// -scenario picks one scenario or "all"; -list enumerates the names;
// -repairdelay/-domains override each scenario's fault plan; -backend
// selects the execution backend (the fault plan injects below the
// Backend seam, so cycle and model runs produce identical outcomes —
// the property the golden tests and the CI chaos-smoke job pin).
func chaosCmd(o *options) error {
	names := workload.ChaosScenarioNames()
	if o.list {
		if o.json {
			return emitJSON(struct {
				Scenarios []string `json:"scenarios"`
			}{names})
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil
	}
	if o.scenario != "all" {
		if !slices.Contains(names, o.scenario) {
			return usagef("unknown chaos scenario %q (have %s)", o.scenario, strings.Join(names, ", "))
		}
		names = []string{o.scenario}
	}
	doms, err := faults.ParseDomains(o.faults.domains)
	if err != nil {
		return err
	}
	ov := workload.ChaosOverride{RepairDelay: o.faults.repairDelay, Domains: doms}
	results, err := workload.ChaosStudy(o.parallel, names, o.serve.Backend, ov)
	if err != nil {
		return err
	}
	if o.json {
		return emitJSON(struct {
			Chaos []workload.ChaosResult `json:"chaos"`
		}{results})
	}
	header(fmt.Sprintf("Chaos: deterministic fault scenarios (%s backend)", o.serve.Backend))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Scenario\tShards\tCompleted\tTimedOut\tUnavail\tWedges\tRetries\tQuar\tRepairs\tRerouted\tHedged\tGoodput\tAvail\tp99")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%d/%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.3f\t%v\n",
			r.Scenario, r.Shards, r.Completed, r.Offered, r.TimedOut, r.Unavailable,
			r.Wedges, r.Retries, r.Quarantined, r.Repairs, r.Rerouted, r.Hedged,
			r.Goodput, r.Availability, r.P99)
	}
	w.Flush()
	fmt.Println("Outcomes are byte-identical per scenario at any -parallel width and across -backend cycle|model.")
	return nil
}

// pdesRow is the machine-readable speculative-PDES ablation. Its runtimes
// are deterministic like every other row's, but it rides only in `ablate`
// output: keeping it out of the `study` document keeps that document
// byte-identical to what earlier versions printed.
type pdesRow struct {
	ConservativePS int64   `json:"conservative_ps"`
	SpeculativePS  int64   `json:"speculative_ps"`
	Speedup        float64 `json:"speedup"`
	SpecReleased   uint64  `json:"spec_released"`
	Squashed       uint64  `json:"squashed"`
	Error          string  `json:"error,omitempty"`
}

func runPDESAblation() pdesRow {
	cfg := apps.PDESSpecConfig{Cores: 8, Population: 6, Horizon: 1200, MinDelay: 1, Seed: 31}
	cons, _ := apps.RunPDESSpec(cfg)
	cfg.Speculate = true
	spec, sch := apps.RunPDESSpec(cfg)
	if cons.Err != nil || spec.Err != nil {
		return pdesRow{Error: fmt.Sprintf("%v %v", cons.Err, spec.Err)}
	}
	return pdesRow{
		ConservativePS: int64(cons.Runtime),
		SpeculativePS:  int64(spec.Runtime),
		Speedup:        float64(cons.Runtime) / float64(spec.Runtime),
		SpecReleased:   sch.SpecReleased,
		Squashed:       sch.Squashed,
	}
}

func ablations(o *options) error {
	res := workload.Ablation(o.parallel, nil, nil, 100)
	pdes := runPDESAblation()
	if o.json {
		if err := emitJSON(struct {
			Ablation workload.AblationResult `json:"ablation"`
			PDES     pdesRow                 `json:"speculative_pdes"`
		}{res, pdes}); err != nil {
			return err
		}
		return pdes.err()
	}
	header("Ablations: design choices behind the headline results")
	printAblation(res)
	return pdesTable(os.Stdout, pdes)
}

// err reports a row that failed its functional check.
func (r pdesRow) err() error {
	if r.Error == "" {
		return nil
	}
	return fmt.Errorf("ablate: the speculative PDES row failed its functional check: %s", r.Error)
}

// pdesTable prints the speculative-PDES row. Once it is out, a row that
// failed its functional check returns an error (so `duetsim ablate`
// exits 1).
func pdesTable(out io.Writer, r pdesRow) error {
	fmt.Fprintln(out, "Speculative PDES scheduler (paper §III-B2 extension; 8 cores, lookahead 1):")
	if r.Error != "" {
		fmt.Fprintf(out, "  error: %s\n", r.Error)
		return r.err()
	}
	fmt.Fprintf(out, "  conservative %v, speculative %v (%.2fx; %d speculative releases, %d squashes)\n",
		sim.Time(r.ConservativePS), sim.Time(r.SpeculativePS), r.Speedup, r.SpecReleased, r.Squashed)
	return nil
}

func printAblation(res workload.AblationResult) {
	fmt.Println("Proxy Cache in-flight window (eFPGA pull @100MHz; paper: the ceiling is set")
	fmt.Println("by the proxy's concurrent request capacity):")
	for _, r := range res.HubWindow {
		fmt.Printf("  %d outstanding: %6.0f MB/s\n", r.Outstanding, r.MBps)
	}
	fmt.Println("CDC synchronizer depth (normal-register write @100MHz; paper uses 2 stages):")
	for _, r := range res.SyncDepth {
		fmt.Printf("  %d stages: %v\n", r.Stages, r.Latency)
	}
}
