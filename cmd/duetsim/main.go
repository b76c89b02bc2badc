// Command duetsim regenerates the tables and figures of "Duet: Creating
// Harmony between Processors and Embedded FPGAs" (HPCA 2023) from live
// simulation:
//
//	duetsim table1          # area/frequency of Dolly hard components
//	duetsim table2          # soft accelerator synthesis results
//	duetsim fig9            # CPU-eFPGA communication latency breakdown
//	duetsim fig10           # single-processor bandwidth vs eFPGA clock
//	duetsim fig11           # per-processor bandwidth vs contention
//	duetsim fig12           # application speedups and ADP
//	duetsim ablate          # hub-window / CDC-depth / speculation ablations
//	duetsim serve           # multi-tenant accelerator-as-a-service study
//	duetsim cluster         # sharded serve farm across N serve replicas
//	duetsim xval            # model-vs-cycle backend cross-validation gate
//	duetsim chaos           # deterministic fault-injection scenarios
//	duetsim study           # fig9+fig10+fig11+ablations in one sweep
//	duetsim report          # summarize a saved -windows series (-in FILE)
//	duetsim daemon          # live HTTP ingest server over the scheduler
//	duetsim loadgen         # drive a running daemon with open/closed load
//	duetsim all             # the paper's tables and figures above
//
// Every sweep (fig9, fig10, fig11, ablate, study, serve, cluster, xval,
// chaos) runs its grid of independent simulation points on the internal/study
// worker pool; -parallel bounds the pool (default GOMAXPROCS) and the
// output is byte-identical at every width. -json switches the sweep
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
// paper's own numbers are printed alongside where published. See
// EXPERIMENTS.md for the paper-vs-measured discussion.
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
	"duet/internal/faults"
	"duet/internal/sched"
	"duet/internal/sim"
	"duet/internal/telemetry"
	"duet/internal/workload"
)

func main() {
	quick := flag.Bool("quick", false, "smaller workloads (faster, less stable numbers)")
	seed := flag.Int64("seed", 1, "serve/cluster: arrival-process seed")
	jobsFlag := flag.String("jobs", "240", "serve/cluster/xval: offered jobs; suffixes and scientific notation accepted (250M, 1e9, 2.5k)")
	efpgas := flag.Int("efpgas", 2, "serve/cluster: number of eFPGAs (per shard)")
	shards := flag.Int("shards", 4, "cluster: number of Duet replicas")
	parallel := flag.Int("parallel", 0, "study-pool width for sweep commands; 0 = GOMAXPROCS, output identical at every width")
	jsonOut := flag.Bool("json", false, "machine-readable output (stable field order) for sweep commands")
	statsMode := flag.String("stats", "exact", "serve/cluster latency stats: exact (per-job ledgers) or stream (fixed-memory digest)")
	backend := flag.String("backend", "cycle", "serve/cluster execution backend: cycle (Dolly instance), model (analytic fast path), hybrid (cycle + CPU soft-path spill)")
	softCPUs := flag.Int("softcpus", 0, "serve/cluster: CPU soft-path workers per replica (hybrid backend defaults to 1)")
	windows := flag.Int("windows", 0, "serve/cluster: record a flight-recorder series over N simulated-time windows (0 = off)")
	progress := flag.Bool("progress", false, "serve/cluster: print progress lines (jobs done, sim time, live heap) to stderr every 2s")
	lookahead := flag.Int("lookahead", 0, "cluster: streaming hand-off lookahead per shard for the stateful front ends — arrivals the router may run ahead of a shard (0 = default 4096; results identical at any bound)")
	scenario := flag.String("scenario", "all", "chaos: named fault scenario (see chaos -list) or all")
	chaosList := flag.Bool("list", false, "chaos: print the named scenarios and exit")
	outPath := flag.String("out", "", "redirect stdout to `file` (report reads such files back with -in)")
	inPath := flag.String("in", "", "report: load the series from `file` (default stdin)")
	csvOut := flag.Bool("csv", false, "report: re-emit the loaded series as CSV instead of tables")
	tolerance := flag.Float64("tolerance", workload.XValTolerance, "xval: maximum model-vs-cycle p50/p99 relative error before failing")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the executed commands to `file`")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the commands to `file`")
	listen := flag.String("listen", ":8080", "daemon: HTTP listen address")
	policy := flag.String("policy", "fifo", "daemon: scheduling policy (fifo|sjf|affinity|hybrid)")
	queueCap := flag.Int("queuecap", 0, "daemon: admission-queue bound (0 = default 64)")
	maxInflight := flag.Int("maxinflight", 0, "daemon: outstanding-job bound, 503 past it (0 = 4x queuecap)")
	timescale := flag.Float64("timescale", 1, "daemon: simulated seconds advanced per wall-clock second")
	windowMS := flag.Float64("windowms", 250, "daemon: telemetry window width in simulated milliseconds")
	wedgeProb := flag.Float64("wedgeprob", 0, "daemon: per-reprogram wedge probability (0 = no fault plan)")
	retries := flag.Int("retries", 2, "daemon: retry budget for wedge victims (with -wedgeprob)")
	faultSeed := flag.Int64("faultseed", 1, "daemon: fault-plan seed (with -wedgeprob)")
	repairDelay := flag.Int64("repairdelay", 0, "chaos/daemon: repair wedged fabrics after ~N simulated microseconds, with backoff (0 = quarantine is permanent)")
	domainsSpec := flag.String("domains", "", "chaos/daemon: correlated failure domains, e.g. 'rack0=0+1@4000-9000;feedA=2@1000-2000~0.8'")
	target := flag.String("target", "http://localhost:8080", "loadgen: daemon base URL")
	lgMode := flag.String("mode", "closed", "loadgen: closed (lockstep workers) or open (paced arrivals)")
	concurrency := flag.Int("concurrency", 8, "loadgen: closed-loop workers / open-loop in-flight cap")
	rate := flag.Float64("rate", 200, "loadgen: open-loop arrival rate in requests/s")
	duration := flag.Duration("duration", 5*time.Second, "loadgen: run length")
	requests := flag.Int("requests", 0, "loadgen: total request cap (0 = duration-bound)")
	appsSpec := flag.String("apps", "", "loadgen: comma-separated app mix (default: the daemon's catalog)")
	tenantsSpec := flag.String("tenants", "", "loadgen: weighted tenant mix, e.g. alpha:3,beta:1")
	lgTimeout := flag.Duration("timeout", 30*time.Second, "loadgen: per-request timeout")
	flag.Parse()
	// Accept flags after command words too (`duetsim cluster -shards 4`):
	// re-parse whenever a flag-like token follows a command. Flags apply
	// globally, wherever they appear.
	var cmds []string
	for args := flag.Args(); len(args) > 0; {
		// A lone "-" is not a flag (Parse would leave it unconsumed and
		// loop forever); let it fall through as an unknown command.
		if strings.HasPrefix(args[0], "-") && args[0] != "-" {
			if err := flag.CommandLine.Parse(args); err != nil {
				os.Exit(2)
			}
			args = flag.Args()
			continue
		}
		cmds = append(cmds, args[0])
		args = args[1:]
	}
	if len(cmds) == 0 {
		usage()
		os.Exit(2)
	}
	mode, err := sched.StatsModeByName(*statsMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "duetsim: %v\n", err)
		os.Exit(2)
	}
	jobs, err := parseJobs(*jobsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "duetsim: -jobs: %v\n", err)
		os.Exit(2)
	}
	beMode, err := workload.BackendModeByName(*backend)
	if err != nil {
		fmt.Fprintf(os.Stderr, "duetsim: %v\n", err)
		os.Exit(2)
	}
	if err := checkPoolFlags(*efpgas, *shards, *softCPUs); err != nil {
		fmt.Fprintf(os.Stderr, "duetsim: %v\n", err)
		os.Exit(2)
	}
	// -json promises one parseable document on stdout, so it pairs with
	// exactly one sweep command; the text-only commands and multi-command
	// runs would interleave tables or concatenate documents.
	if *jsonOut {
		if len(cmds) != 1 {
			fmt.Fprintln(os.Stderr, "duetsim: -json takes exactly one command")
			os.Exit(2)
		}
		switch cmds[0] {
		case "fig9", "fig10", "fig11", "ablate", "ablations", "study", "serve", "cluster", "xval", "chaos", "loadgen":
		default:
			fmt.Fprintf(os.Stderr, "duetsim: -json is not supported with %q; use a sweep command (fig9|fig10|fig11|ablate|study|serve|cluster|xval|chaos|loadgen)\n", cmds[0])
			os.Exit(2)
		}
	}
	// -out redirects everything the commands print — tables, -json
	// documents, CSV — while diagnostics stay on stderr. Reassigning
	// os.Stdout covers every print path below without threading a writer
	// through each command.
	closeOut := func() error { return nil }
	if *outPath != "" {
		// os.Create truncates -out before any command runs, so `-out F
		// report -in F` would destroy the very file report is about to
		// read. Refuse the overlap instead of silently emptying the input.
		if *inPath != "" && samePath(*outPath, *inPath) {
			fmt.Fprintf(os.Stderr, "duetsim: -out %q would truncate -in %q before report reads it; use a different output path\n", *outPath, *inPath)
			os.Exit(2)
		}
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "duetsim: -out: %v\n", err)
			os.Exit(1)
		}
		os.Stdout = f
		closeOut = f.Close
	}
	// Profiling wraps only the command runs (flag parsing and usage errors
	// are excluded), so kernel regressions can be profiled straight from
	// the CLI: duetsim -cpuprofile cpu.out cluster; go tool pprof cpu.out
	// Profiles are flushed on every exit path, including command errors.
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "duetsim: %v\n", err)
		os.Exit(1)
	}
	code := 0
loop:
	for _, cmd := range cmds {
		switch cmd {
		case "table1":
			table1()
		case "table2":
			table2()
		case "fig9":
			fig9(*parallel, *jsonOut)
		case "fig10":
			fig10(*parallel, *jsonOut)
		case "fig11":
			fig11(*parallel, *jsonOut)
		case "fig12":
			fig12(*quick)
		case "ablate", "ablations":
			ablations(*parallel, *jsonOut)
		case "study":
			studyCmd(*parallel, *quick, *jsonOut)
		case "serve":
			serve(*parallel, *seed, jobs, *efpgas, mode, beMode, *softCPUs, *windows, *progress, *jsonOut)
		case "cluster":
			if err := clusterCmd(*parallel, *seed, jobs, *efpgas, *shards, mode, beMode, *softCPUs, *windows, *progress, *lookahead, *jsonOut); err != nil {
				fmt.Fprintf(os.Stderr, "cluster: %v\n", err)
				code = 1
				break loop
			}
		case "report":
			if err := reportCmd(*inPath, *csvOut); err != nil {
				fmt.Fprintf(os.Stderr, "report: %v\n", err)
				code = 1
				break loop
			}
		case "daemon":
			if err := daemonCmd(daemonOpts{
				listen: *listen, backend: beMode, efpgas: *efpgas, softCPUs: *softCPUs,
				policy: *policy, queueCap: *queueCap, maxInflight: *maxInflight,
				timescale: *timescale, windowMS: *windowMS,
				wedgeProb: *wedgeProb, retries: *retries, faultSeed: *faultSeed,
				repairDelayUS: *repairDelay, domains: *domainsSpec,
			}); err != nil {
				fmt.Fprintf(os.Stderr, "daemon: %v\n", err)
				code = 1
				break loop
			}
		case "loadgen":
			if err := loadgenCmd(loadgenOpts{
				target: *target, mode: *lgMode, concurrency: *concurrency, rateHz: *rate,
				duration: *duration, requests: *requests, apps: *appsSpec,
				tenants: *tenantsSpec, seed: *seed, timeout: *lgTimeout, jsonOut: *jsonOut,
			}); err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
				code = 1
				break loop
			}
		case "xval":
			if !xval(*parallel, *seed, jobs, *efpgas, mode, *tolerance, *jsonOut) {
				code = 1
				break loop
			}
		case "chaos":
			if err := chaosCmd(*parallel, *scenario, *chaosList, *repairDelay, *domainsSpec, beMode, *jsonOut); err != nil {
				fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
				code = 1
				if errors.Is(err, errUnknownScenario) {
					code = 2
				}
				break loop
			}
		case "all":
			table1()
			table2()
			fig9(*parallel, false)
			fig10(*parallel, false)
			fig11(*parallel, false)
			fig12(*quick)
		default:
			fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
			usage()
			code = 2
			break loop
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "duetsim: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	if err := closeOut(); err != nil {
		fmt.Fprintf(os.Stderr, "duetsim: -out: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	if jsonFailed && code == 0 {
		code = 1
	}
	if code != 0 {
		os.Exit(code)
	}
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
// must be positive, -softcpus non-negative.
func checkPoolFlags(efpgas, shards, softCPUs int) error {
	switch {
	case efpgas <= 0:
		return fmt.Errorf("-efpgas must be positive, got %d", efpgas)
	case shards <= 0:
		return fmt.Errorf("-shards must be positive, got %d", shards)
	case softCPUs < 0:
		return fmt.Errorf("-softcpus must be non-negative, got %d", softCPUs)
	}
	return nil
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

func usage() {
	fmt.Fprintln(os.Stderr, "usage: duetsim [-quick] [-seed N] [-jobs N|250M|1e9] [-efpgas N] [-shards N] [-parallel N] [-json] [-stats exact|stream] [-backend cycle|model|hybrid] [-softcpus N] [-windows N] [-progress] [-lookahead N] [-scenario S] [-out F] [-in F] [-csv] [-tolerance F] [-cpuprofile F] [-memprofile F] {table1|table2|fig9|fig10|fig11|fig12|ablate|study|serve|cluster|xval|chaos|report|daemon|loadgen|all}...")
	fmt.Fprintln(os.Stderr, "  daemon flags: [-listen A] [-policy P] [-queuecap N] [-maxinflight N] [-timescale F] [-windowms F] [-backend ...] [-efpgas N] [-softcpus N] [-wedgeprob F] [-retries N] [-faultseed N] [-repairdelay N] [-domains S]")
	fmt.Fprintln(os.Stderr, "  chaos flags: [-scenario S|all] [-list] [-repairdelay N] [-domains S] [-parallel N] [-backend cycle|model] [-json]")
	fmt.Fprintln(os.Stderr, "  loadgen flags: [-target URL] [-mode closed|open] [-concurrency N] [-rate F] [-duration D] [-requests N] [-apps A,B] [-tenants a:3,b:1] [-timeout D] [-seed N] [-json]")
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

// jsonFailed records a marshal failure so main can exit nonzero after
// the profile flush (no os.Exit here: profiles are flushed on every
// exit path, including command errors).
var jsonFailed bool

// emitJSON prints one machine-readable document for a command. Field
// order tracks struct declaration order and enums marshal as their
// String names, so the bytes are stable per (flags, seed) — the contract
// the CI determinism job diffs across -parallel widths.
func emitJSON(v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "duetsim: -json: %v\n", err)
		jsonFailed = true
		return
	}
	os.Stdout.Write(append(b, '\n'))
}

func table1() {
	header("Table I: Area and Typical Frequency of Dolly Components (published data + linear scaling model)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Component\tTechnology\tArea (mm2)\tFreq (MHz)\tScaled Area*\tScaled Freq*")
	for _, c := range area.TableI {
		fmt.Fprintf(w, "%s\t%s\t%.2f\t%.0f\t%.2f\t%.0f\n",
			c.Name, c.Technology, c.AreaMM2, c.FreqMHz, c.ScaledArea, c.ScaledFreq)
	}
	w.Flush()
	fmt.Println("* scaled to 45 nm with a linear MOSFET scaling model")
}

func table2() {
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
}

var fig9Freqs = []float64{100, 200, 500}

func fig9(parallel int, jsonOut bool) {
	rows := workload.Fig9P(parallel, fig9Freqs)
	if jsonOut {
		emitJSON(struct {
			Fig9 []workload.Fig9Row `json:"fig9"`
		}{rows})
		return
	}
	printFig9(rows)
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

func fig10(parallel int, jsonOut bool) {
	rows := workload.Fig10P(parallel, fig10Freqs)
	if jsonOut {
		emitJSON(struct {
			Fig10 []workload.Fig10Row `json:"fig10"`
		}{rows})
		return
	}
	printFig10(rows, fig10Freqs)
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

func fig11(parallel int, jsonOut bool) {
	rows := workload.Fig11P(parallel, fig11Counts)
	if jsonOut {
		emitJSON(struct {
			Fig11 []workload.Fig11Row `json:"fig11"`
		}{rows})
		return
	}
	printFig11(rows, fig11Counts)
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
func studyCmd(parallel int, quick, jsonOut bool) {
	fig9F, fig10F := []float64{100, 500}, []float64{50, 200}
	counts := []int{1, 4, 8}
	windows, stages := []int{1, 2, 4, 8}, []int{2, 3, 4}
	if quick {
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
		Fig9:     workload.Fig9P(parallel, fig9F),
		Fig10:    workload.Fig10P(parallel, fig10F),
		Fig11:    workload.Fig11P(parallel, counts),
		Ablation: workload.Ablation(parallel, windows, stages, 100),
	}
	if jsonOut {
		emitJSON(doc)
		return
	}
	printFig9(doc.Fig9)
	printFig10(doc.Fig10, fig10F)
	printFig11(doc.Fig11, counts)
	printAblation(doc.Ablation)
}

func fig12(quick bool) {
	header("Fig. 12: Application Benchmark Speedup and ADP (normalized to processor-only)")
	benches := apps.All()
	if quick {
		benches = benches[:7] // single-and-4-core benchmarks only
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Benchmark\tSpeedup Duet\tSpeedup FPSoC\tADP Duet\tADP FPSoC\tCPU runtime\tcheck")
	var rows []apps.Fig12Row
	for _, b := range benches {
		r := apps.RunOne(b)
		rows = append(rows, r)
		status := "ok"
		if r.Err != nil {
			status = r.Err.Error()
		}
		fmt.Fprintf(w, "%s\t%.2fx\t%.2fx\t%.2f\t%.2f\t%v\t%s\n",
			r.Name, r.SpeedupDuet, r.SpeedupFPSoC, r.ADPDuet, r.ADPFPSoC, r.CPURuntime, status)
	}
	w.Flush() // once: every flush restarts the column widths
	sd, sf, ad, af := apps.Geomeans(rows)
	fmt.Printf("\nGeomean: Duet %.2fx, FPSoC %.2fx; ADP Duet %.2f, FPSoC %.2f\n", sd, sf, ad, af)
	fmt.Println("Paper geomeans: Duet 4.53x, FPSoC 2.14x; ADP Duet 0.61, FPSoC 1.23.")
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

func serve(parallel int, seed int64, jobs, efpgas int, mode sched.StatsMode, beMode workload.BackendMode, softCPUs, windows int, progress, jsonOut bool) {
	policies := servePolicies(beMode)
	prog, stopProgress := startProgress(progress, jobs*len(policies))
	defer stopProgress()
	var cfgs []workload.ServeConfig
	for _, p := range policies {
		cfgs = append(cfgs, workload.ServeConfig{
			Policy: p, Seed: seed, Jobs: jobs, EFPGAs: efpgas, Stats: mode,
			Backend: beMode, SoftCPUs: softCPUs, Windows: windows,
			Progress: prog,
		})
	}
	results := workload.ServeStudy(parallel, cfgs)
	stopProgress()
	if jsonOut {
		emitJSON(struct {
			Serve []workload.ServeResult `json:"serve"`
		}{results})
		return
	}
	header(fmt.Sprintf("Serve: multi-tenant accelerator-as-a-service (%d jobs, %d eFPGAs, seed %d, %s stats, %s backend)",
		jobs, efpgas, seed, mode, beMode))
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
	if windows > 0 {
		fmt.Println("\nFlight recorder (worst windows per policy):")
		for _, r := range results {
			printWindowSummary(fmt.Sprintf("%v", r.Policy), r.Windows)
		}
	}
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

func clusterCmd(parallel int, seed int64, jobs, efpgas, shards int, mode sched.StatsMode, beMode workload.BackendMode, softCPUs, windows int, progress bool, lookahead int, jsonOut bool) error {
	// The front-end x policy table: one independent cluster per cell,
	// fanned out on the study pool (each cell spawns its own per-shard
	// goroutines inside its slot).
	// The flight recorder rides on the table cells only; the scaling
	// sweep repeats the same scenario at growing shard counts, so its
	// windows would only duplicate the table's series.
	var cfgs []workload.ClusterConfig
	for fe := cluster.FrontEnd(0); fe < cluster.NumFrontEnds; fe++ {
		for _, p := range servePolicies(beMode) {
			cfgs = append(cfgs, workload.ClusterConfig{
				ServeConfig: workload.ServeConfig{
					Policy: p, Seed: seed, Jobs: jobs, EFPGAs: efpgas, Stats: mode,
					Backend: beMode, SoftCPUs: softCPUs, Windows: windows,
				},
				Shards:   shards,
				FrontEnd: fe,
				Handoff:  lookahead,
			})
		}
	}
	// The scaling sweep drives a saturating offered load (5us mean gap,
	// deep admission queue): at the default gap one shard already keeps
	// up with arrivals, so added capacity would only show up in latency.
	var scaleCfgs []workload.ClusterConfig
	for sh := 1; sh <= shards; sh *= 2 {
		scaleCfgs = append(scaleCfgs, workload.ClusterConfig{
			ServeConfig: workload.ServeConfig{
				Policy: sched.Affinity, Seed: seed, Jobs: jobs, EFPGAs: efpgas,
				MeanGapUS: 5, QueueCap: 1024, Stats: mode,
				Backend: beMode, SoftCPUs: softCPUs,
			},
			Shards:   sh,
			FrontEnd: cluster.LeastOutstanding,
			Handoff:  lookahead,
		})
	}
	// The Progress sink tallies arrival deliveries across every study
	// point (hedge duplicates can push the count slightly past the
	// nominal total); it never influences results.
	prog, stopProgress := startProgress(progress, jobs*(len(cfgs)+len(scaleCfgs)))
	defer stopProgress()
	for i := range cfgs {
		cfgs[i].ServeConfig.Progress = prog
	}
	for i := range scaleCfgs {
		scaleCfgs[i].ServeConfig.Progress = prog
	}
	table, err := workload.ClusterStudy(parallel, cfgs)
	if err != nil {
		return err
	}
	scaling, err := workload.ClusterStudy(parallel, scaleCfgs)
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

	if jsonOut {
		var rows []clusterRow
		for _, r := range table {
			rows = append(rows, toClusterRow(r))
		}
		emitJSON(struct {
			Cluster []clusterRow `json:"cluster"`
			Scaling []scalingRow `json:"scaling"`
		}{rows, scaleRows})
		return nil
	}

	header(fmt.Sprintf("Cluster: sharded serve farm (%d jobs, %d shards x %d eFPGAs, seed %d, %s stats, %s backend)",
		jobs, shards, efpgas, seed, mode, beMode))
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
	if windows > 0 {
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
func reportCmd(inPath string, csvOut bool) error {
	var data []byte
	var err error
	if inPath == "" {
		if data, err = io.ReadAll(os.Stdin); err != nil {
			return fmt.Errorf("reading stdin: %w", err)
		}
	} else if data, err = os.ReadFile(inPath); err != nil {
		return err
	}
	found, err := telemetry.LoadSeries(data)
	if err != nil {
		return err
	}
	if csvOut {
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

// xval runs the backend cross-validation study: the serve grid on the
// cycle-level backend and on the analytic model backend, compared field
// by field. Returns false (after printing the offending rows) when any
// p50/p99 relative error exceeds the tolerance or the accounting
// counters diverge — the CI gate for the model backend's calibration.
func xval(parallel int, seed int64, jobs, efpgas int, mode sched.StatsMode, tolerance float64, jsonOut bool) bool {
	var cfgs []workload.ServeConfig
	for _, p := range []sched.Policy{sched.FIFO, sched.SJF, sched.Affinity} {
		cfgs = append(cfgs, workload.ServeConfig{
			Policy: p, Seed: seed, Jobs: jobs, EFPGAs: efpgas, Stats: mode,
		})
	}
	// The hybrid row gets a soft-path worker on both sides (hybrid Dolly
	// vs analytic replica), so the gate covers the CPU spill path too.
	cfgs = append(cfgs, workload.ServeConfig{
		Policy: sched.Hybrid, Seed: seed, Jobs: jobs, EFPGAs: efpgas, Stats: mode, SoftCPUs: 1,
	})
	rows := workload.CrossValidate(parallel, cfgs)
	ok := true
	for _, r := range rows {
		if !r.CountersMatch || r.P50RelErr > tolerance || r.P99RelErr > tolerance {
			ok = false
		}
	}
	if jsonOut {
		emitJSON(struct {
			XVal      []workload.XValRow `json:"xval"`
			Tolerance float64            `json:"tolerance"`
			Pass      bool               `json:"pass"`
		}{rows, tolerance, ok})
		return ok
	}
	header(fmt.Sprintf("XVal: model-vs-cycle backend cross-validation (%d jobs, %d eFPGAs, seed %d, %s stats, tolerance %.2f%%)",
		jobs, efpgas, seed, mode, 100*tolerance))
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
	if ok {
		fmt.Println("PASS: the analytic model backend reproduces the cycle-level backend within tolerance.")
	} else {
		fmt.Printf("FAIL: model-vs-cycle divergence exceeds the %.2f%% tolerance.\n", 100*tolerance)
	}
	return ok
}

// errUnknownScenario marks a -scenario value that names no chaos
// scenario; main maps it to exit code 2 (usage error, not a run
// failure) after printing the valid names.
var errUnknownScenario = errors.New("unknown chaos scenario")

// chaosCmd runs the named fault scenarios of the deterministic chaos
// harness (internal/workload/chaos.go) and prints their outcome records.
// -scenario picks one scenario or "all"; -list enumerates the names;
// -repairdelay/-domains override each scenario's fault plan; -backend
// selects the execution backend (the fault plan injects below the
// Backend seam, so cycle and model runs produce identical outcomes —
// the property the golden tests and the CI chaos-smoke job pin).
func chaosCmd(parallel int, scenario string, list bool, repairDelayUS int64, domainsSpec string, beMode workload.BackendMode, jsonOut bool) error {
	names := workload.ChaosScenarioNames()
	if list {
		if jsonOut {
			emitJSON(struct {
				Scenarios []string `json:"scenarios"`
			}{names})
			return nil
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil
	}
	if scenario != "all" {
		if !slices.Contains(names, scenario) {
			return fmt.Errorf("%w %q (have %s)", errUnknownScenario, scenario, strings.Join(names, ", "))
		}
		names = []string{scenario}
	}
	ov := workload.ChaosOverride{RepairDelay: sim.Time(repairDelayUS) * sim.US}
	if strings.TrimSpace(domainsSpec) != "" {
		doms, err := faults.ParseDomains(domainsSpec)
		if err != nil {
			return err
		}
		ov.Domains = doms
	}
	results, err := workload.ChaosStudyOverride(parallel, names, beMode, ov)
	if err != nil {
		return err
	}
	if jsonOut {
		emitJSON(struct {
			Chaos []workload.ChaosResult `json:"chaos"`
		}{results})
		return nil
	}
	header(fmt.Sprintf("Chaos: deterministic fault scenarios (%s backend)", beMode))
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

// pdesRow is the machine-readable speculative-PDES ablation. Unlike the
// study-pool sweeps its runtimes are not run-to-run stable (the PDES
// scheduler's timing wobbles a little across processes), so it rides in
// `ablate` output but is deliberately excluded from the `study` document
// the CI determinism job diffs.
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

func ablations(parallel int, jsonOut bool) {
	res := workload.Ablation(parallel, nil, nil, 100)
	pdes := runPDESAblation()
	if jsonOut {
		emitJSON(struct {
			Ablation workload.AblationResult `json:"ablation"`
			PDES     pdesRow                 `json:"speculative_pdes"`
		}{res, pdes})
		return
	}
	header("Ablations: design choices behind the headline results")
	printAblation(res)
	fmt.Println("Speculative PDES scheduler (paper §III-B2 extension; 8 cores, lookahead 1):")
	if pdes.Error != "" {
		fmt.Printf("  error: %s\n", pdes.Error)
		return
	}
	fmt.Printf("  conservative %v, speculative %v (%.2fx; %d speculative releases, %d squashes)\n",
		sim.Time(pdes.ConservativePS), sim.Time(pdes.SpeculativePS), pdes.Speedup, pdes.SpecReleased, pdes.Squashed)
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
