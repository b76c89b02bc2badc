// Package apps implements the seven application benchmarks of the paper's
// evaluation (§V-D), each in three variants: the processor-only baseline
// (real code over the simulated memory system, including MCS locks and
// barriers where the paper's baselines use them), the Duet version, and
// the FPSoC baseline (same accelerator, slow-domain FPGA-side cache,
// normal registers). Every run checks functional correctness against a
// host-computed reference before reporting time.
//
// One harness (harness.run) builds, runs, checks and costs all three
// variants the same way, so the Fig. 12 comparison is like for like: it
// maps the variant to its duet.Config, installs the variant's bitstream,
// runs the system with its coherence check, and charges the silicon area
// once the functional check has passed. Each driver keeps only what is
// its own: input generation, the per-core programs and the functional
// check against the host reference.
package apps

import (
	"fmt"

	"duet"
	"duet/internal/area"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/sim"
	"duet/internal/study"
)

// Variant selects the system organization a benchmark runs on.
type Variant int

// Benchmark variants.
const (
	VariantCPU Variant = iota
	VariantDuet
	VariantFPSoC
)

func (v Variant) String() string {
	return [...]string{"CPU", "Duet", "FPSoC"}[v]
}

// Result is one benchmark execution.
type Result struct {
	Name    string
	Variant Variant
	Runtime sim.Time // measured kernel region
	AreaMM2 float64  // total silicon area of the configuration
	Err     error    // functional check outcome
}

// Benchmark describes one column of Fig. 12.
type Benchmark struct {
	Name     string
	Paradigm string // "FG" (fine-grained) or "HA" (hardware augmentation)
	Instance string // Dolly instance, e.g. "P1M2"
	Run      func(v Variant) Result
}

// All returns the paper's benchmark set in Fig. 12 order. The sizes are
// scaled for simulation speed; Sizes in the bench harness can override.
func All() []Benchmark {
	return []Benchmark{
		{Name: "tangent", Paradigm: "FG", Instance: "P1M0", Run: func(v Variant) Result { return RunTangent(v, DefaultTangentConfig()) }},
		{Name: "popcount", Paradigm: "FG", Instance: "P1M1", Run: func(v Variant) Result { return RunPopcount(v, DefaultPopcountConfig()) }},
		{Name: "sort/32", Paradigm: "FG", Instance: "P1M2", Run: func(v Variant) Result { return RunSort(v, SortConfig{N: 32, Rounds: 6, Seed: 7}) }},
		{Name: "sort/64", Paradigm: "FG", Instance: "P1M2", Run: func(v Variant) Result { return RunSort(v, SortConfig{N: 64, Rounds: 5, Seed: 8}) }},
		{Name: "sort/128", Paradigm: "FG", Instance: "P1M2", Run: func(v Variant) Result { return RunSort(v, SortConfig{N: 128, Rounds: 4, Seed: 9}) }},
		{Name: "dijkstra", Paradigm: "FG", Instance: "P1M1", Run: func(v Variant) Result { return RunDijkstra(v, DefaultDijkstraConfig()) }},
		{Name: "barnes-hut", Paradigm: "FG", Instance: "P4M1", Run: func(v Variant) Result { return RunBarnesHut(v, DefaultBHConfig()) }},
		{Name: "pdes/4", Paradigm: "HA", Instance: "P4M1", Run: func(v Variant) Result {
			return RunPDES(v, PDESConfig{Cores: 4, Population: 48, Horizon: 400, Seed: 11})
		}},
		{Name: "pdes/8", Paradigm: "HA", Instance: "P8M1", Run: func(v Variant) Result {
			return RunPDES(v, PDESConfig{Cores: 8, Population: 48, Horizon: 400, Seed: 11})
		}},
		{Name: "pdes/16", Paradigm: "HA", Instance: "P16M1", Run: func(v Variant) Result {
			return RunPDES(v, PDESConfig{Cores: 16, Population: 48, Horizon: 400, Seed: 11})
		}},
		{Name: "bfs/4", Paradigm: "HA", Instance: "P4M0", Run: func(v Variant) Result { return RunBFS(v, BFSConfig{Cores: 4, Nodes: 768, AvgDegree: 4, Seed: 13}) }},
		{Name: "bfs/8", Paradigm: "HA", Instance: "P8M0", Run: func(v Variant) Result { return RunBFS(v, BFSConfig{Cores: 8, Nodes: 768, AvgDegree: 4, Seed: 13}) }},
		{Name: "bfs/16", Paradigm: "HA", Instance: "P16M0", Run: func(v Variant) Result { return RunBFS(v, BFSConfig{Cores: 16, Nodes: 768, AvgDegree: 4, Seed: 13}) }},
	}
}

// Fig12Row is one benchmark column of Fig. 12.
type Fig12Row struct {
	Name         string
	SpeedupDuet  float64
	SpeedupFPSoC float64
	ADPDuet      float64
	ADPFPSoC     float64
	CPURuntime   sim.Time
	DuetRuntime  sim.Time
	FPSoCRuntime sim.Time
	Err          error
}

// Fig12 runs each benchmark in all three variants on a parallel-wide
// study pool (<= 0 selects GOMAXPROCS) and returns the rows in benches
// order. Every run builds its own System, so the rows are identical at
// every pool width.
func Fig12(parallel int, benches []Benchmark) []Fig12Row {
	return study.Map(parallel, benches, RunOne)
}

// RunOne executes one benchmark across the three variants.
func RunOne(b Benchmark) Fig12Row {
	cpuRes := b.Run(VariantCPU)
	duetRes := b.Run(VariantDuet)
	fpsocRes := b.Run(VariantFPSoC)
	row := Fig12Row{
		Name:         b.Name,
		CPURuntime:   cpuRes.Runtime,
		DuetRuntime:  duetRes.Runtime,
		FPSoCRuntime: fpsocRes.Runtime,
	}
	for _, r := range []Result{cpuRes, duetRes, fpsocRes} {
		if r.Err != nil && row.Err == nil {
			row.Err = fmt.Errorf("%s/%s: %w", b.Name, r.Variant, r.Err)
		}
	}
	if duetRes.Runtime > 0 {
		row.SpeedupDuet = float64(cpuRes.Runtime) / float64(duetRes.Runtime)
	}
	if fpsocRes.Runtime > 0 {
		row.SpeedupFPSoC = float64(cpuRes.Runtime) / float64(fpsocRes.Runtime)
	}
	base := float64(cpuRes.Runtime)
	row.ADPDuet = area.ADP(duetRes.AreaMM2, float64(duetRes.Runtime), cpuRes.AreaMM2, base)
	row.ADPFPSoC = area.ADP(fpsocRes.AreaMM2, float64(fpsocRes.Runtime), cpuRes.AreaMM2, base)
	return row
}

// Geomeans summarizes Fig. 12 (speedup and ADP geometric means).
func Geomeans(rows []Fig12Row) (spDuet, spFPSoC, adpDuet, adpFPSoC float64) {
	var a, b, c, d []float64
	for _, r := range rows {
		a = append(a, r.SpeedupDuet)
		b = append(b, r.SpeedupFPSoC)
		c = append(c, r.ADPDuet)
		d = append(d, r.ADPFPSoC)
	}
	return area.Geomean(a), area.Geomean(b), area.Geomean(c), area.Geomean(d)
}

// harness is what a benchmark's three variants share: the core count, and
// the memory hubs, soft registers and bitstream of the accelerated
// variants. The processor-only variant has none of the three.
type harness struct {
	cores     int
	memHubs   int
	regs      []core.SoftRegSpec
	bitstream func() *efpga.Bitstream
}

// queueRegs is the soft-register map of the hardware-augmentation widgets
// (PDES scheduler, BFS queues): one deep command FIFO into the fabric and
// one result FIFO back to each core.
func queueRegs(cores int) []core.SoftRegSpec {
	regs := []core.SoftRegSpec{{Kind: core.RegFIFOToFPGA, Depth: 16}}
	for i := 0; i < cores; i++ {
		regs = append(regs, core.SoftRegSpec{Kind: core.RegFIFOToCPU})
	}
	return regs
}

// variantStyle maps each Variant to its system organization.
var variantStyle = [...]duet.Style{
	VariantCPU:   duet.StyleCPUOnly,
	VariantDuet:  duet.StyleDuet,
	VariantFPSoC: duet.StyleFPSoC,
}

// run executes one variant of the benchmark name. It builds the system
// and installs the variant's bitstream, then calls setup, which allocates
// and loads memory, starts the per-core programs and returns the
// functional check; the programs or the check record the measured region
// in res.Runtime. run drains the system with its coherence check, runs
// the functional check, and charges the system's area only once the
// check has passed.
func (h harness) run(name string, v Variant, setup func(sys *duet.System, res *Result) (check func() error)) Result {
	res := Result{Name: name, Variant: v}
	cfg := duet.Config{Cores: h.cores, Style: variantStyle[v]}
	if v != VariantCPU {
		cfg.MemHubs, cfg.RegSpecs = h.memHubs, h.regs
	}
	sys := duet.New(cfg)
	defer sys.Close()

	var efpgaMM2 float64
	if v != VariantCPU {
		bs := h.bitstream()
		efpgaMM2 = bs.Report.AreaMM2
		if err := sys.InstallAccelerator(bs); err != nil {
			res.Err = err
			return res
		}
	}
	check := setup(sys, &res)
	if _, err := sys.RunChecked(); err != nil {
		res.Err = err
		return res
	}
	if res.Err = check(); res.Err == nil {
		res.AreaMM2 = systemArea(v, h.cores, h.memHubs, efpgaMM2)
	}
	return res
}

// systemArea assembles the configuration's silicon area.
func systemArea(v Variant, cores, memHubs int, efpgaMM2 float64) float64 {
	switch v {
	case VariantCPU:
		return area.SystemArea{Cores: cores}.Total()
	case VariantFPSoC:
		// The FPSoC adds only the FPGA silicon on top of the baseline
		// (paper §V-D).
		return area.SystemArea{Cores: cores, EFPGAMM2: efpgaMM2}.Total()
	default:
		// One C-tile plus an M-tile per hub beyond the first.
		return area.SystemArea{
			Cores: cores, MemHubs: memHubs, HasCtrl: true,
			AdapterTiles: max(memHubs, 1), EFPGAMM2: efpgaMM2,
		}.Total()
	}
}

// warm pre-touches a memory range through the core, warming its caches
// before the measured region (the paper gives processor-only baselines a
// warm cache, §V-A; the soft accelerators always start cold).
func warm(p cpu.Proc, base uint64, bytes int) {
	for off := 0; off < bytes; off += 16 {
		p.Load64((base + uint64(off)) &^ 7)
	}
}

// xorshift is the deterministic PRNG used by all workload generators.
type xorshift uint64

func newRNG(seed uint64) *xorshift {
	x := xorshift(seed*2654435761 + 1)
	return &x
}

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

func (x *xorshift) intn(n int) int {
	return int(x.next() % uint64(n))
}

func (x *xorshift) float() float64 {
	return float64(x.next()%(1<<53)) / (1 << 53)
}
