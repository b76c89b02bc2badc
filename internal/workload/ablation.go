package workload

import (
	"duet"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/sim"
	"duet/internal/study"
)

// HubWindowRow is one point of the Proxy Cache in-flight window ablation.
type HubWindowRow struct {
	Outstanding int
	FreqMHz     float64
	MBps        float64
}

// SyncDepthRow is one point of the CDC synchronizer depth ablation.
type SyncDepthRow struct {
	Stages  int
	FreqMHz float64
	Latency sim.Time
}

// AblationResult bundles both sweeps of `duetsim ablate`.
type AblationResult struct {
	HubWindow []HubWindowRow
	SyncDepth []SyncDepthRow
}

// Ablation runs the hub-window and synchronizer-depth ablations as one
// flat grid on a parallel-wide study pool (<= 0 selects GOMAXPROCS).
// Empty windows/stages select the defaults behind `duetsim ablate`.
// Each point is an independent System — the synchronizer depth travels
// through duet.Config.SyncStages, not a package global — so the result
// is identical for every pool width.
func Ablation(parallel int, windows, stages []int, freqMHz float64) AblationResult {
	if len(windows) == 0 {
		windows = []int{1, 2, 4, 8}
	}
	if len(stages) == 0 {
		stages = []int{2, 3, 4}
	}
	if freqMHz <= 0 {
		freqMHz = 100
	}
	type point struct {
		hub HubWindowRow
		cdc SyncDepthRow
	}
	pts := study.Run(parallel, len(windows)+len(stages), func(i int) point {
		if i < len(windows) {
			w := windows[i]
			return point{hub: HubWindowRow{Outstanding: w, FreqMHz: freqMHz, MBps: MeasureHubWindow(w, freqMHz)}}
		}
		st := stages[i-len(windows)]
		return point{cdc: SyncDepthRow{Stages: st, FreqMHz: freqMHz, Latency: MeasureSyncStagesLatency(st, freqMHz)}}
	})
	res := AblationResult{}
	for _, p := range pts[:len(windows)] {
		res.HubWindow = append(res.HubWindow, p.hub)
	}
	for _, p := range pts[len(windows):] {
		res.SyncDepth = append(res.SyncDepth, p.cdc)
	}
	return res
}

// MeasureHubWindow is the ablation behind Fig. 10's bandwidth ceiling: it
// reruns Fig. 10's eFPGA-pull transfer through the Proxy Cache with its
// in-flight request window forced to `outstanding` and reports MB/s. The
// paper attributes the peak bandwidth to "the number of concurrent,
// in-flight memory requests supported by the Proxy Cache" (§V-C); this
// measures exactly that sensitivity.
func MeasureHubWindow(outstanding int, freqMHz float64) float64 {
	return measureBandwidth(FPGAPullProxy, freqMHz, outstanding)
}

// MeasureSyncStagesLatency is the CDC-depth ablation: the normal-register
// round trip with the paper's 2-stage synchronizers versus deeper chains.
// Deeper synchronizers harden against metastability at a direct cost on
// every crossing; this quantifies the trade the paper's §IV design point
// makes. (The FIFO depth itself is held constant.)
func MeasureSyncStagesLatency(stages int, freqMHz float64) sim.Time {
	sys := duet.New(duet.Config{
		Cores: 1, MemHubs: 0, Style: duet.StyleDuet,
		RegSpecs:    []core.SoftRegSpec{{Kind: core.RegNormal}},
		FPGAFreqMHz: freqMHz,
		SyncStages:  stages,
	})
	defer sys.Close()
	install(sys, efpga.Design{Name: "reg", LUTLogic: 40, PipelineDepth: 2}, accelNop{}, freqMHz)

	var lat sim.Time
	sys.Cores[0].Run("probe", func(p cpu.Proc) {
		p.Exec(100)
		start := p.Now()
		p.MMIOWrite64(duet.SoftRegAddr(0), 1)
		lat = p.Now() - start
	})
	sys.Run()
	return lat
}
