package efpga

import (
	"fmt"
	"math"
)

// Design is a structural description of an accelerator datapath: the
// quantities a synthesis flow would extract from RTL or HLS output. The
// cost model below maps a Design to resources, area and Fmax.
//
// This replaces the paper's Yosys + VTR + Catapult flow (which cannot run
// here); the per-accelerator Designs in internal/accel are calibrated so
// the model reproduces the paper's Table II, and the Table II harness
// prints model and paper values side by side.
type Design struct {
	Name string

	// Datapath primitives.
	Adders      int // word-width add/sub units
	Multipliers int // mapped to DSPs when available
	Comparators int // compare-exchange / branch units
	FPUnits     int // floating-point pipelines (LUT-heavy)
	LUTLogic    int // residual random logic, in LUT6 equivalents

	// Storage.
	RegBits int // pipeline/state registers
	RAMKb   int // block RAM kilobits

	// PipelineDepth is the number of logic levels on the critical path.
	PipelineDepth int
	// MemBound marks designs whose critical path is BRAM-limited.
	MemBound bool
	// MinRegions provisions a larger fabric than the minimal fit (real
	// eFPGAs come in fixed sizes; routability and placement slack demand
	// headroom beyond raw resource counts).
	MinRegions int
}

// Report is the synthesis result for one design (the rows of Table II).
type Report struct {
	Name      string
	FmaxMHz   float64
	AreaMM2   float64 // total eFPGA silicon area provisioned (45 nm)
	NormArea  float64 // AreaMM2 / (1x Ariane + 1x P-Mesh socket)
	CLBUtil   float64
	BRAMUtil  float64
	Res       Resources
	FabricCap Resources
}

// Cost-model constants, calibrated against Table II. The fabric is
// organized in "regions": 8 CLB tiles (10 fracturable LUT6 + 20 FFs each)
// plus one 32 Kb BRAM tile and half a DSP tile, mirroring the
// k6_frac_N10_frac_chain_mem32K_40nm architecture used in the paper.
const (
	lutsPerCLBTile   = 10
	ffsPerCLBTile    = 20
	clbTilesPerRgn   = 8
	bramKbPerRgn     = 32
	dspsPerRgn       = 0.5
	regionAreaMM2    = 0.196 // 45nm, incl. configuration + routing overhead
	packingEff       = 0.80  // achievable LUT packing before routability fails
	baseAreaMM2      = 2.66  // 1x Ariane (1.56) + 1x P-Mesh socket (1.10), Table I
	lutDelayNS       = 0.45  // per-level LUT+routing delay in the fabric
	fixedPathNS      = 1.1   // clock-to-out + setup + global routing
	bramPenaltyNS    = 1.0   // extra path through BRAM for memory-bound designs
	lutsPerAdder     = 36    // 32-bit carry-chain adder in LUT6s
	lutsPerCmp       = 24
	lutsPerFPUnit    = 640 // single-precision FP pipeline
	lutsPerMultLogic = 300 // multiplier cost when DSPs are exhausted
)

// Resources computes the design's resource demand.
func (d Design) Resources() Resources {
	luts := d.Adders*lutsPerAdder + d.Comparators*lutsPerCmp + d.FPUnits*lutsPerFPUnit + d.LUTLogic
	return Resources{
		LUTs:   luts,
		FFs:    d.RegBits,
		BRAMKb: d.RAMKb,
		DSPs:   d.Multipliers,
	}
}

// Synthesize runs the cost model: it sizes a minimal fabric for the
// design, computes utilization and area, estimates Fmax, and returns the
// bitstream plus report.
func Synthesize(d Design, factory func() Accelerator) *Bitstream {
	res := d.Resources()

	// Regions needed per resource type.
	lutRegions := float64(res.LUTs) / (packingEff * lutsPerCLBTile * clbTilesPerRgn)
	ffRegions := float64(res.FFs) / (ffsPerCLBTile * clbTilesPerRgn)
	bramRegions := float64(res.BRAMKb) / bramKbPerRgn
	dspRegions := float64(res.DSPs) / dspsPerRgn
	regions := int(math.Ceil(math.Max(math.Max(lutRegions, ffRegions), math.Max(bramRegions, dspRegions))))
	if regions < d.MinRegions {
		regions = d.MinRegions
	}
	if regions < 1 {
		regions = 1
	}

	capacity := Resources{
		LUTs:   regions * clbTilesPerRgn * lutsPerCLBTile,
		FFs:    regions * clbTilesPerRgn * ffsPerCLBTile,
		BRAMKb: regions * bramKbPerRgn,
		DSPs:   int(math.Ceil(float64(regions) * dspsPerRgn)),
	}

	// Fmax from the critical-path model.
	path := fixedPathNS + float64(d.PipelineDepth)*lutDelayNS
	if d.MemBound {
		path += bramPenaltyNS
	}
	fmax := 1000.0 / path

	area := float64(regions) * regionAreaMM2
	clbUtil := float64(res.LUTs) / (packingEff * float64(capacity.LUTs))
	if u := float64(res.FFs) / float64(capacity.FFs); u > clbUtil {
		clbUtil = u
	}
	if clbUtil > 1 {
		clbUtil = 1
	}
	bramUtil := float64(res.BRAMKb) / float64(capacity.BRAMKb)

	rep := Report{
		Name:      d.Name,
		FmaxMHz:   round1(fmax),
		AreaMM2:   area,
		NormArea:  round2(area / baseAreaMM2),
		CLBUtil:   round2(clbUtil),
		BRAMUtil:  round2(bramUtil),
		Res:       res,
		FabricCap: capacity,
	}

	// The configuration image covers every region's configuration bits.
	img := make([]byte, regions*64)
	for i := range img {
		img[i] = byte(i*131 + len(d.Name))
	}
	bs := NewBitstream(d.Name, res, rep.FmaxMHz, img, factory)
	bs.Report = rep
	return bs
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }
func round2(v float64) float64 { return math.Round(v*100) / 100 }

func (r Report) String() string {
	return fmt.Sprintf("%-12s Fmax=%6.1fMHz area=%6.2fmm2 norm=%5.2f CLB=%4.2f BRAM=%4.2f",
		r.Name, r.FmaxMHz, r.AreaMM2, r.NormArea, r.CLBUtil, r.BRAMUtil)
}
