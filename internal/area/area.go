// Package area reproduces the paper's silicon area accounting: Table I
// (area and typical frequency of Dolly's hard components, measured by the
// authors with Synopsys DC and prior work, scaled to 45 nm with a linear
// MOSFET scaling model) and the Area-Delay-Product (ADP) metric of Fig. 12.
package area

import "math"

// Component is one row of Table I.
type Component struct {
	Name       string
	Technology string
	AreaMM2    float64 // as published, native node
	FreqMHz    float64 // as published, native node
	ScaledArea float64 // scaled to 45 nm (linear MOSFET model)
	ScaledFreq float64 // scaled to 45 nm
}

// TableI holds the published component data (paper Table I).
var TableI = []Component{
	{Name: "Ariane", Technology: "GlobalFoundries 22nm FDX", AreaMM2: 0.39, FreqMHz: 910, ScaledArea: 1.56, ScaledFreq: 455},
	{Name: "P-Mesh Socket", Technology: "IBM 32nm SOI", AreaMM2: 0.55, FreqMHz: 1000, ScaledArea: 1.10, ScaledFreq: 711},
	{Name: "FPGA Mgr + Soft Reg Intf", Technology: "FreePDK45", AreaMM2: 0.21, FreqMHz: 925, ScaledArea: 0.21, ScaledFreq: 925},
	{Name: "Coherent Memory Intf", Technology: "FreePDK45", AreaMM2: 0.04, FreqMHz: 1250, ScaledArea: 0.04, ScaledFreq: 1250},
}

// Scaled areas of the components used by the ADP model (45 nm, mm^2).
const (
	ArianeMM2   = 1.56
	SocketMM2   = 1.10
	CtrlHubMM2  = 0.21 // FPGA manager + soft register interface
	MemIntfMM2  = 0.04 // coherent memory interface (per memory hub)
	CoreTileMM2 = ArianeMM2 + SocketMM2
)

// SystemArea computes the silicon area of an evaluated configuration
// (paper §V-D): the processor-only baseline counts processors and the
// hardware cache system; the FPSoC adds the eFPGA; Dolly further adds the
// Duet Adapters.
type SystemArea struct {
	Cores    int
	MemHubs  int     // 0 for CPU-only and FPSoC
	HasCtrl  bool    // Duet control hub present
	EFPGAMM2 float64 // provisioned eFPGA silicon (0 for CPU-only)
	// AdapterTiles counts C+M tiles, each carrying a P-Mesh socket.
	AdapterTiles int
}

// Total reports the configuration's silicon area in mm^2 (45 nm).
func (s SystemArea) Total() float64 {
	a := float64(s.Cores) * CoreTileMM2
	a += float64(s.AdapterTiles) * SocketMM2
	if s.HasCtrl {
		a += CtrlHubMM2
	}
	a += float64(s.MemHubs) * MemIntfMM2
	a += s.EFPGAMM2
	return a
}

// ADP computes the area-delay product of a configuration relative to a
// baseline: (area/baseArea) * (runtime/baseRuntime). Lower is better.
func ADP(area, runtime, baseArea, baseRuntime float64) float64 {
	if baseArea == 0 || baseRuntime == 0 {
		return math.NaN()
	}
	return (area / baseArea) * (runtime / baseRuntime)
}

// Geomean computes the geometric mean of positive values.
func Geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range vs {
		if v <= 0 {
			return math.NaN()
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}
