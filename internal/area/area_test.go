package area

import (
	"math"
	"testing"
)

func TestSystemAreaComposition(t *testing.T) {
	cpuOnly := SystemArea{Cores: 4}
	if got := cpuOnly.Total(); math.Abs(got-4*CoreTileMM2) > 1e-9 {
		t.Fatalf("cpu-only area = %f", got)
	}
	duet := SystemArea{Cores: 1, MemHubs: 1, HasCtrl: true, AdapterTiles: 1, EFPGAMM2: 5}
	want := CoreTileMM2 + SocketMM2 + CtrlHubMM2 + MemIntfMM2 + 5
	if got := duet.Total(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("duet area = %f, want %f", got, want)
	}
	// FPSoC: eFPGA on top of the baseline, no adapter silicon.
	fpsoc := SystemArea{Cores: 1, EFPGAMM2: 5}
	if got := fpsoc.Total(); got >= duet.Total() {
		t.Fatalf("fpsoc area %f not below duet %f", got, duet.Total())
	}
}

func TestADP(t *testing.T) {
	// 2x area at 4x speedup: ADP = 0.5.
	if got := ADP(2, 0.25, 1, 1); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("ADP = %f", got)
	}
	if !math.IsNaN(ADP(1, 1, 0, 1)) {
		t.Fatal("zero baseline not NaN")
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{1, 4}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("geomean = %f", got)
	}
	if got := Geomean([]float64{3, 3, 3}); math.Abs(got-3) > 1e-9 {
		t.Fatalf("geomean = %f", got)
	}
	if !math.IsNaN(Geomean(nil)) || !math.IsNaN(Geomean([]float64{0})) {
		t.Fatal("degenerate geomean not NaN")
	}
}

func TestTableIPublishedValues(t *testing.T) {
	if len(TableI) != 4 {
		t.Fatal("Table I rows")
	}
	if TableI[0].ScaledArea != ArianeMM2 || TableI[1].ScaledArea != SocketMM2 {
		t.Fatal("constants diverge from Table I data")
	}
}
