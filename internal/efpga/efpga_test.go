package efpga

import (
	"testing"

	"duet/internal/sim"
)

type nopAccel struct{}

func (nopAccel) Start(*Env) {}

func testBitstream(name string, regions int) *Bitstream {
	return Synthesize(Design{
		Name:          name,
		LUTLogic:      regions * 60,
		RegBits:       regions * 80,
		PipelineDepth: 4,
	}, func() Accelerator { return nopAccel{} })
}

func TestConfigureSuccess(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, "f0", Resources{LUTs: 10000, FFs: 20000, BRAMKb: 4096, DSPs: 64})
	bs := testBitstream("acc", 4)
	if err := f.Configure(bs); err != nil {
		t.Fatalf("configure: %v", err)
	}
	if f.Current() != bs || f.Accel() == nil || f.Generation != 1 {
		t.Fatal("fabric state not updated")
	}
}

// TestRegisterDuplicateGuard: re-registering the same bitstream returns
// its existing id (idempotent), while a different bitstream under an
// already-taken name is rejected — by-name lookups must stay unambiguous.
func TestRegisterDuplicateGuard(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, "f0", Resources{LUTs: 10000, FFs: 20000, BRAMKb: 4096, DSPs: 64})
	bs := testBitstream("acc", 4)
	id, err := f.Register(bs)
	if err != nil {
		t.Fatalf("first register: %v", err)
	}
	again, err := f.Register(bs)
	if err != nil || again != id {
		t.Fatalf("re-register returned (%d, %v), want (%d, nil)", again, err, id)
	}
	if got, ok := f.IDByName("acc"); !ok || got != id {
		t.Fatalf("IDByName after double register = (%d, %v)", got, ok)
	}
	impostor := testBitstream("acc", 2)
	if _, err := f.Register(impostor); err == nil {
		t.Fatal("distinct bitstream under a duplicate name was accepted")
	}
	if other, err := f.Register(testBitstream("other", 4)); err != nil || other != id+1 {
		t.Fatalf("fresh name after rejection: (%d, %v)", other, err)
	}
	if f.MustRegister(bs) != id {
		t.Fatal("MustRegister not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister accepted a conflicting duplicate")
		}
	}()
	f.MustRegister(testBitstream("acc", 3))
}

func TestConfigureRejectsCorruptBitstream(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, "f0", Resources{LUTs: 10000, FFs: 20000, BRAMKb: 4096, DSPs: 64})
	bs := testBitstream("acc", 4)
	bs.Corrupt()
	if err := f.Configure(bs); err == nil {
		t.Fatal("corrupted bitstream accepted")
	}
	if f.Current() != nil {
		t.Fatal("fabric configured despite integrity failure")
	}
}

func TestConfigureRejectsOversizedDesign(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, "tiny", Resources{LUTs: 100, FFs: 100, BRAMKb: 32, DSPs: 1})
	bs := testBitstream("big", 50)
	if err := f.Configure(bs); err == nil {
		t.Fatal("oversized bitstream accepted")
	}
}

func TestClockGenerator(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, "f0", Resources{LUTs: 1000, FFs: 2000, BRAMKb: 128, DSPs: 8})
	f.SetFreqMHz(250)
	if p := f.Clock().Period; p != 4000 {
		t.Fatalf("250MHz period = %dps", p)
	}
	// Reprogramming mid-simulation re-aligns the phase.
	eng.At(12345*sim.PS, func() { f.SetFreqMHz(500) })
	eng.Run(0)
	if f.Clock().Phase != 12345 || f.Clock().Period != 2000 {
		t.Fatalf("clock after reprogram: phase=%d period=%d", f.Clock().Phase, f.Clock().Period)
	}
}

func TestConfigureCapsClockAtFmax(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, "f0", Resources{LUTs: 100000, FFs: 200000, BRAMKb: 65536, DSPs: 512})
	f.SetFreqMHz(500)
	bs := Synthesize(Design{Name: "slowdesign", LUTLogic: 100, PipelineDepth: 12}, func() Accelerator { return nopAccel{} })
	if err := f.Configure(bs); err != nil {
		t.Fatal(err)
	}
	if got := f.Clock().FreqMHz(); got > bs.FmaxMHz+1 {
		t.Fatalf("clock %.1fMHz exceeds Fmax %.1fMHz", got, bs.FmaxMHz)
	}
}

func TestSynthesisModelMonotonicity(t *testing.T) {
	small := testBitstream("small", 2)
	big := testBitstream("big", 20)
	if big.Report.AreaMM2 <= small.Report.AreaMM2 {
		t.Fatal("area not monotone in design size")
	}
	deep := Synthesize(Design{Name: "deep", LUTLogic: 100, PipelineDepth: 20}, func() Accelerator { return nopAccel{} })
	shallow := Synthesize(Design{Name: "shallow", LUTLogic: 100, PipelineDepth: 2}, func() Accelerator { return nopAccel{} })
	if deep.FmaxMHz >= shallow.FmaxMHz {
		t.Fatal("Fmax not monotone in pipeline depth")
	}
}

func TestMemBoundDesignUtilizationShape(t *testing.T) {
	// A BRAM-heavy design must show high BRAM utilization and low CLB
	// utilization (the sort accelerators' signature in Table II).
	bs := Synthesize(Design{Name: "membound", LUTLogic: 200, RAMKb: 512, PipelineDepth: 5, MemBound: true},
		func() Accelerator { return nopAccel{} })
	r := bs.Report
	if r.BRAMUtil < 0.5 {
		t.Fatalf("BRAM util %.2f too low for mem-bound design", r.BRAMUtil)
	}
	if r.CLBUtil > r.BRAMUtil {
		t.Fatalf("CLB util %.2f exceeds BRAM util %.2f", r.CLBUtil, r.BRAMUtil)
	}
}

func TestResourcesFits(t *testing.T) {
	capacity := Resources{LUTs: 100, FFs: 100, BRAMKb: 64, DSPs: 4}
	if !(Resources{LUTs: 100, FFs: 50, BRAMKb: 64, DSPs: 4}).Fits(capacity) {
		t.Fatal("exact fit rejected")
	}
	if (Resources{LUTs: 101}).Fits(capacity) {
		t.Fatal("overflow accepted")
	}
}
