package workload

import (
	"runtime"
	"testing"

	"duet/internal/sim"
)

// TestFig9Shapes verifies the paper's headline latency claims (§V-C):
//   - Shadow Registers and the Proxy Cache (CPU pull) have latencies
//     independent of the eFPGA clock;
//   - the Proxy Cache cuts CPU-pull latency by 42-82% and eFPGA-pull
//     latency by 13-43%;
//   - Shadow Registers cut register latency by 50-80%.
//
// It also checks that no row's breakdown adds up to more than its total:
// MeasureLatency reports the attribution as measured, so a double count
// fails here instead of being scaled away.
func TestFig9Shapes(t *testing.T) {
	freqs := []float64{100, 200, 500}
	rows := make([]map[float64]Fig9Row, NumMechanisms)
	for m := range rows {
		rows[m] = map[float64]Fig9Row{}
		for _, f := range freqs {
			row := MeasureLatency(Mechanism(m), f)
			var attr sim.Time
			for _, v := range row.Breakdown {
				attr += v
			}
			if attr > row.Total {
				t.Errorf("%v at %vMHz: breakdown sums to %v, over the %v total", row.Mechanism, f, attr, row.Total)
			}
			rows[m][f] = row
		}
	}
	shadow := rows[ShadowReg]
	normal := rows[NormalReg]
	cpuProxy := rows[CPUPullProxy]
	cpuSlow := rows[CPUPullSlow]
	fpgaProxy := rows[FPGAPullProxy]
	fpgaSlow := rows[FPGAPullSlow]

	// Frequency-independence of the fast-domain mechanisms.
	if d := relSpread(shadow[100].Total, shadow[500].Total); d > 0.10 {
		t.Errorf("shadow reg latency varies %.0f%% with eFPGA clock (want ~constant): 100MHz=%v 500MHz=%v",
			d*100, shadow[100].Total, shadow[500].Total)
	}
	if d := relSpread(cpuProxy[100].Total, cpuProxy[500].Total); d > 0.10 {
		t.Errorf("CPU-pull proxy latency varies %.0f%% with eFPGA clock: %v vs %v",
			d*100, cpuProxy[100].Total, cpuProxy[500].Total)
	}

	// Slow mechanisms degrade as the eFPGA slows.
	if normal[100].Total <= normal[500].Total {
		t.Errorf("normal reg latency not increasing as eFPGA slows: %v vs %v", normal[100].Total, normal[500].Total)
	}
	if cpuSlow[100].Total <= cpuSlow[500].Total {
		t.Errorf("slow-cache CPU pull not increasing as eFPGA slows")
	}

	// Reduction bands.
	for _, f := range freqs {
		red := reduction(cpuProxy[f].Total, cpuSlow[f].Total)
		if red < 0.25 || red > 0.90 {
			t.Errorf("CPU pull reduction at %vMHz = %.0f%% (paper: 42-82%%)", f, red*100)
		}
		red = reduction(fpgaProxy[f].Total, fpgaSlow[f].Total)
		if red < 0.05 || red > 0.55 {
			t.Errorf("eFPGA pull reduction at %vMHz = %.0f%% (paper: 13-43%% over 20-500MHz)", f, red*100)
		}
		red = reduction(shadow[f].Total, normal[f].Total)
		if red < 0.35 || red > 0.90 {
			t.Errorf("shadow reg reduction at %vMHz = %.0f%% (paper: 50-80%%)", f, red*100)
		}
	}

	// Breakdown sanity: slow mechanisms must show slow-domain and CDC
	// time; shadow regs must not.
	if shadow[100].Breakdown[sim.CatSlow] != 0 {
		t.Errorf("shadow reg breakdown contains slow-domain time")
	}
	if normal[100].Breakdown[sim.CatSlow] == 0 || normal[100].Breakdown[sim.CatCDC] == 0 {
		t.Errorf("normal reg breakdown missing slow/CDC time: %+v", normal[100].Breakdown)
	}
	if cpuSlow[100].Breakdown[sim.CatCDC] == 0 {
		t.Errorf("slow-cache pull breakdown missing CDC time")
	}
	for _, f := range freqs {
		t.Logf("f=%3.0fMHz shadow=%6v normal=%6v cpuP=%6v cpuS=%6v fpgaP=%6v fpgaS=%6v",
			f, shadow[f].Total, normal[f].Total, cpuProxy[f].Total, cpuSlow[f].Total, fpgaProxy[f].Total, fpgaSlow[f].Total)
	}
}

func relSpread(a, b sim.Time) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi == 0 {
		return 0
	}
	return float64(hi-lo) / float64(hi)
}

func reduction(fast, slow sim.Time) float64 {
	if slow == 0 {
		return 0
	}
	return 1 - float64(fast)/float64(slow)
}

// TestFig9ReleasesSystems checks that a sweep closes every system it
// builds: once Fig9P (or Serve) returns, none of its simulation threads
// is left parked on a goroutine that would keep a finished system
// reachable.
func TestFig9ReleasesSystems(t *testing.T) {
	before := runtime.NumGoroutine()
	if rows := Fig9P(1, []float64{100}); len(rows) != int(NumMechanisms) {
		t.Fatalf("Fig9P returned %d rows, want %d", len(rows), NumMechanisms)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before Fig9P, %d after; %d left behind", before, after, after-before)
	}
	// A cycle-backend serve replica is closed after its final drain.
	if r := Serve(ServeConfig{Jobs: 40, Seed: 7}); r.Stats.Completed == 0 {
		t.Fatal("Serve completed no jobs")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before Serve, %d after; %d left behind", before, after, after-before)
	}
}

// TestFig10Shapes verifies the bandwidth study's qualitative results:
// the Proxy Cache dominates the slow cache everywhere and saturates at
// low-to-mid eFPGA frequencies; Shadow Registers beat normal registers
// and saturate early; eFPGA pulls exceed CPU pulls (8-byte store limit).
func TestFig10Shapes(t *testing.T) {
	freqs := []float64{20, 100, 500}
	bw := func(m Mechanism) map[float64]float64 {
		out := map[float64]float64{}
		for _, f := range freqs {
			out[f] = MeasureBandwidth(m, f).MBps
		}
		return out
	}
	fpgaP := bw(FPGAPullProxy)
	fpgaS := bw(FPGAPullSlow)
	cpuP := bw(CPUPullProxy)
	cpuS := bw(CPUPullSlow)
	shadow := bw(ShadowReg)
	normal := bw(NormalReg)

	for _, f := range freqs {
		if fpgaP[f] <= fpgaS[f] {
			t.Errorf("eFPGA pull: proxy (%.0f) not above slow cache (%.0f) at %vMHz", fpgaP[f], fpgaS[f], f)
		}
		if cpuP[f] <= cpuS[f] {
			t.Errorf("CPU pull: proxy (%.0f) not above slow cache (%.0f) at %vMHz", cpuP[f], cpuS[f], f)
		}
		if shadow[f] <= normal[f] {
			t.Errorf("shadow regs (%.0f) not above normal regs (%.0f) at %vMHz", shadow[f], normal[f], f)
		}
		if fpgaP[f] <= cpuP[f] {
			t.Errorf("eFPGA pull (%.0f) not above CPU pull (%.0f) at %vMHz (8B store limit)", fpgaP[f], cpuP[f], f)
		}
	}
	// Proxy saturates by 100MHz: within 10% of its 500MHz value.
	if rel := relSpread(sim.Time(fpgaP[100]*1000), sim.Time(fpgaP[500]*1000)); rel > 0.10 {
		t.Errorf("proxy eFPGA pull not saturated at 100MHz: %.0f vs %.0f", fpgaP[100], fpgaP[500])
	}
	// The slow cache keeps gaining with frequency (it is clock-bound).
	if fpgaS[500] <= fpgaS[20]*1.5 {
		t.Errorf("slow cache bandwidth not clock-bound: %.0f @20MHz vs %.0f @500MHz", fpgaS[20], fpgaS[500])
	}
	// Largest proxy/slow gap occurs at a low-mid frequency and is large.
	gap100 := fpgaP[100] / fpgaS[100]
	gap500 := fpgaP[500] / fpgaS[500]
	if gap100 <= gap500 {
		t.Errorf("bandwidth gap not larger at 100MHz (%.1fx) than 500MHz (%.1fx)", gap100, gap500)
	}
	if gap100 < 2.0 {
		t.Errorf("peak bandwidth gap only %.1fx (paper: up to 9.5x)", gap100)
	}
	for _, f := range freqs {
		t.Logf("f=%3.0fMHz: normal=%5.0f shadow=%5.0f cpuP=%5.0f cpuS=%5.0f fpgaP=%5.0f fpgaS=%5.0f MB/s",
			f, normal[f], shadow[f], cpuP[f], cpuS[f], fpgaP[f], fpgaS[f])
	}
}

// TestFig11Shapes verifies the contention study: shadow registers sustain
// per-processor bandwidth to ~8 processors; normal registers collapse
// after ~2.
func TestFig11Shapes(t *testing.T) {
	counts := []int{1, 2, 8}
	per := func(k ContentionKind) map[int]float64 {
		out := map[int]float64{}
		for _, n := range counts {
			out[n] = MeasureContention(k, n).PerProcMBps
		}
		return out
	}
	sw := per(ShadowRegWrite)
	nw := per(NormalRegWrite)

	// Shadow: stable to 8 procs (>=60% of solo bandwidth).
	if sw[8] < 0.6*sw[1] {
		t.Errorf("shadow write per-proc bandwidth collapsed at 8 procs: %.0f vs solo %.0f", sw[8], sw[1])
	}
	// Normal: collapsed at 8 procs (<60% of solo).
	if nw[8] >= 0.6*nw[1] {
		t.Errorf("normal write per-proc bandwidth did not degrade at 8 procs: %.0f vs solo %.0f", nw[8], nw[1])
	}
	// Shadow beats normal at every count.
	for _, n := range counts {
		if sw[n] <= nw[n] {
			t.Errorf("shadow (%.0f) not above normal (%.0f) at %d procs", sw[n], nw[n], n)
		}
	}
	t.Logf("per-proc MB/s: shadow %v, normal %v", sw, nw)
}
