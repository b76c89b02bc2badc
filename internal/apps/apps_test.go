package apps

import (
	"testing"
)

// Every benchmark must produce functionally correct results in all three
// variants — the accelerated versions compute real answers through the
// simulated adapter, not just timings.

func checkAll(t *testing.T, name string, run func(v Variant) Result) (cpu, duet, fpsoc Result) {
	t.Helper()
	cpu = run(VariantCPU)
	if cpu.Err != nil {
		t.Fatalf("%s/CPU: %v", name, cpu.Err)
	}
	duet = run(VariantDuet)
	if duet.Err != nil {
		t.Fatalf("%s/Duet: %v", name, duet.Err)
	}
	fpsoc = run(VariantFPSoC)
	if fpsoc.Err != nil {
		t.Fatalf("%s/FPSoC: %v", name, fpsoc.Err)
	}
	if cpu.Runtime <= 0 || duet.Runtime <= 0 || fpsoc.Runtime <= 0 {
		t.Fatalf("%s: zero runtime (cpu=%v duet=%v fpsoc=%v)", name, cpu.Runtime, duet.Runtime, fpsoc.Runtime)
	}
	sd := float64(cpu.Runtime) / float64(duet.Runtime)
	sf := float64(cpu.Runtime) / float64(fpsoc.Runtime)
	t.Logf("%-10s cpu=%8v duet=%8v (%.2fx) fpsoc=%8v (%.2fx)", name, cpu.Runtime, duet.Runtime, sd, fpsoc.Runtime, sf)
	return cpu, duet, fpsoc
}

func TestTangentAllVariants(t *testing.T) {
	cfg := TangentConfig{Calls: 64, Seed: 3}
	_, duet, fpsoc := checkAll(t, "tangent", func(v Variant) Result { return RunTangent(v, cfg) })
	if duet.Runtime >= fpsoc.Runtime {
		t.Errorf("tangent: Duet (%v) not faster than FPSoC (%v)", duet.Runtime, fpsoc.Runtime)
	}
}

func TestPopcountAllVariants(t *testing.T) {
	cfg := PopcountConfig{Vectors: 24, Seed: 5}
	cpu, duet, _ := checkAll(t, "popcount", func(v Variant) Result { return RunPopcount(v, cfg) })
	if duet.Runtime >= cpu.Runtime {
		t.Errorf("popcount: no speedup (duet %v vs cpu %v)", duet.Runtime, cpu.Runtime)
	}
}

func TestSortAllVariants(t *testing.T) {
	for _, n := range []int{32, 64, 128} {
		cfg := SortConfig{N: n, Rounds: 2, Seed: uint64(n)}
		cpu, duet, fpsoc := checkAll(t, "sort", func(v Variant) Result { return RunSort(v, cfg) })
		if duet.Runtime >= cpu.Runtime {
			t.Errorf("sort/%d: no speedup", n)
		}
		if duet.Runtime >= fpsoc.Runtime {
			t.Errorf("sort/%d: Duet not faster than FPSoC", n)
		}
	}
}

func TestDijkstraAllVariants(t *testing.T) {
	cfg := DijkstraConfig{Nodes: 64, AvgDegree: 4, Seed: 17}
	checkAll(t, "dijkstra", func(v Variant) Result { return RunDijkstra(v, cfg) })
}

func TestBarnesHutAllVariants(t *testing.T) {
	cfg := BHConfig{Particles: 32, Theta: 0.5, Seed: 21}
	cpu, duet, _ := checkAll(t, "barnes-hut", func(v Variant) Result { return RunBarnesHut(v, cfg) })
	if duet.Runtime >= cpu.Runtime {
		t.Errorf("barnes-hut: no speedup")
	}
}

func TestPDESAllVariants(t *testing.T) {
	cfg := PDESConfig{Cores: 4, Population: 16, Horizon: 150, Seed: 11}
	cpu, duet, _ := checkAll(t, "pdes/4", func(v Variant) Result { return RunPDES(v, cfg) })
	if duet.Runtime >= cpu.Runtime {
		t.Errorf("pdes: no speedup")
	}
}

func TestBFSAllVariants(t *testing.T) {
	cfg := BFSConfig{Cores: 4, Nodes: 128, AvgDegree: 4, Seed: 13}
	cpu, duet, _ := checkAll(t, "bfs/4", func(v Variant) Result { return RunBFS(v, cfg) })
	if duet.Runtime >= cpu.Runtime {
		t.Errorf("bfs: no speedup")
	}
}

// TestFig12Shape runs a reduced Fig. 12 and validates the paper's
// qualitative claims: Duet beats FPSoC on every benchmark, sort and BFS
// dominate the speedups, and the BFS baseline degrades with core count
// (the superlinear scaling effect of §V-D).
func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig.12 sweep in -short mode")
	}
	sortRow := RunOne(Benchmark{Name: "sort/64", Run: func(v Variant) Result {
		return RunSort(v, SortConfig{N: 64, Rounds: 3, Seed: 8})
	}})
	if sortRow.Err != nil {
		t.Fatal(sortRow.Err)
	}
	if sortRow.SpeedupDuet < 4 {
		t.Errorf("sort/64 Duet speedup %.1fx, want >4x (paper 12.9x)", sortRow.SpeedupDuet)
	}
	if sortRow.SpeedupDuet <= sortRow.SpeedupFPSoC {
		t.Errorf("sort/64: FPSoC (%.1fx) not below Duet (%.1fx)", sortRow.SpeedupFPSoC, sortRow.SpeedupDuet)
	}

	// BFS baseline degradation: CPU runtime should not improve from 4 to
	// 8 cores (lock contention), while Duet keeps scaling.
	bfs4 := RunBFS(VariantCPU, BFSConfig{Cores: 4, Nodes: 384, AvgDegree: 4, Seed: 13})
	bfs8 := RunBFS(VariantCPU, BFSConfig{Cores: 8, Nodes: 384, AvgDegree: 4, Seed: 13})
	if bfs4.Err != nil || bfs8.Err != nil {
		t.Fatalf("bfs baseline: %v %v", bfs4.Err, bfs8.Err)
	}
	t.Logf("bfs CPU baseline: 4 cores %v, 8 cores %v", bfs4.Runtime, bfs8.Runtime)
	if float64(bfs8.Runtime) < 0.9*float64(bfs4.Runtime) {
		t.Errorf("bfs CPU baseline improved substantially from 4 to 8 cores (%v -> %v); paper reports degradation",
			bfs4.Runtime, bfs8.Runtime)
	}
	d4 := RunBFS(VariantDuet, BFSConfig{Cores: 4, Nodes: 384, AvgDegree: 4, Seed: 13})
	d8 := RunBFS(VariantDuet, BFSConfig{Cores: 8, Nodes: 384, AvgDegree: 4, Seed: 13})
	if d4.Err != nil || d8.Err != nil {
		t.Fatalf("bfs duet: %v %v", d4.Err, d8.Err)
	}
	t.Logf("bfs Duet: 4 cores %v, 8 cores %v", d4.Runtime, d8.Runtime)
	if d8.Runtime >= d4.Runtime {
		t.Errorf("bfs Duet did not scale from 4 to 8 cores (%v -> %v)", d4.Runtime, d8.Runtime)
	}
}

// TestMultiCoreDeterministic: a multi-core run is a pure function of its
// configuration. Two bfs/4 runs in one process must produce identical
// Fig. 12 rows; invalidation order once followed Go map iteration over
// a line's directory sharers and made the CPU runtime vary run to run.
func TestMultiCoreDeterministic(t *testing.T) {
	var bfs4 Benchmark
	for _, b := range All() {
		if b.Name == "bfs/4" {
			bfs4 = b
		}
	}
	if bfs4.Run == nil {
		t.Fatal("bfs/4 missing from the Fig. 12 set")
	}
	first, second := RunOne(bfs4), RunOne(bfs4)
	if first != second {
		t.Fatalf("bfs/4 diverged between runs:\n%+v\n%+v", first, second)
	}
}
