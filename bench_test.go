// Benchmarks regenerating every table and figure of the paper's
// evaluation (§V). Each benchmark runs the corresponding experiment and
// reports its headline quantity through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. Absolute numbers come from the
// cycle-level models; README.md and PERF.md discuss paper-vs-measured.
package duet_test

import (
	"flag"
	"runtime"
	"strconv"
	"testing"

	"duet/internal/accel"
	"duet/internal/apps"
	"duet/internal/cluster"
	"duet/internal/sched"
	"duet/internal/sim"
	"duet/internal/workload"
)

// studyParallel is the sweep benches' study-pool width: the standard
// `go test -parallel N` flag (which the testing package registers as
// test.parallel and otherwise applies only to parallel tests), so
//
//	go test -bench 'Fig9|Fig10|Ablation' -parallel 1 .
//	go test -bench 'Fig9|Fig10|Ablation' -parallel 4 .
//
// compare the sequential baseline against a 4-wide pool on identical
// grids. It defaults to GOMAXPROCS, like duetsim -parallel.
func studyParallel() int {
	if f := flag.Lookup("test.parallel"); f != nil {
		if n, err := strconv.Atoi(f.Value.String()); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// BenchmarkTableII runs the synthesis cost model over all nine
// accelerator designs (Table II).
func BenchmarkTableII(b *testing.B) {
	var fmaxSum float64
	for i := 0; i < b.N; i++ {
		fmaxSum = 0
		for _, r := range accel.TableII() {
			fmaxSum += r.FmaxMHz
		}
	}
	b.ReportMetric(fmaxSum/float64(len(accel.PaperTableII)), "mean-Fmax-MHz")
}

// Fig. 9: single-transaction round-trip latency per mechanism (100 MHz
// eFPGA — the paper's most-cited operating point).
func benchFig9(b *testing.B, m workload.Mechanism) {
	var r workload.Fig9Row
	for i := 0; i < b.N; i++ {
		r = workload.MeasureLatency(m, 100)
	}
	b.ReportMetric(r.Total.Nanoseconds(), "latency-ns")
	b.ReportMetric(r.Breakdown[sim.CatCDC].Nanoseconds(), "cdc-ns")
}

// BenchmarkFig9Sweep regenerates the full Fig. 9 grid (6 mechanisms x 3
// frequencies) through the study runner at the -parallel pool width —
// the wall-clock acceptance probe for the parallel runner.
func BenchmarkFig9Sweep(b *testing.B) {
	var rows []workload.Fig9Row
	for i := 0; i < b.N; i++ {
		rows = workload.Fig9P(studyParallel(), nil)
	}
	b.ReportMetric(float64(len(rows)), "points")
}

func BenchmarkFig9_NormalReg(b *testing.B)     { benchFig9(b, workload.NormalReg) }
func BenchmarkFig9_ShadowReg(b *testing.B)     { benchFig9(b, workload.ShadowReg) }
func BenchmarkFig9_CPUPullProxy(b *testing.B)  { benchFig9(b, workload.CPUPullProxy) }
func BenchmarkFig9_CPUPullSlow(b *testing.B)   { benchFig9(b, workload.CPUPullSlow) }
func BenchmarkFig9_FPGAPullProxy(b *testing.B) { benchFig9(b, workload.FPGAPullProxy) }
func BenchmarkFig9_FPGAPullSlow(b *testing.B)  { benchFig9(b, workload.FPGAPullSlow) }

// Fig. 10: sustained bandwidth per mechanism at 100 MHz.
func benchFig10(b *testing.B, m workload.Mechanism) {
	var r workload.Fig10Row
	for i := 0; i < b.N; i++ {
		r = workload.MeasureBandwidth(m, 100)
	}
	b.ReportMetric(r.MBps, "MB/s")
}

// BenchmarkFig10Sweep regenerates the full Fig. 10 grid (6 mechanisms x
// 5 frequencies) through the study runner at the -parallel pool width.
func BenchmarkFig10Sweep(b *testing.B) {
	var rows []workload.Fig10Row
	for i := 0; i < b.N; i++ {
		rows = workload.Fig10P(studyParallel(), nil)
	}
	b.ReportMetric(float64(len(rows)), "points")
}

func BenchmarkFig10_NormalReg(b *testing.B)     { benchFig10(b, workload.NormalReg) }
func BenchmarkFig10_ShadowReg(b *testing.B)     { benchFig10(b, workload.ShadowReg) }
func BenchmarkFig10_CPUPullProxy(b *testing.B)  { benchFig10(b, workload.CPUPullProxy) }
func BenchmarkFig10_CPUPullSlow(b *testing.B)   { benchFig10(b, workload.CPUPullSlow) }
func BenchmarkFig10_FPGAPullProxy(b *testing.B) { benchFig10(b, workload.FPGAPullProxy) }
func BenchmarkFig10_FPGAPullSlow(b *testing.B)  { benchFig10(b, workload.FPGAPullSlow) }

// Fig. 11: per-processor soft register bandwidth under contention
// (8 processors, the paper's shadow-register knee).
func benchFig11(b *testing.B, k workload.ContentionKind, procs int) {
	var r workload.Fig11Row
	for i := 0; i < b.N; i++ {
		r = workload.MeasureContention(k, procs)
	}
	b.ReportMetric(r.PerProcMBps, "MB/s-per-proc")
}

// BenchmarkFig11Sweep regenerates a Fig. 11 grid (4 series x 4 processor
// counts) through the study runner at the -parallel pool width.
func BenchmarkFig11Sweep(b *testing.B) {
	var rows []workload.Fig11Row
	for i := 0; i < b.N; i++ {
		rows = workload.Fig11P(studyParallel(), []int{1, 2, 4, 8})
	}
	b.ReportMetric(float64(len(rows)), "points")
}

func BenchmarkFig11_NormalWrite8(b *testing.B) { benchFig11(b, workload.NormalRegWrite, 8) }
func BenchmarkFig11_NormalRead8(b *testing.B)  { benchFig11(b, workload.NormalRegRead, 8) }
func BenchmarkFig11_ShadowWrite8(b *testing.B) { benchFig11(b, workload.ShadowRegWrite, 8) }
func BenchmarkFig11_ShadowRead8(b *testing.B)  { benchFig11(b, workload.ShadowRegRead, 8) }

// Fig. 12: per-benchmark Duet and FPSoC speedups (reduced workload sizes
// keep each iteration fast; the duetsim CLI runs the full sizes).
func benchFig12(b *testing.B, bench apps.Benchmark) {
	var row apps.Fig12Row
	for i := 0; i < b.N; i++ {
		row = apps.RunOne(bench)
		if row.Err != nil {
			b.Fatal(row.Err)
		}
	}
	b.ReportMetric(row.SpeedupDuet, "speedup-duet")
	b.ReportMetric(row.SpeedupFPSoC, "speedup-fpsoc")
	b.ReportMetric(row.ADPDuet, "adp-duet")
}

func BenchmarkFig12_Tangent(b *testing.B) {
	benchFig12(b, apps.Benchmark{Name: "tangent", Run: func(v apps.Variant) apps.Result {
		return apps.RunTangent(v, apps.TangentConfig{Calls: 96, Seed: 3})
	}})
}

func BenchmarkFig12_Popcount(b *testing.B) {
	benchFig12(b, apps.Benchmark{Name: "popcount", Run: func(v apps.Variant) apps.Result {
		return apps.RunPopcount(v, apps.PopcountConfig{Vectors: 48, Seed: 5})
	}})
}

func BenchmarkFig12_Sort32(b *testing.B) {
	benchFig12(b, apps.Benchmark{Name: "sort/32", Run: func(v apps.Variant) apps.Result {
		return apps.RunSort(v, apps.SortConfig{N: 32, Rounds: 4, Seed: 7})
	}})
}

func BenchmarkFig12_Sort64(b *testing.B) {
	benchFig12(b, apps.Benchmark{Name: "sort/64", Run: func(v apps.Variant) apps.Result {
		return apps.RunSort(v, apps.SortConfig{N: 64, Rounds: 3, Seed: 8})
	}})
}

func BenchmarkFig12_Sort128(b *testing.B) {
	benchFig12(b, apps.Benchmark{Name: "sort/128", Run: func(v apps.Variant) apps.Result {
		return apps.RunSort(v, apps.SortConfig{N: 128, Rounds: 2, Seed: 9})
	}})
}

func BenchmarkFig12_Dijkstra(b *testing.B) {
	benchFig12(b, apps.Benchmark{Name: "dijkstra", Run: func(v apps.Variant) apps.Result {
		return apps.RunDijkstra(v, apps.DijkstraConfig{Nodes: 128, AvgDegree: 4, Queries: 3, Seed: 17})
	}})
}

func BenchmarkFig12_BarnesHut(b *testing.B) {
	benchFig12(b, apps.Benchmark{Name: "barnes-hut", Run: func(v apps.Variant) apps.Result {
		return apps.RunBarnesHut(v, apps.BHConfig{Particles: 48, Theta: 0.5, Seed: 21})
	}})
}

func BenchmarkFig12_PDES4(b *testing.B) {
	benchFig12(b, apps.Benchmark{Name: "pdes/4", Run: func(v apps.Variant) apps.Result {
		return apps.RunPDES(v, apps.PDESConfig{Cores: 4, Population: 24, Horizon: 250, Seed: 11})
	}})
}

func BenchmarkFig12_PDES16(b *testing.B) {
	benchFig12(b, apps.Benchmark{Name: "pdes/16", Run: func(v apps.Variant) apps.Result {
		return apps.RunPDES(v, apps.PDESConfig{Cores: 16, Population: 24, Horizon: 250, Seed: 11})
	}})
}

func BenchmarkFig12_BFS4(b *testing.B) {
	benchFig12(b, apps.Benchmark{Name: "bfs/4", Run: func(v apps.Variant) apps.Result {
		return apps.RunBFS(v, apps.BFSConfig{Cores: 4, Nodes: 256, AvgDegree: 4, Seed: 13})
	}})
}

func BenchmarkFig12_BFS16(b *testing.B) {
	benchFig12(b, apps.Benchmark{Name: "bfs/16", Run: func(v apps.Variant) apps.Result {
		return apps.RunBFS(v, apps.BFSConfig{Cores: 16, Nodes: 256, AvgDegree: 4, Seed: 13})
	}})
}

// BenchmarkServeCluster measures the sharded serve farm (internal/cluster)
// against the single-System scheduler baseline on the same offered load: a
// saturating seeded stream (5us mean gap — several times one System's
// service capacity) played through 1 System and through 4 shards behind a
// least-outstanding front end. The scaling-x metric is the acceptance bar:
// 4 shards must deliver >2x the 1-shard job throughput.
func BenchmarkServeCluster(b *testing.B) {
	cfg := workload.ServeConfig{Policy: sched.Affinity, Jobs: 320, Seed: 1, MeanGapUS: 5, QueueCap: 1024}
	var base workload.ServeResult
	var sharded workload.ClusterResult
	for i := 0; i < b.N; i++ {
		base = workload.Serve(cfg)
		r, err := workload.ServeCluster(workload.ClusterConfig{
			ServeConfig: cfg, Shards: 4, FrontEnd: cluster.LeastOutstanding,
		})
		if err != nil {
			b.Fatal(err)
		}
		sharded = r
	}
	b.ReportMetric(base.ThroughputPerMS, "jobs/ms-1shard")
	b.ReportMetric(sharded.Merged.ThroughputPerMS, "jobs/ms-4shard")
	b.ReportMetric(sharded.Merged.ThroughputPerMS/base.ThroughputPerMS, "scaling-x")
}

// --- Ablation benches (design choices DESIGN.md calls out) -----------------

// BenchmarkAblationSweep runs the hub-window + CDC-depth ablation grid
// (`duetsim ablate`) through the study runner at the -parallel width.
func BenchmarkAblationSweep(b *testing.B) {
	var res workload.AblationResult
	for i := 0; i < b.N; i++ {
		res = workload.Ablation(studyParallel(), nil, nil, 100)
	}
	b.ReportMetric(float64(len(res.HubWindow)+len(res.SyncDepth)), "points")
}

// BenchmarkAblation_BFSLockDiscipline compares the BFS baseline's naive
// test-and-set lock against an MCS queue lock: the Duet speedup shrinks
// when the baseline synchronizes better, isolating how much of the win
// comes from replacing contended locks with hardware queues.
func BenchmarkAblation_BFSLockDiscipline(b *testing.B) {
	var tas, mcs apps.Result
	for i := 0; i < b.N; i++ {
		tas = apps.RunBFS(apps.VariantCPU, apps.BFSConfig{Cores: 8, Nodes: 256, AvgDegree: 4, Seed: 13})
		mcs = apps.RunBFS(apps.VariantCPU, apps.BFSConfig{Cores: 8, Nodes: 256, AvgDegree: 4, Seed: 13, UseMCS: true})
		if tas.Err != nil || mcs.Err != nil {
			b.Fatal(tas.Err, mcs.Err)
		}
	}
	b.ReportMetric(tas.Runtime.Nanoseconds(), "tas-baseline-ns")
	b.ReportMetric(mcs.Runtime.Nanoseconds(), "mcs-baseline-ns")
}

// BenchmarkAblation_SoftCache runs Dijkstra with and without the soft
// cache (Duet vs FPSoC bitstreams differ exactly by the soft cache's
// fabric resources — the paper's §V-D area discussion).
func BenchmarkAblation_SoftCache(b *testing.B) {
	var duet apps.Result
	for i := 0; i < b.N; i++ {
		duet = apps.RunDijkstra(apps.VariantDuet, apps.DijkstraConfig{Nodes: 128, AvgDegree: 4, Queries: 3, Seed: 17})
		if duet.Err != nil {
			b.Fatal(duet.Err)
		}
	}
	b.ReportMetric(duet.Runtime.Nanoseconds(), "duet-ns")
	b.ReportMetric(duet.AreaMM2, "duet-mm2")
}

// BenchmarkAblation_HubWindow sweeps the Proxy Cache's in-flight request
// window (the knob behind Fig. 10's bandwidth ceiling, §V-C).
func BenchmarkAblation_HubWindow(b *testing.B) {
	var bw1, bw2, bw4 float64
	for i := 0; i < b.N; i++ {
		bw1 = workload.MeasureHubWindow(1, 100)
		bw2 = workload.MeasureHubWindow(2, 100)
		bw4 = workload.MeasureHubWindow(4, 100)
	}
	b.ReportMetric(bw1, "MB/s-1-outstanding")
	b.ReportMetric(bw2, "MB/s-2-outstanding")
	b.ReportMetric(bw4, "MB/s-4-outstanding")
}

// BenchmarkAblation_SyncDepth sweeps the CDC synchronizer depth (paper
// §IV uses Gray-coded 2-stage synchronizers): every extra stage costs a
// reader-domain cycle on every crossing.
func BenchmarkAblation_SyncDepth(b *testing.B) {
	var s2, s3, s4 sim.Time
	for i := 0; i < b.N; i++ {
		s2 = workload.MeasureSyncStagesLatency(2, 100)
		s3 = workload.MeasureSyncStagesLatency(3, 100)
		s4 = workload.MeasureSyncStagesLatency(4, 100)
	}
	b.ReportMetric(s2.Nanoseconds(), "ns-2stage")
	b.ReportMetric(s3.Nanoseconds(), "ns-3stage")
	b.ReportMetric(s4.Nanoseconds(), "ns-4stage")
}

// BenchmarkExtension_SpeculativePDES runs the paper's §III-B2 extension:
// the task scheduler with speculation (versioned copies in non-coherent
// memory, rollback on mis-speculation) against the same scheduler run
// conservatively, in the tight-lookahead regime where the conservative
// window starves.
func BenchmarkExtension_SpeculativePDES(b *testing.B) {
	var cons, spec apps.Result
	for i := 0; i < b.N; i++ {
		cfg := apps.PDESSpecConfig{Cores: 8, Population: 6, Horizon: 1200, MinDelay: 1, Seed: 31}
		cons, _ = apps.RunPDESSpec(cfg)
		cfg.Speculate = true
		spec, _ = apps.RunPDESSpec(cfg)
		if cons.Err != nil || spec.Err != nil {
			b.Fatal(cons.Err, spec.Err)
		}
	}
	b.ReportMetric(cons.Runtime.Nanoseconds(), "conservative-ns")
	b.ReportMetric(spec.Runtime.Nanoseconds(), "speculative-ns")
	b.ReportMetric(float64(cons.Runtime)/float64(spec.Runtime), "speculation-speedup")
}
