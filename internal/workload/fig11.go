package workload

import (
	"encoding/json"
	"fmt"

	"duet"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/sim"
	"duet/internal/study"

	"duet/internal/efpga"
)

// ContentionKind names the four series of Fig. 11.
type ContentionKind int

// Contention series.
const (
	NormalRegWrite ContentionKind = iota
	NormalRegRead
	ShadowRegWrite
	ShadowRegRead
	NumContentionKinds
)

func (k ContentionKind) String() string {
	return [...]string{
		"Normal Reg. Write",
		"Normal Reg. Read",
		"Shadow Reg. Write (This Work)",
		"Shadow Reg. Read (This Work)",
	}[k]
}

// MarshalJSON encodes the series as its String name for machine-readable
// study output.
func (k ContentionKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// Fig11Row is one point of Fig. 11: per-processor bandwidth with n
// processors contending on the same soft register (eFPGA at 500 MHz).
type Fig11Row struct {
	Kind        ContentionKind
	Procs       int
	PerProcMBps float64
}

const contentionOpsPerProc = 200

// MeasureContention runs the contention probe for one series and one
// processor count.
func MeasureContention(kind ContentionKind, procs int) Fig11Row {
	regKind := core.RegNormal
	if kind == ShadowRegWrite || kind == ShadowRegRead {
		regKind = core.RegPlain
	}
	sys := duet.New(duet.Config{
		Cores: procs, MemHubs: 1, Style: duet.StyleDuet,
		RegSpecs:    []core.SoftRegSpec{{Kind: regKind}},
		FPGAFreqMHz: 500,
	})
	defer sys.Close()
	install(sys, efpga.Design{Name: "regfile", LUTLogic: 64, RegBits: 64, PipelineDepth: 2}, accelNop{}, 500)

	addr := duet.SoftRegAddr(0)
	write := kind == NormalRegWrite || kind == ShadowRegWrite
	elapsed := make([]sim.Time, procs)
	for i := 0; i < procs; i++ {
		i := i
		sys.Cores[i].Run(fmt.Sprintf("contend%d", i), func(p cpu.Proc) {
			p.Exec(int64(10 * i)) // stagger starts slightly
			start := p.Now()
			for k := 0; k < contentionOpsPerProc; k++ {
				p.Exec(2)
				if write {
					p.MMIOWrite64(addr, uint64(k))
				} else {
					p.MMIORead64(addr)
				}
			}
			elapsed[i] = p.Now() - start
		})
	}
	sys.Run()

	// Per-processor bandwidth: each processor's own op stream over its
	// own elapsed time, averaged.
	total := 0.0
	for _, e := range elapsed {
		total += bytesPerSecMB(contentionOpsPerProc*8, e)
	}
	return Fig11Row{Kind: kind, Procs: procs, PerProcMBps: total / float64(procs)}
}

// Fig11P regenerates Fig. 11 on a parallel-wide study pool (<= 0 selects
// GOMAXPROCS); rows are identical for every pool width.
func Fig11P(parallel int, counts []int) []Fig11Row {
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8, 16}
	}
	return study.Run(parallel, int(NumContentionKinds)*len(counts), func(i int) Fig11Row {
		return MeasureContention(ContentionKind(i/len(counts)), counts[i%len(counts)])
	})
}

type accelNop struct{}

func (accelNop) Start(*efpga.Env) {}
