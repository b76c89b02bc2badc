// Tests for the Duet Adapter's driver-facing contracts: the programming
// engine's busy guard across its two entry points (MMIO RegProgram and
// ProgramAsync), the Memory Hub quiesce/resume mask semantics the
// scheduler's reprogramming flow leans on, residency tracking across
// reprograms, and the wedged outcome of the bounded programming poll.
// The package is exercised through a built System, as a driver would.
package core_test

import (
	"strings"
	"testing"

	"duet"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/sim"
)

// inert is an accelerator that spawns nothing.
type inert struct{}

func (inert) Start(*efpga.Env) {}

// slowBitstream hand-builds a bitstream whose configuration image streams
// for about bytes/16 fast cycles — long enough to observe the engine
// mid-flight.
func slowBitstream(name string, bytes int) *efpga.Bitstream {
	return efpga.NewBitstream(name, efpga.Resources{}, 0, make([]byte, bytes),
		func() efpga.Accelerator { return inert{} })
}

func quickBitstream(name string) *efpga.Bitstream {
	return efpga.Synthesize(efpga.Design{Name: name, LUTLogic: 20, PipelineDepth: 2},
		func() efpga.Accelerator { return inert{} })
}

// TestRegProgramRejectedWhileProgramAsyncStreams: the MMIO RegProgram
// flow must bounce off an in-flight ProgramAsync stream without
// disturbing it — the busy guard seen from the MMIO side.
func TestRegProgramRejectedWhileProgramAsyncStreams(t *testing.T) {
	sys := duet.New(duet.Config{Cores: 1, MemHubs: 1, Style: duet.StyleDuet})
	big := slowBitstream("big", 1<<20)
	small := quickBitstream("small")
	bigID := sys.Fabric.MustRegister(big)
	smallID := sys.Fabric.MustRegister(small)

	var asyncErr error
	asyncDone := false
	sys.Adapter.ProgramAsync(bigID, func(err error) { asyncDone = true; asyncErr = err })

	var midStatus uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		// Lands while the big image is still streaming (~65k fast cycles).
		p.MMIOWrite64(duet.MgrRegAddr(core.RegProgram), uint64(smallID))
		midStatus = p.MMIORead64(duet.MgrRegAddr(core.RegStatus)) & 0xff
	})
	sys.Run()

	if midStatus != core.StatusProgramming {
		t.Fatalf("status during stream = %d, want programming (%d)", midStatus, core.StatusProgramming)
	}
	if !asyncDone || asyncErr != nil {
		t.Fatalf("first flow: done=%v err=%v", asyncDone, asyncErr)
	}
	if cur := sys.Fabric.Current(); cur != big {
		t.Fatalf("resident = %v, want %q (rejected RegProgram must not steal the engine)", cur, big.Name)
	}
}

// TestProgramAsyncRejectedWhileRegProgramStreams: the busy guard seen
// from the other side — ProgramAsync must fail fast while the MMIO flow
// owns the engine, and report the busy error through its callback.
func TestProgramAsyncRejectedWhileRegProgramStreams(t *testing.T) {
	sys := duet.New(duet.Config{Cores: 1, MemHubs: 1, Style: duet.StyleDuet})
	big := slowBitstream("big", 1<<20)
	small := quickBitstream("small")
	bigID := sys.Fabric.MustRegister(big)
	smallID := sys.Fabric.MustRegister(small)

	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(duet.MgrRegAddr(core.RegProgram), uint64(bigID))
	})
	var asyncErr error
	asyncCalled := false
	// 1us: past the MMIO round trip that starts the stream, well before
	// the ~megabyte image finishes streaming.
	sys.Eng.After(1*sim.US, func() {
		sys.Adapter.ProgramAsync(smallID, func(err error) { asyncCalled = true; asyncErr = err })
	})
	sys.Run()

	if !asyncCalled || asyncErr == nil {
		t.Fatalf("concurrent ProgramAsync: called=%v err=%v, want busy rejection", asyncCalled, asyncErr)
	}
	if !strings.Contains(asyncErr.Error(), "busy") {
		t.Fatalf("rejection error = %v, want engine-busy", asyncErr)
	}
	if cur := sys.Fabric.Current(); cur != big {
		t.Fatalf("resident = %v, want %q", cur, big.Name)
	}
}

// TestProgramAsyncRequiresQuiescedHubs: an enabled Memory Hub must fail
// the preconditions (paper §II-B), latch ErrProgram, and leave the
// engine reusable after ClearError + quiesce.
func TestProgramAsyncRequiresQuiescedHubs(t *testing.T) {
	sys := duet.New(duet.Config{Cores: 1, MemHubs: 2, Style: duet.StyleDuet})
	bs := quickBitstream("guarded")
	id := sys.Fabric.MustRegister(bs)

	sys.Adapter.ResumeHubs(1 << 1) // hub 1 enabled: preconditions violated
	var err1 error
	sys.Adapter.ProgramAsync(id, func(err error) { err1 = err })
	if err1 == nil {
		t.Fatal("programming succeeded with an enabled memory hub")
	}
	if code := sys.Adapter.ErrCode(); code != core.ErrProgram {
		t.Fatalf("latched error = %d, want ErrProgram (%d)", code, core.ErrProgram)
	}

	sys.Adapter.ClearError()
	sys.Adapter.QuiesceHubs()
	var err2 error
	sys.Adapter.ProgramAsync(id, func(err error) { err2 = err })
	sys.Run()
	if err2 != nil {
		t.Fatalf("programming after quiesce failed: %v", err2)
	}
	if sys.Fabric.Current() != bs {
		t.Fatal("bitstream not configured after recovery")
	}
}

// TestQuiesceResumeMaskSemantics: QuiesceHubs returns exactly the set of
// previously enabled hubs; ResumeHubs applies its mask bit-for-bit,
// ignores bits past the hub count, and a double quiesce reports nothing
// enabled.
func TestQuiesceResumeMaskSemantics(t *testing.T) {
	sys := duet.New(duet.Config{Cores: 1, MemHubs: 3, Style: duet.StyleDuet})
	ad := sys.Adapter
	enabled := func() (m uint64) {
		for i, h := range ad.Hubs() {
			if h.Enabled() {
				m |= 1 << i
			}
		}
		return m
	}

	if got := ad.QuiesceHubs(); got != 0 {
		t.Fatalf("quiesce of untouched adapter = %#b, want 0", got)
	}

	// Enable hubs 0 and 2 the way a driver would, over MMIO.
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		duet.EnableHub(p, 0, false, false, false)
		duet.EnableHub(p, 2, true, true, false)
	})
	sys.Run()
	if got := enabled(); got != 0b101 {
		t.Fatalf("enabled after MMIO = %#b, want 0b101", got)
	}

	saved := ad.QuiesceHubs()
	if saved != 0b101 {
		t.Fatalf("quiesce mask = %#b, want 0b101", saved)
	}
	if got := enabled(); got != 0 {
		t.Fatalf("hubs still enabled after quiesce: %#b", got)
	}
	if again := ad.QuiesceHubs(); again != 0 {
		t.Fatalf("double quiesce = %#b, want 0", again)
	}

	// Faithful restore, with garbage bits past the hub count ignored.
	ad.ResumeHubs(saved | 1<<63 | 1<<7)
	if got := enabled(); got != 0b101 {
		t.Fatalf("restore = %#b, want 0b101", got)
	}
	// A partial mask disables what it omits.
	ad.ResumeHubs(0b010)
	if got := enabled(); got != 0b010 {
		t.Fatalf("partial resume = %#b, want 0b010", got)
	}
	// The scheduler's grant-everything mask.
	ad.ResumeHubs(^uint64(0))
	if got := enabled(); got != 0b111 {
		t.Fatalf("resume all = %#b, want 0b111", got)
	}
	ad.ResumeHubs(0)
	if got := enabled(); got != 0 {
		t.Fatalf("resume none = %#b, want 0", got)
	}
}

// TestResidentTracksReprogramming: Resident reports nil before any
// configuration and follows the installed bitstream across ProgramAsync
// reprograms — the query the scheduler's reuse-aware placement trusts.
func TestResidentTracksReprogramming(t *testing.T) {
	sys := duet.New(duet.Config{Cores: 1, MemHubs: 1, Style: duet.StyleDuet})
	a := quickBitstream("appA")
	b := quickBitstream("appB")
	idA := sys.Fabric.MustRegister(a)
	idB := sys.Fabric.MustRegister(b)

	if got := sys.Adapter.Resident(); got != nil {
		t.Fatalf("resident before configuration = %v, want nil", got)
	}
	sys.Adapter.ProgramAsync(idA, func(err error) {
		if err != nil {
			t.Errorf("program appA: %v", err)
		}
	})
	sys.Run()
	if got := sys.Adapter.Resident(); got != a {
		t.Fatalf("resident = %v, want appA", got)
	}
	sys.Adapter.ProgramAsync(idB, func(err error) {
		if err != nil {
			t.Errorf("reprogram appB: %v", err)
		}
	})
	sys.Run()
	if got := sys.Adapter.Resident(); got != b {
		t.Fatalf("resident after reprogram = %v, want appB", got)
	}
}

// TestBoundedPollReportsWedged: a glacial configuration image keeps the
// engine in StatusProgramming past the host's poll bound; the bounded
// poll must give up with the distinct wedged outcome (never hanging the
// host), further programming attempts during the wedge must bounce off
// the busy guard, and the background stream must still complete.
func TestBoundedPollReportsWedged(t *testing.T) {
	sys := duet.New(duet.Config{Cores: 1, MemHubs: 1, Style: duet.StyleDuet})
	glacial := slowBitstream("glacial", 16<<20)
	small := quickBitstream("small")
	glacialID := sys.Fabric.MustRegister(glacial)
	smallID := sys.Fabric.MustRegister(small)

	var st duet.ProgStatus
	var wedgedStatus uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		st = duet.ProgramStatus(p, glacialID)
		// Still streaming after the poll bound: the engine is visibly
		// busy, and a retry with another image is rejected.
		wedgedStatus = p.MMIORead64(duet.MgrRegAddr(core.RegStatus)) & 0xff
		p.MMIOWrite64(duet.MgrRegAddr(core.RegProgram), uint64(smallID))
	})
	sys.Run()

	if st != duet.ProgWedged {
		t.Fatalf("poll status = %v, want %v", st, duet.ProgWedged)
	}
	if wedgedStatus != core.StatusProgramming {
		t.Fatalf("status after wedged poll = %d, want programming (%d)", wedgedStatus, core.StatusProgramming)
	}
	if cur := sys.Fabric.Current(); cur != glacial {
		t.Fatalf("resident = %v, want the glacial image (stream must finish in the background)", cur)
	}
}
