package duet

import (
	"fmt"
	"testing"

	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/params"
	"duet/internal/sim"
)

// A watchdog armed under the default limit is still queued when RegTimeout
// shortens the limit: the later, shorter watchdog must fire on time, and
// the older one's expiry must time out nothing.
func TestWatchdogShortenedLimit(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 0, Style: StyleDuet, RegSpecs: echoSpecs()})
	const normalReg, cpuFifo = 3, 1
	var issued, returned sim.Time
	var got uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(SoftRegAddr(normalReg), 7) // arms a default-limit watchdog
		p.MMIOWrite64(MgrRegAddr(core.RegTimeout), 5000)
		issued = p.Now()
		got = p.MMIORead64(SoftRegAddr(cpuFifo)) // nothing ever pushes
		returned = p.Now()
	})
	end := sys.Run()

	if got != 0xdead {
		t.Fatalf("timed-out read returned %#x, want 0xdead", got)
	}
	if d := returned - issued; d < 5*sim.US || d > 6*sim.US {
		t.Fatalf("read timed out %v after it was issued, want about 5us", d)
	}
	if end < sim.Time(params.DefaultTimeoutCycles)*params.CPUClockPS {
		t.Fatalf("run ended at %v, before the default-limit watchdog expired", end)
	}
	if n := sys.Adapter.Timeouts; n != 1 {
		t.Fatalf("Timeouts = %d, want 1", n)
	}
}

// An op's record is recycled once its response is sent, while its
// watchdog stays queued. When that watchdog expires, the record may serve
// a later op that is still pending under a longer limit: the expiry must
// leave that op alone.
func TestWatchdogSparesRecycledOp(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 0, Style: StyleDuet, RegSpecs: echoSpecs()})
	const normalReg = 3
	const hold = 10 * sim.US // the second op stays pending past the first's 5us expiry
	bs := efpga.Synthesize(efpga.Design{Name: "wd", LUTLogic: 10, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Regs.Claim(normalReg)
			env.Eng.Go("wd", func(th *sim.Thread) {
				env.Regs.Complete(env.Regs.WaitOp(th, normalReg), 1)
				op := env.Regs.WaitOp(th, normalReg)
				th.Sleep(hold)
				env.Regs.Complete(op, 77)
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	var first, second, firstAt, secondAt sim.Time
	var got uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(MgrRegAddr(core.RegTimeout), 5000)
		firstAt = p.Now()
		p.MMIORead64(SoftRegAddr(normalReg)) // answered at once; its watchdog stays queued
		first = p.Now()
		p.MMIOWrite64(MgrRegAddr(core.RegTimeout), 50000)
		secondAt = p.Now()
		got = p.MMIORead64(SoftRegAddr(normalReg))
		second = p.Now()
	})
	sys.Run()

	if first-firstAt >= 5*sim.US {
		t.Fatalf("first read took %v, want it answered before its 5us watchdog", first-firstAt)
	}
	if second < firstAt+5*sim.US || second-secondAt >= 50*sim.US {
		t.Fatalf("second read returned at %v: want after the first watchdog (%v) and before its own", second, firstAt+5*sim.US)
	}
	if got != 77 {
		t.Fatalf("second read returned %#x, want the accelerator's 77", got)
	}
	if n := sys.Adapter.Timeouts; n != 0 {
		t.Fatalf("Timeouts = %d, want 0", n)
	}
}

// New reads the caller's register specs and keeps none of them: a
// defaulted depth is not written back, and a later edit of the slice does
// not reach the built system.
func TestNewCopiesRegSpecs(t *testing.T) {
	specs := []core.SoftRegSpec{{Kind: core.RegPlain}, {Kind: core.RegFIFOToFPGA}}
	sys := New(Config{Cores: 1, MemHubs: 0, Style: StyleDuet, RegSpecs: specs})
	for i, s := range specs {
		if s.Depth != 0 {
			t.Fatalf("New wrote Depth %d into the caller's spec %d", s.Depth, i)
		}
	}
	specs[0].Kind = core.RegFIFOToCPU // read-only, were it seen
	var got uint64
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(SoftRegAddr(0), 42)
		got = p.MMIORead64(SoftRegAddr(0))
	})
	sys.Run()
	if got != 42 {
		t.Fatalf("plain register read back %#x after the spec slice was edited, want 42", got)
	}
}

// A normal-register reply that arrives after its op's watchdog fired is
// dropped by the Control Hub: the read already returned 0xdead, and the
// register answers the next read normally.
func TestWatchdogDropsLateNormalReply(t *testing.T) {
	sys := New(Config{Cores: 1, MemHubs: 0, Style: StyleDuet, RegSpecs: echoSpecs()})
	const normalReg = 3
	bs := efpga.Synthesize(efpga.Design{Name: "late", LUTLogic: 10, PipelineDepth: 2}, func() efpga.Accelerator {
		return accelFunc(func(env *efpga.Env) {
			env.Regs.Claim(normalReg)
			env.Eng.Go("late", func(th *sim.Thread) {
				op := env.Regs.WaitOp(th, normalReg)
				th.Sleep(10 * sim.US) // past the 5us watchdog
				env.Regs.Complete(op, 1)
				env.Regs.Complete(env.Regs.WaitOp(th, normalReg), 2)
			})
		})
	})
	sys.Fabric.MustRegister(bs)
	if err := sys.Fabric.Configure(bs); err != nil {
		t.Fatal(err)
	}
	sys.Adapter.StartAccelerator()
	var first, second uint64
	var firstAt, secondAt sim.Time
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(MgrRegAddr(core.RegTimeout), 5000)
		first = p.MMIORead64(SoftRegAddr(normalReg))
		firstAt = p.Now()
		p.Exec(20000) // the late reply lands meanwhile
		second = p.MMIORead64(SoftRegAddr(normalReg))
		secondAt = p.Now()
	})
	end := sys.Run()
	got := fmt.Sprintf("%#x %d %d %d %d %d", first, firstAt, second, secondAt, end, sys.Adapter.Timeouts)
	if want := "0xdead 5025000 2 25107000 30032000 1"; got != want {
		t.Fatalf("first, at, second, at, end, timeouts = %s, want %s", got, want)
	}
}
