// Fault isolation: the Duet Adapter's exception containment (§II-B, §II-E).
// A buggy accelerator — one that emits a corrupted memory request and then
// hangs — must not take down the system: the exception handler latches an
// error code, deactivates the Memory Hubs, and the Soft Register Interface
// returns bogus data instead of stalling the processors; meanwhile the
// Proxy Cache keeps answering coherence traffic, so lines the accelerator
// had modified stay reachable.
//
// Run with: go run ./examples/faultisolation
package main

import (
	"fmt"
	"log"

	"duet"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/sim"
)

type buggyAccel struct{ addr uint64 }

func (a *buggyAccel) Start(env *efpga.Env) {
	env.Eng.Go("buggy", func(t *sim.Thread) {
		env.Regs.PopFPGA(t, 0) // wait for go
		var buf [8]byte
		buf[0] = 0x77
		if err := env.Mem[0].Store(t, a.addr, buf[:]); err != nil {
			return
		}
		env.Regs.PushCPU(t, 1, 1)
		env.Regs.PopFPGA(t, 0) // wait for the second go
		// This request arrives corrupted (parity fault injected below),
		// after which the accelerator never responds again.
		env.Mem[0].Load(t, a.addr, 8)
		env.Regs.PopFPGA(t, 0) // hangs forever
	})
}

func main() {
	sys := duet.New(duet.Config{
		Cores: 1, MemHubs: 1, Style: duet.StyleDuet,
		RegSpecs: []core.SoftRegSpec{
			{Kind: core.RegFIFOToFPGA},
			{Kind: core.RegFIFOToCPU},
		},
	})
	defer sys.Close()
	addr := sys.Alloc(64)
	bs := efpga.Synthesize(efpga.Design{Name: "buggy", LUTLogic: 80, RegBits: 64, PipelineDepth: 3},
		func() efpga.Accelerator { return &buggyAccel{addr: addr} })
	if err := sys.InstallAccelerator(bs); err != nil {
		log.Fatal(err)
	}

	sys.Cores[0].Run("host", func(p cpu.Proc) {
		p.MMIOWrite64(duet.MgrRegAddr(core.RegTimeout), 20000) // 20us watchdog
		duet.EnableHub(p, 0, false, false, false)
		p.MMIOWrite64(duet.SoftRegAddr(0), 1) // go
		p.MMIORead64(duet.SoftRegAddr(1))     // accelerator's store done
		fmt.Println("accelerator wrote 0x77 through its Proxy Cache")

		sys.Adapter.Hub(0).InjectParityFaults(1)
		fmt.Println("injected a parity fault into the next eFPGA request...")
		p.MMIOWrite64(duet.SoftRegAddr(0), 1) // make it issue the bad load

		// This read would hang on the dead accelerator; the watchdog
		// completes it with bogus data instead of halting the core.
		v := p.MMIORead64(duet.SoftRegAddr(1))
		fmt.Printf("blocking FIFO read returned bogus 0x%x instead of deadlocking\n", v)

		// The coherence protocol survived: the accelerator's line is
		// still served by the (deactivated hub's) Proxy Cache.
		fmt.Printf("CPU pull of the accelerator's line: 0x%x\n", p.Load64(addr))
	})
	if _, err := sys.RunChecked(); err != nil {
		log.Fatalf("coherence broken after exception: %v", err)
	}
	name := map[uint64]string{core.ErrTimeout: "timeout", core.ErrParity: "parity"}
	fmt.Printf("error code latched: %d (%s), hub enabled: %v — system alive\n",
		sys.Adapter.ErrCode(), name[sys.Adapter.ErrCode()], sys.Adapter.Hub(0).Enabled())
}
