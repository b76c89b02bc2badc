package duet

import (
	"fmt"
	"math"

	"duet/internal/coherence"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/mmio"
	"duet/internal/mmu"
	"duet/internal/noc"
	"duet/internal/params"
	"duet/internal/sched"
	"duet/internal/sim"
)

// Style selects the system organization.
type Style int

// System styles.
const (
	// StyleCPUOnly is the processor-only baseline: no eFPGA, no adapter.
	StyleCPUOnly Style = iota
	// StyleDuet is the paper's architecture: fast-domain Proxy Caches and
	// Shadow Registers in Duet Adapters.
	StyleDuet
	// StyleFPSoC is the §V-D baseline: the FPGA-side cache runs in the
	// slow clock domain and all shadow registers are downgraded to
	// normal registers.
	StyleFPSoC
)

func (s Style) String() string {
	names := [...]string{"cpu-only", "duet", "fpsoc"}
	if s < 0 || int(s) >= len(names) {
		return "unknown"
	}
	return names[s]
}

// Config describes a Dolly instance (paper §IV: Dolly-PpMm has p
// processors and m memory hubs).
type Config struct {
	Cores   int
	MemHubs int
	Style   Style

	// EFPGAs instantiates multiple independent eFPGAs, each behind its
	// own Duet Adapter with MemHubs memory hubs (paper Fig. 1c: "multiple
	// independent embedded FPGAs"). Defaults to 1.
	EFPGAs int

	// RegSpecs configures each adapter's soft registers. Defaults to one
	// normal register when empty. Each adapter builds its registers from
	// the specs and keeps no reference to the slice.
	RegSpecs []core.SoftRegSpec

	// FPGAFreqMHz sets the initial eFPGA clock (later adjustable through
	// the FPGA manager or bitstream Fmax). Defaults to
	// efpga.DefaultFreqMHz.
	FPGAFreqMHz float64

	// SyncStages sets the CDC synchronizer depth of every adapter FIFO
	// (the §IV metastability-hardening ablation knob). 0 selects the
	// paper's 2-stage design point. Carried per system, so concurrent
	// sweeps over the depth never race on shared state.
	SyncStages int
}

// System is one built Dolly instance.
type System struct {
	Cfg   Config
	Eng   *sim.Engine
	Mesh  *noc.Mesh
	Dom   *coherence.Domain
	Cores []*cpu.Core
	PT    *mmu.PageTable

	// Adapters and Fabrics hold one entry per eFPGA; Adapter and Fabric
	// alias the first for the common single-eFPGA case.
	Adapters []*core.Adapter
	Fabrics  []*efpga.Fabric
	Adapter  *core.Adapter
	Fabric   *efpga.Fabric

	scheduler *sched.Scheduler
	route     mmio.Router

	next uint64 // bump allocator
}

// New builds a system. Tiles are laid out row-major: cores first, then
// the C-tile (control hub + hub 0), then M-tiles, mirroring Dolly's
// P-tile/C-tile/M-tile structure (paper Fig. 8).
func New(cfg Config) *System {
	if cfg.Cores <= 0 {
		panic("duet: need at least one core")
	}
	if cfg.Style == StyleCPUOnly && cfg.MemHubs > 0 {
		panic("duet: CPU-only systems have no memory hubs")
	}
	if cfg.FPGAFreqMHz == 0 {
		cfg.FPGAFreqMHz = efpga.DefaultFreqMHz
	}
	if cfg.EFPGAs == 0 {
		cfg.EFPGAs = 1
	}
	if cfg.Style == StyleCPUOnly {
		cfg.EFPGAs = 0
	}

	// Pre-size the event queue for a full Dolly instance so the kernel's
	// calendar reaches steady state without growing mid-run. Concurrently
	// pending events are bounded by component count (each clocked model
	// keeps O(1) events in flight), so 1k covers the largest configs.
	eng := sim.NewEngineCap(1024)
	fastClk := sim.NewClock("sys", params.CPUClockPS)

	tilesPerAdapter := 1 // C-tile
	if cfg.MemHubs > 1 {
		tilesPerAdapter += cfg.MemHubs - 1 // M-tiles
	}
	tiles := cfg.Cores + cfg.EFPGAs*tilesPerAdapter
	w := int(math.Ceil(math.Sqrt(float64(tiles))))
	h := (tiles + w - 1) / w
	mesh := noc.NewMesh(eng, fastClk, w, h)

	homeTiles := make([]int, 0, tiles)
	for i := 0; i < tiles; i++ {
		homeTiles = append(homeTiles, i)
	}
	dom := coherence.NewDomain(eng, mesh, homeTiles)

	s := &System{
		Cfg:  cfg,
		Eng:  eng,
		Mesh: mesh,
		Dom:  dom,
		PT:   mmu.NewPageTable(),
		next: 0x10000,
	}

	ctrlTiles := make([]int, cfg.EFPGAs)
	for a := range ctrlTiles {
		ctrlTiles[a] = cfg.Cores + a*tilesPerAdapter
	}
	if cfg.EFPGAs > 0 {
		s.route = func(addr uint64) (int, bool) {
			if addr < params.MMIOBase {
				return 0, false
			}
			id := int((addr - params.MMIOBase) / core.AdapterStride)
			if id >= len(ctrlTiles) {
				return 0, false
			}
			return ctrlTiles[id], true
		}
	}
	for i := 0; i < cfg.Cores; i++ {
		s.Cores = append(s.Cores, cpu.New(eng, mesh, dom, i, i, s.route))
	}

	for a := 0; a < cfg.EFPGAs; a++ {
		fab := efpga.NewFabric(eng, fmt.Sprintf("efpga%d", a), efpga.DefaultFabricCap)
		fab.SetFreqMHz(cfg.FPGAFreqMHz)
		hubTiles := make([]int, 0, cfg.MemHubs)
		for i := 0; i < cfg.MemHubs; i++ {
			hubTiles = append(hubTiles, ctrlTiles[a]+i)
		}
		ad := core.NewAdapter(eng, mesh, dom, fab, core.AdapterConfig{
			ID:          a,
			CtrlTile:    ctrlTiles[a],
			HubTiles:    hubTiles,
			CacheIDBase: 1000 + a*100,
			RegSpecs:    cfg.RegSpecs,
			FPSoC:       cfg.Style == StyleFPSoC,
			IRQ:         s.Cores[0],
			SyncStages:  cfg.SyncStages,
		})
		s.Adapters = append(s.Adapters, ad)
		s.Fabrics = append(s.Fabrics, fab)
	}
	if cfg.EFPGAs > 0 {
		s.Adapter = s.Adapters[0]
		s.Fabric = s.Fabrics[0]
		// The kernel TLB-fault handler runs on core 0 and dispatches on
		// the raising adapter.
		handlers := make([]func(cpu.Proc, cpu.IRQ), len(s.Adapters))
		for i, ad := range s.Adapters {
			handlers[i] = ad.KernelTLBHandler(s.PT)
		}
		s.Cores[0].SetIRQHandler(func(p cpu.Proc, irq cpu.IRQ) {
			for _, h := range handlers {
				h(p, irq)
			}
		})
	}
	return s
}

// Alloc reserves n bytes of simulated physical memory (64-byte aligned)
// and returns the base address.
func (s *System) Alloc(n int) uint64 {
	base := s.next
	s.next += uint64((n + 63) &^ 63)
	return base
}

// InstallAccelerator registers, configures and starts a bitstream on
// eFPGA 0, and runs its clock at the accelerator's maximum frequency (as
// the paper's per-benchmark evaluation does). Programming-engine flows go
// through MMIO instead (see Program).
func (s *System) InstallAccelerator(bs *efpga.Bitstream) error {
	fab := s.Fabric
	if _, err := fab.Register(bs); err != nil {
		return err
	}
	if err := fab.Configure(bs); err != nil {
		return err
	}
	if bs.FmaxMHz > 0 {
		fab.SetFreqMHz(bs.FmaxMHz)
	}
	s.Adapter.StartAccelerator()
	return nil
}

// readMem reads size bytes at addr, little-endian, from the coherent
// image of the containing cache line (dirty cache copies win over memory).
func (s *System) readMem(addr uint64, size int) uint64 {
	line := s.Dom.DebugReadLine(addr &^ (params.LineBytes - 1))
	off := int(addr % params.LineBytes)
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(line[off+i]) << (8 * i)
	}
	return v
}

// SchedulerWrapped returns the system's multi-tenant
// accelerator-as-a-service scheduler, creating it with cfg on first use;
// later calls return it and ignore their arguments. Its workers are the
// system's cycle-level eFPGA workers, then the extra backends (e.g.
// internal/model's CPU soft-path fallback for hybrid placement), each
// passed through wrap before the scheduler sees it: the cycle-path
// fault-injection seam, mirroring model.Config.Wrap so both backends fail
// identically under one fault plan. A nil wrap is the identity. Extra
// backends must schedule on this system's engine.
func (s *System) SchedulerWrapped(cfg sched.Config, wrap func(worker int, be sched.Backend) sched.Backend, extra ...sched.Backend) *sched.Scheduler {
	if s.scheduler == nil {
		backends := append(sched.CycleBackends(s.Eng, s.Adapters, s.Fabrics), extra...)
		if wrap != nil {
			for i, be := range backends {
				backends[i] = wrap(i, be)
			}
		}
		s.scheduler = sched.New(s.Eng, backends, cfg)
	}
	return s.scheduler
}

// ReadMem64 reads the current coherent value of a 64-bit word — for
// result checking after a run.
func (s *System) ReadMem64(addr uint64) uint64 { return s.readMem(addr, 8) }

// ReadMem32 reads the current coherent value of a 32-bit word.
func (s *System) ReadMem32(addr uint64) uint32 { return uint32(s.readMem(addr, 4)) }

// Run drains the event queue. It returns the final simulation time.
func (s *System) Run() sim.Time {
	s.Eng.Run(0)
	return s.Eng.Now()
}

// Close releases the system's simulation threads (see sim.Engine.Close).
// Call it once the system's results have been read; until then a core
// program or accelerator thread left parked keeps the whole system
// reachable. The hardware blocks are engine callbacks and hold no thread.
func (s *System) Close() { s.Eng.Close() }

// RunChecked runs to completion and validates that every core program
// returned and the coherence invariants hold.
func (s *System) RunChecked() (sim.Time, error) {
	t := s.Run()
	for i, c := range s.Cores {
		if c.Running() > 0 {
			return t, fmt.Errorf("duet: core %d's program did not return: it waits on something nothing will do", i)
		}
	}
	if !s.Dom.Quiet() {
		return t, fmt.Errorf("duet: coherence domain not quiescent at end of run")
	}
	if err := coherence.CheckCoherence(s.Dom); err != nil {
		return t, err
	}
	return t, nil
}

// --- MMIO address helpers: adapter 0's addresses in core's map ------------

// SoftRegAddr returns the MMIO address of soft register reg on adapter 0.
func SoftRegAddr(reg int) uint64 { return core.SoftRegAddr(0, reg) }

// HubSwitchAddr returns the MMIO address of a feature switch on adapter 0.
func HubSwitchAddr(hub int, sw uint64) uint64 { return core.HubSwitchAddr(0, hub, sw) }

// MgrRegAddr returns the MMIO address of an FPGA-manager register on
// adapter 0.
func MgrRegAddr(reg uint64) uint64 { return core.BaseAddr(0) + reg }

// EnableHub turns on memory hub i with the given feature switches; call
// from a host program running on a core.
func EnableHub(p cpu.Proc, hub int, fwdInv, atomics, virtMode bool) {
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	p.MMIOWrite64(HubSwitchAddr(hub, core.SwFwdInv), b(fwdInv))
	p.MMIOWrite64(HubSwitchAddr(hub, core.SwAtomics), b(atomics))
	p.MMIOWrite64(HubSwitchAddr(hub, core.SwVirtMode), b(virtMode))
	p.MMIOWrite64(HubSwitchAddr(hub, core.SwEnable), 1)
}

// ProgStatus is the outcome of a programming-flow poll loop.
type ProgStatus int

// Programming-flow outcomes.
const (
	// ProgOK: the engine verified and installed the bitstream.
	ProgOK ProgStatus = iota
	// ProgFailed: the engine reported a programming error.
	ProgFailed
	// ProgWedged: the engine reached neither ready nor error within the
	// poll bound (a wedged programming engine must not hang the host).
	ProgWedged
)

func (s ProgStatus) String() string {
	names := [...]string{"ok", "failed", "wedged"}
	if s < 0 || int(s) >= len(names) {
		return "unknown"
	}
	return names[s]
}

// maxProgramPolls bounds the Program/ProgramStatus poll loop. Each poll
// costs ~50 core cycles plus the MMIO round trip, so the bound covers
// configuration images orders of magnitude larger than any modeled fabric
// while still terminating against a wedged engine.
const maxProgramPolls = 4096

// Program runs the MMIO programming flow for a registered bitstream and
// polls until the engine reports ready or error. It returns false on
// programming failure, including a wedged engine that never resolves
// within the poll bound (ProgramStatus distinguishes the cases).
func Program(p cpu.Proc, bitstreamID int) bool {
	return ProgramStatus(p, bitstreamID) == ProgOK
}

// ProgramStatus runs the MMIO programming flow and reports the distinct
// outcome: ok, failed, or wedged (poll bound exhausted).
func ProgramStatus(p cpu.Proc, bitstreamID int) ProgStatus {
	p.MMIOWrite64(MgrRegAddr(core.RegProgram), uint64(bitstreamID))
	for i := 0; i < maxProgramPolls; i++ {
		st := p.MMIORead64(MgrRegAddr(core.RegStatus)) & 0xff
		if st == core.StatusReady {
			return ProgOK
		}
		if st == core.StatusError {
			return ProgFailed
		}
		p.Exec(50)
	}
	return ProgWedged
}
