// Package core implements the paper's primary contribution: the Duet
// Adapter (paper §II), which integrates embedded FPGAs as first-class,
// cache-coherent citizens on the NoC. Each adapter comprises one Control
// Hub (FPGA manager + Soft Register Interface with Shadow Registers) and
// one or more Memory Hubs (exception handler, feature switches, TLB, and
// Proxy Cache).
//
// The same package also builds the FPSoC baseline of §V-D by re-clocking
// the FPGA-side cache into the slow domain and downgrading all shadow
// registers to normal registers.
package core

import (
	"fmt"

	"duet/internal/coherence"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/mmio"
	"duet/internal/mmu"
	"duet/internal/noc"
	"duet/internal/params"
	"duet/internal/sim"
)

// Error codes latched by the exception handler.
const (
	ErrNone    uint64 = 0
	ErrTimeout uint64 = 1
	ErrParity  uint64 = 2
	ErrKilled  uint64 = 3
	ErrProgram uint64 = 4
)

// IRQTLBFault is the cause string of Memory Hub page-fault interrupts.
const IRQTLBFault = "duet-tlb-fault"

// MMIO address map (offsets from the adapter's base address).
const (
	// AdapterStride separates the MMIO windows of successive adapters.
	AdapterStride uint64 = 1 << 24

	// FPGA manager registers.
	RegCtrl    uint64 = 0x00 // write: bit0 clear error, bit1 reset accelerator
	RegClkKHz  uint64 = 0x08 // write: eFPGA clock frequency in kHz
	RegProgram uint64 = 0x10 // write: bitstream id -> start programming
	RegStatus  uint64 = 0x18 // read: status | errCode<<8
	RegTimeout uint64 = 0x20 // write: watchdog limit in fast cycles

	// Feature switches, per hub: base + hub*0x100 + switch offset.
	switchBase   uint64 = 0x1000
	switchStride uint64 = 0x100
	SwEnable     uint64 = 0x00
	SwFwdInv     uint64 = 0x08
	SwAtomics    uint64 = 0x10
	SwVirtMode   uint64 = 0x18
	SwWriteAlloc uint64 = 0x20

	// TLB management window, per hub: base + hub*0x100 + offset.
	tlbBase    uint64 = 0x4000
	TLBVPN     uint64 = 0x00 // write: staging VPN
	TLBPPN     uint64 = 0x08 // write: staging PPN
	TLBInstall uint64 = 0x10 // write: install staged mapping + resume
	TLBKill    uint64 = 0x18 // write: kill the faulting accelerator
	TLBFaultVA uint64 = 0x20 // read: faulting virtual address
	TLBFlush   uint64 = 0x28 // write: flush the hub TLB

	// Soft registers: base + softRegBase + i*8.
	softRegBase uint64 = 0x8000
)

// Programming engine status values (low byte of RegStatus).
const (
	StatusIdle uint64 = iota
	StatusProgramming
	StatusReady
	StatusError
)

// AdapterConfig configures one Duet Adapter.
type AdapterConfig struct {
	ID       int
	CtrlTile int   // C-tile: control hub (+ hub 0 when HubTiles[0] == CtrlTile)
	HubTiles []int // one Memory Hub per entry (may be empty: M0 instances)
	// CacheIDBase assigns the proxy caches' globally unique IDs
	// (CacheIDBase + hub index).
	CacheIDBase int
	RegSpecs    []SoftRegSpec
	// FPSoC selects the baseline organization of §V-D.
	FPSoC bool
	// IRQ receives TLB-fault interrupts (normally core 0).
	IRQ IRQSink
	// SyncStages sets the synchronizer depth of this adapter's CDC FIFOs
	// (ablation knob; 0 selects the paper's design point,
	// params.SyncStages = 2). Per-adapter so concurrent systems can sweep
	// it independently — never a package-level override.
	SyncStages int
}

// IRQSink receives interrupts raised by the adapter.
type IRQSink interface {
	RaiseIRQ(irq cpu.IRQ)
}

// inflight is one MMIO operation moving through the control hub. Soft
// register accesses participate in the ordering engine: responses to the
// same source are released strictly in arrival order (paper Fig. 6c), so
// a shadowed access behind a pending normal access stalls. Blocked
// CPU-bound FIFO reads are data-dependent waits, not pending endpoint
// operations: once parked they stop gating later operations (otherwise a
// kernel trap handler could never service the device the read waits on).
type inflight struct {
	req       *mmio.Req
	tx        *sim.TX
	done      bool
	sent      bool
	queued    bool // participates in the per-source ordering queue
	dequeued  bool // removed from the queue while parked; respond directly
	data      uint64
	err       bool
	stash     uint64 // stalled FPGA-bound FIFO write payload
	normalSeq uint64
	parked    bool // blocked on accelerator data (CPU-bound FIFO read)
}

// Adapter is one Duet Adapter instance.
type Adapter struct {
	ID     int
	eng    *sim.Engine
	mesh   *noc.Mesh
	dom    *coherence.Domain
	fabric *efpga.Fabric

	fastClk    *sim.Clock
	ctrlTile   int
	base       uint64
	fpsoc      bool
	syncStages int

	hubs []*MemHub
	regs *regFile
	mgr  *fpgaMgr
	irq  IRQSink

	ctrlEnabled   bool
	errCode       uint64
	timeoutCycles int64

	// Ordering engine state (per requesting source tile, soft register
	// accesses only).
	queues        map[int][]*inflight
	intakeFree    sim.Time
	seqCtr        uint64
	pendingNormal map[uint64]*inflight

	// decodeFn is the one decode callback for the whole adapter; onMMIO
	// schedules it with the in-flight op as the event argument, so the
	// per-operation intake path allocates no closure.
	decodeFn func(any)

	// env is the accelerator environment startAccel hands every started
	// accelerator, built on first use. Its fields (engine, fabric clock
	// pointer, scratchpad, register file, hub ports) are fixed for the
	// adapter's lifetime, so one record serves every (re)start.
	env *efpga.Env

	// TLB window staging registers, per hub.
	stageVPN []uint64
	stagePPN []uint64

	// OnAccelStart, when set, is invoked each time the configured
	// accelerator is (re)started: after the programming engine completes
	// (both the MMIO RegProgram flow and ProgramAsync), after a
	// control-register reset, and on StartAccelerator. It is the
	// adapter-wide start notification; ProgramAsync's done callback fires
	// right after the same instant for that one flow.
	OnAccelStart func(bs *efpga.Bitstream)

	// Stats.
	MMIOOps, Timeouts, Exceptions uint64
}

// NewAdapter builds and wires a Duet Adapter.
func NewAdapter(eng *sim.Engine, mesh *noc.Mesh, dom *coherence.Domain, fabric *efpga.Fabric, cfg AdapterConfig) *Adapter {
	a := &Adapter{
		ID:            cfg.ID,
		eng:           eng,
		mesh:          mesh,
		dom:           dom,
		fabric:        fabric,
		fastClk:       mesh.Clock(),
		ctrlTile:      cfg.CtrlTile,
		base:          BaseAddr(cfg.ID),
		fpsoc:         cfg.FPSoC,
		syncStages:    cfg.SyncStages,
		irq:           cfg.IRQ,
		ctrlEnabled:   true,
		timeoutCycles: params.DefaultTimeoutCycles,
		queues:        make(map[int][]*inflight),
		pendingNormal: make(map[uint64]*inflight),
	}
	if a.syncStages <= 0 {
		a.syncStages = params.SyncStages
	}
	a.decodeFn = func(x any) { a.decode(x.(*inflight)) }
	for i, tile := range cfg.HubTiles {
		a.hubs = append(a.hubs, newMemHub(a, i, tile, cfg.CacheIDBase+i))
	}
	a.stageVPN = make([]uint64, len(a.hubs))
	a.stagePPN = make([]uint64, len(a.hubs))
	specs := cfg.RegSpecs
	if len(specs) == 0 {
		specs = []SoftRegSpec{{Kind: RegNormal}}
	}
	a.regs = newRegFile(a, specs, cfg.FPSoC)
	a.mgr = newFPGAMgr(a)
	mesh.Register(cfg.CtrlTile, noc.VNMMIOReq, a.onMMIO)
	return a
}

// BaseAddr returns the MMIO base address of adapter id.
func BaseAddr(id int) uint64 { return params.MMIOBase + uint64(id)*AdapterStride }

// Owns reports whether addr falls in this adapter's MMIO window.
func (a *Adapter) Owns(addr uint64) bool {
	return addr >= a.base && addr < a.base+AdapterStride
}

// Hub returns memory hub i.
func (a *Adapter) Hub(i int) *MemHub { return a.hubs[i] }

// Hubs returns all memory hubs.
func (a *Adapter) Hubs() []*MemHub { return a.hubs }

// Regs returns the soft register file (the accelerator-side interface).
func (a *Adapter) Regs() efpga.RegIntf { return a.regs }

// Fabric returns the attached eFPGA.
func (a *Adapter) Fabric() *efpga.Fabric { return a.fabric }

// ErrCode reports the latched exception code.
func (a *Adapter) ErrCode() uint64 { return a.errCode }

// CtrlTile reports the control hub's NoC tile.
func (a *Adapter) CtrlTile() int { return a.ctrlTile }

func (a *Adapter) nextSeq() uint64 {
	a.seqCtr++
	return a.seqCtr
}

// afterFast runs fn after n fast cycles, attributing latency to tx.
func (a *Adapter) afterFast(n int64, tx *sim.TX, fn func()) {
	now := a.eng.Now()
	at := a.fastClk.EdgesAfter(now, n)
	tx.Add(sim.CatFast, at-now)
	a.eng.At(at, fn)
}

// --- MMIO front end and ordering engine ------------------------------------

func (a *Adapter) onMMIO(m *noc.Msg) {
	req := m.Payload.(*mmio.Req)
	a.MMIOOps++
	op := &inflight{req: req, tx: m.TX}
	// Serialized intake: the control hub decodes one operation per cycle.
	start := a.fastClk.NextEdge(a.eng.Now())
	if start < a.intakeFree {
		start = a.intakeFree
	}
	a.intakeFree = start + a.fastClk.Cycles(params.CtrlHubDecode)
	dt := a.intakeFree - a.eng.Now()
	m.TX.Add(sim.CatFast, dt)
	a.eng.AtArg(a.intakeFree, a.decodeFn, op)
}

func (a *Adapter) decode(op *inflight) {
	if !a.ctrlEnabled {
		// Deactivated control hub: bogus data, system not halted (§II-E).
		a.complete(op, 0xdead, true)
		return
	}
	off := op.req.Addr - a.base
	write := op.req.Write
	val := op.req.Data
	switch {
	case off < switchBase:
		a.mgr.access(op, off, write, val)
	case off >= switchBase && off < tlbBase:
		hub := int((off - switchBase) / switchStride)
		a.switchAccess(op, hub, (off-switchBase)%switchStride, write, val)
	case off >= tlbBase && off < softRegBase:
		hub := int((off - tlbBase) / switchStride)
		a.tlbAccess(op, hub, (off-tlbBase)%switchStride, write, val)
	default:
		// Soft register accesses enter the per-source ordering queue.
		op.queued = true
		a.queues[op.req.SrcTile] = append(a.queues[op.req.SrcTile], op)
		reg := int((off - softRegBase) / 8)
		a.regs.cpuAccess(op, reg, write, val, op.tx)
		a.drain(op.req.SrcTile)
	}
}

// park marks an op as blocked on accelerator data; it stops gating later
// same-source operations.
func (a *Adapter) park(op *inflight) {
	op.parked = true
	a.drain(op.req.SrcTile)
}

func (a *Adapter) switchAccess(op *inflight, hub int, sw uint64, write bool, val uint64) {
	if hub >= len(a.hubs) {
		a.complete(op, 0, true)
		return
	}
	h := a.hubs[hub]
	get := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	var cur uint64
	switch sw {
	case SwEnable:
		if write {
			if val != 0 {
				h.enabled = true
			} else {
				h.deactivate()
			}
		}
		cur = get(h.enabled)
	case SwFwdInv:
		if write {
			h.fwdInv = val != 0
		}
		cur = get(h.fwdInv)
	case SwAtomics:
		if write {
			h.atomics = val != 0
		}
		cur = get(h.atomics)
	case SwVirtMode:
		if write {
			h.virtMode = val != 0
		}
		cur = get(h.virtMode)
	case SwWriteAlloc:
		// Write-allocate is the default; 0 selects write-no-allocate.
		if write {
			h.proxy.SetWriteNoAllocate(val == 0)
		}
		cur = get(!h.proxy.WriteNoAllocate())
	default:
		a.complete(op, 0, true)
		return
	}
	a.afterFast(1, op.tx, func() { a.complete(op, cur, false) })
}

func (a *Adapter) tlbAccess(op *inflight, hub int, off uint64, write bool, val uint64) {
	if hub >= len(a.hubs) {
		a.complete(op, 0, true)
		return
	}
	h := a.hubs[hub]
	var out uint64
	switch off {
	case TLBVPN:
		if write {
			a.stageVPN[hub] = val
		}
		out = a.stageVPN[hub]
	case TLBPPN:
		if write {
			a.stagePPN[hub] = val
		}
		out = a.stagePPN[hub]
	case TLBInstall:
		if write {
			h.tlb.Insert(a.stageVPN[hub], a.stagePPN[hub])
			h.ResolveFault()
		}
	case TLBKill:
		if write {
			h.KillAccelerator()
		}
	case TLBFaultVA:
		out = h.faultVA
	case TLBFlush:
		if write {
			h.tlb.Flush()
		}
	default:
		a.complete(op, 0, true)
		return
	}
	a.afterFast(params.TLBLookupCycles, op.tx, func() { a.complete(op, out, false) })
}

// complete marks an operation finished. Soft register responses to one
// source are released strictly in that source's arrival order; other
// device registers (manager, switches, TLB window) respond directly.
func (a *Adapter) complete(op *inflight, data uint64, err bool) {
	if op.done {
		return // already timed out
	}
	op.done = true
	op.data = data
	op.err = err
	if !op.queued || op.dequeued {
		a.send(op)
		return
	}
	a.drain(op.req.SrcTile)
}

func (a *Adapter) drain(src int) {
	q := a.queues[src]
	for len(q) > 0 {
		op := q[0]
		if op.done {
			q = q[1:]
			a.send(op)
			continue
		}
		if op.parked {
			// Data-blocked read: respond later, directly.
			op.dequeued = true
			q = q[1:]
			continue
		}
		break
	}
	a.queues[src] = q
}

func (a *Adapter) send(op *inflight) {
	if op.sent {
		return
	}
	op.sent = true
	resp := &mmio.Resp{SeqID: op.req.SeqID, Data: op.data, Err: op.err}
	a.mesh.Send(&noc.Msg{
		Src: a.ctrlTile, Dst: op.req.SrcTile, VN: noc.VNMMIOResp,
		Bytes: mmio.RespBytes, Payload: resp, TX: op.tx,
	})
}

// watchdog arms the exception handler's timeout for a pending operation.
// On expiry the exception is raised and the stalled operation completes
// with bogus data so the processor is not halted (paper §II-E).
func (a *Adapter) watchdog(op *inflight) {
	limit := a.timeoutCycles
	a.eng.After(a.fastClk.Cycles(limit), func() {
		if op.done {
			return
		}
		a.Timeouts++
		a.RaiseException(ErrTimeout)
		if op.normalSeq != 0 {
			delete(a.pendingNormal, op.normalSeq)
		}
		a.complete(op, 0xdead, true)
	})
}

// RaiseException latches an error code and deactivates all Memory Hubs in
// the adapter (paper §II-B); pending MMIO operations complete with bogus
// data so the system is not halted.
func (a *Adapter) RaiseException(code uint64) {
	a.RaiseExceptionCode(code, true)
}

// RaiseExceptionCode optionally skips hub deactivation (used by
// KillAccelerator, which deactivates only the faulting hub).
func (a *Adapter) RaiseExceptionCode(code uint64, deactivateHubs bool) {
	a.Exceptions++
	if a.errCode == ErrNone {
		a.errCode = code
	}
	if deactivateHubs {
		for _, h := range a.hubs {
			h.deactivate()
		}
	}
	// In-flight MMIO operations are left to complete normally (or via
	// their own watchdogs): the exception only stops the eFPGA-facing
	// paths, it never halts the processors.
}

// ClearError resets the latched error code (hubs must be re-enabled
// individually through their feature switches).
func (a *Adapter) ClearError() { a.errCode = ErrNone }

// startAccel starts the configured accelerator with the adapter's reused
// Env.
func (a *Adapter) startAccel() {
	acc := a.fabric.Accel()
	if acc == nil {
		return
	}
	if a.env == nil {
		a.env = &efpga.Env{
			Eng:     a.eng,
			Clk:     a.fabric.Clock(),
			Scratch: a.fabric.Scratch,
			Regs:    a.regs,
			Mem:     make([]efpga.MemIntf, len(a.hubs)),
		}
		for i, h := range a.hubs {
			a.env.Mem[i] = h.port
		}
	}
	acc.Start(a.env)
	if a.OnAccelStart != nil {
		a.OnAccelStart(a.fabric.Current())
	}
}

// Resident reports the bitstream currently configured on the attached
// fabric (nil if unprogrammed) — the scheduler's residency query.
func (a *Adapter) Resident() *efpga.Bitstream { return a.fabric.Current() }

// FastClock returns the adapter's fast-domain clock.
func (a *Adapter) FastClock() *sim.Clock { return a.fastClk }

// QuiesceHubs deactivates every Memory Hub — the driver-side precondition
// of the programming engine (paper §II-B) — and returns a bitmask of the
// hubs that were enabled, suitable for a faithful ResumeHubs restore.
// In-flight coherence completes; new fabric requests fail until resumed.
func (a *Adapter) QuiesceHubs() uint64 {
	var mask uint64
	for i, h := range a.hubs {
		if h.enabled {
			mask |= 1 << i
		}
		h.deactivate()
	}
	return mask
}

// ResumeHubs sets each Memory Hub's enable switch to the corresponding
// mask bit (bits past the hub count are ignored); all other feature
// switches keep their previously programmed values. Pass the mask
// QuiesceHubs returned to restore the pre-quiesce state, or an all-ones
// mask to grant every hub.
func (a *Adapter) ResumeHubs(mask uint64) {
	for i, h := range a.hubs {
		if mask&(1<<i) != 0 {
			h.enabled = true
		} else {
			// Disable through deactivate so threads parked on the hub's
			// conditions are woken to observe the change, matching every
			// other disable path.
			h.deactivate()
		}
	}
}

// StartAccelerator is the test/app-facing way to start a directly
// configured accelerator (bypassing the MMIO programming engine).
func (a *Adapter) StartAccelerator() { a.startAccel() }

// --- MMU kernel-handler helper ---------------------------------------------

// KernelTLBHandler returns an IRQ handler that resolves Memory Hub page
// faults against the given page table over MMIO (the paper's kernel-level
// interrupt handler, §II-D). Unmapped addresses kill the accelerator.
func (a *Adapter) KernelTLBHandler(pt *mmu.PageTable) func(p cpu.Proc, irq cpu.IRQ) {
	return func(p cpu.Proc, irq cpu.IRQ) {
		if irq.Cause != IRQTLBFault {
			return
		}
		hub, ok := irq.Source.(*MemHub)
		if !ok || hub.a != a {
			return // another adapter's fault
		}
		idx := uint64(hub.idx)
		va := irq.Info
		ppn, mapped := pt.Lookup(mmu.VPN(va))
		base := a.base + tlbBase + idx*switchStride
		if !mapped {
			p.MMIOWrite64(base+TLBKill, 1)
			return
		}
		p.MMIOWrite64(base+TLBVPN, mmu.VPN(va))
		p.MMIOWrite64(base+TLBPPN, ppn)
		p.MMIOWrite64(base+TLBInstall, 1)
	}
}

var _ = fmt.Sprintf // keep fmt for debug builds
