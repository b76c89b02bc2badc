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
//
// Records come from the adapter's free list and go back once the response
// is sent. A watchdog stays queued for the whole timeout even after its op
// completes, so its armed record keeps the op's id: a recycled op carries
// another id (or none) and is left alone.
type inflight struct {
	id       uint64    // unique per operation on this adapter; a normal register access's tag
	m        *mmio.Msg // the round trip: requester, latency record, reply
	reg      int       // soft register index (soft register accesses)
	write    bool      // decoded access
	val      uint64    // write data; a stalled FPGA-bound FIFO write's payload
	done     bool
	queued   bool // participates in the per-source ordering queue
	dequeued bool // removed from the queue while parked; respond directly
	data     uint64
	err      bool
	parked   bool // blocked on accelerator data (CPU-bound FIFO read)
}

// armed is one queued watchdog, the argument of its own expiry event: the
// op it guards and that op's id.
type armed struct {
	op *inflight
	id uint64
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
	queues        []sim.Queue[*inflight] // indexed by source tile; built at the first access
	intakeFree    sim.Time
	pendingNormal map[uint64]*inflight // normal register accesses by op id
	ops           sim.FreeList[inflight]
	opIDs         uint64              // the last op id handed out
	watches       sim.FreeList[armed] // one record per queued watchdog

	// The adapter's per-operation callbacks, built once: each is scheduled
	// with the in-flight op as the event argument, so no MMIO operation
	// allocates a closure. decodeFn runs the decode after intake, replyFn
	// completes a device-register access with the value staged in op.data,
	// and watchdogFn is the exception handler's timeout.
	decodeFn, replyFn, watchdogFn func(any)

	// env is the accelerator environment startAccel hands every started
	// accelerator, built on first use. Its fields (engine, fabric clock
	// pointer, register file, hub ports) are fixed for the adapter's
	// lifetime, so one record serves every (re)start.
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
		pendingNormal: make(map[uint64]*inflight),
	}
	if a.syncStages <= 0 {
		a.syncStages = params.SyncStages
	}
	a.decodeFn = func(x any) { a.decode(x.(*inflight)) }
	a.replyFn = func(x any) {
		op := x.(*inflight)
		a.complete(op, op.data, false)
	}
	a.watchdogFn = func(x any) { a.expire(x.(*armed)) }
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

// SoftRegAddr returns the MMIO address of soft register reg on adapter a.
func SoftRegAddr(a, reg int) uint64 { return BaseAddr(a) + softRegBase + uint64(reg)*8 }

// HubSwitchAddr returns the MMIO address of feature switch sw of memory
// hub hub on adapter a.
func HubSwitchAddr(a, hub int, sw uint64) uint64 {
	return BaseAddr(a) + switchBase + uint64(hub)*switchStride + sw
}

// TLBRegAddr returns the MMIO address of register reg of memory hub
// hub's TLB window on adapter a.
func TLBRegAddr(a, hub int, reg uint64) uint64 {
	return BaseAddr(a) + tlbBase + uint64(hub)*switchStride + reg
}

// Hub returns memory hub i.
func (a *Adapter) Hub(i int) *MemHub { return a.hubs[i] }

// Hubs returns all memory hubs.
func (a *Adapter) Hubs() []*MemHub { return a.hubs }

// ErrCode reports the latched exception code.
func (a *Adapter) ErrCode() uint64 { return a.errCode }

// CtrlTile reports the control hub's NoC tile.
func (a *Adapter) CtrlTile() int { return a.ctrlTile }

// afterFast runs fn(op) after n fast cycles, attributing latency to the
// op's TX.
func (a *Adapter) afterFast(n int64, op *inflight, fn func(any)) {
	now := a.eng.Now()
	at := a.fastClk.EdgesAfter(now, n)
	op.m.Env.TX.Add(sim.CatFast, at-now)
	a.eng.AtArg(at, fn, op)
}

// reply completes op with data after n fast cycles.
func (a *Adapter) reply(n int64, op *inflight, data uint64) {
	op.data = data
	a.afterFast(n, op, a.replyFn)
}

// --- MMIO front end and ordering engine ------------------------------------

func (a *Adapter) onMMIO(m *noc.Msg) {
	msg := m.Payload.(*mmio.Msg)
	op := a.ops.Get()
	a.opIDs++
	op.id, op.m = a.opIDs, msg
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
	off := op.m.Req.Addr - a.base
	write := op.m.Req.Write
	val := op.m.Req.Data
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
		// cpuAccess may answer op at once, so src is read first.
		src := op.m.Req.SrcTile
		if a.queues == nil {
			a.queues = make([]sim.Queue[*inflight], a.mesh.Tiles())
		}
		op.queued = true
		a.queues[src].Push(op)
		op.reg, op.write, op.val = int((off-softRegBase)/8), write, val
		a.regs.cpuAccess(op)
		a.drain(src)
	}
}

// park marks an op as blocked on accelerator data; it stops gating later
// same-source operations.
func (a *Adapter) park(op *inflight) {
	op.parked = true
	a.drain(op.m.Req.SrcTile)
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
	a.reply(1, op, cur)
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
	a.reply(params.TLBLookupCycles, op, out)
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
	a.drain(op.m.Req.SrcTile)
}

// drain sends the finished head of src's ordering queue and dequeues
// parked reads, stopping at the first pending op.
func (a *Adapter) drain(src int) {
	q := &a.queues[src]
	for q.Len() > 0 {
		op := *q.At(0)
		switch {
		case op.done:
			q.Pop()
			a.send(op)
		case op.parked:
			// Data-blocked read: respond later, directly.
			op.dequeued = true
			q.Pop()
		default:
			return
		}
	}
}

// send answers op's requester over the NoC, in the requester's own
// round-trip record, and recycles op: this is its last reader.
func (a *Adapter) send(op *inflight) {
	a.mesh.Send(op.m.Reply(a.ctrlTile, op.data, op.err))
	a.ops.Put(op)
}

// watchdog arms the exception handler's timeout for a pending operation.
// On expiry the exception is raised and the stalled operation completes
// with bogus data so the processor is not halted (paper §II-E).
func (a *Adapter) watchdog(op *inflight) {
	w := a.watches.Get()
	w.op, w.id = op, op.id
	a.eng.AfterArg(a.fastClk.Cycles(a.timeoutCycles), a.watchdogFn, w)
}

// expire is watchdog w's expiry. An op answered in time (and perhaps
// recycled since) is left alone; a stalled op times out and leaves every
// wait list, so no later event finds it there once it is recycled.
func (a *Adapter) expire(w *armed) {
	op, id := w.op, w.id
	a.watches.Put(w)
	if op.id != id || op.done {
		return
	}
	a.RaiseException(ErrTimeout)
	delete(a.pendingNormal, id)
	a.regs.forget(op)
	a.complete(op, 0xdead, true)
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
			Eng:  a.eng,
			Clk:  a.fabric.Clock(),
			Regs: a.regs,
			Mem:  make([]efpga.MemIntf, len(a.hubs)),
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
		va := irq.Info
		ppn, mapped := pt.Lookup(mmu.VPN(va))
		if !mapped {
			p.MMIOWrite64(TLBRegAddr(a.ID, hub.idx, TLBKill), 1)
			return
		}
		p.MMIOWrite64(TLBRegAddr(a.ID, hub.idx, TLBVPN), mmu.VPN(va))
		p.MMIOWrite64(TLBRegAddr(a.ID, hub.idx, TLBPPN), ppn)
		p.MMIOWrite64(TLBRegAddr(a.ID, hub.idx, TLBInstall), 1)
	}
}
