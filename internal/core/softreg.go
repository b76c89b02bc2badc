package core

import (
	"duet/internal/cdc"
	"duet/internal/efpga"
	"duet/internal/params"
	"duet/internal/sim"
)

// RegKind enumerates soft register configurations (paper §II-F).
type RegKind int

// Soft register kinds. RegNormal is a plain in-fabric register (every
// access round-trips into the slow domain); the other four are Shadow
// Register types living in the fast clock domain.
const (
	RegNormal     RegKind = iota
	RegPlain              // plain shadow register: keeps the last value
	RegFIFOToFPGA         // FPGA-bound FIFO: CPU writes, accelerator pops
	RegFIFOToCPU          // CPU-bound FIFO: accelerator pushes, CPU reads (blocking)
	RegTokenFIFO          // dataless, non-blocking CPU-bound FIFO (try_join)
)

func (k RegKind) String() string {
	return [...]string{"normal", "plain", "fifo->fpga", "fifo->cpu", "token"}[k]
}

// SoftRegSpec configures one soft register.
type SoftRegSpec struct {
	Kind  RegKind
	Depth int // FIFO depth; 0 selects the default
}

// Fabric-bound (down) message kinds.
type dkind int

const (
	dPlainSync dkind = iota
	dFifoData
	dNormalOp
	dCPUCredit
)

// A normal register access and its response carry the op's id.
type dmsg struct {
	kind  dkind
	reg   int
	val   uint64
	id    uint64
	write bool
}

// CPU-bound (up) message kinds.
type ukind int

const (
	uPlainSync ukind = iota
	uCPUPush
	uTokenPush
	uNormalResp
	uFPGACredit
)

type umsg struct {
	kind ukind
	reg  int
	val  uint64
	id   uint64
}

// softReg is one soft register: its fast-domain half in the Control Hub
// and its slow-domain half in the fabric.
type softReg struct {
	kind RegKind

	// Fast-domain state.
	fastVal    uint64 // plain shadow copy
	cpuQ       sim.Queue[uint64]
	tokens     int
	fpgaCredit int
	// The wait lists (fpgaWait, readWait, slowWait) hold pending ops
	// only: a timed-out op leaves them (forget).
	fpgaWait sim.Queue[*inflight] // ops stalled on FPGA-bound FIFO credit
	readWait sim.Queue[*inflight] // CPU reads blocked on empty CPU-bound FIFO

	// Slow-domain (fabric) state.
	slowVal    uint64
	fabricQ    sim.Queue[uint64]
	fabricCond *sim.Cond
	cpuCredit  int
	claimed    bool
	normalQ    sim.Queue[*efpga.NormalOp]
	normalCond *sim.Cond
	// FPSoC mode: CPU-bound queues live slow-side; blocked reads park here.
	slowCPUQ   sim.Queue[uint64]
	slowTokens int
	slowWait   sim.Queue[*inflight]
}

// regFile is the Soft Register Interface: the fast-domain half lives in
// the Control Hub, the slow-domain half is emulated in the fabric. It
// implements efpga.RegIntf for the accelerator side.
//
// In FPSoC mode every register is downgraded to a normal register: all
// state lives in the slow domain and every CPU access round-trips through
// the CDC FIFOs — the baseline of §V-D.
type regFile struct {
	a     *Adapter
	regs  []softReg
	fpsoc bool

	// shadowFn completes a shadow register access after its
	// ShadowRegCycles; cpuAccess schedules it with the op as argument.
	shadowFn   func(any)
	creditCond *sim.Cond // signals CPU-bound FIFO credit on any register

	down *cdc.Fifo[dmsg]
	up   *cdc.Fifo[umsg]

	// The fabric engine, a callback state machine: the step it is at,
	// the message it is retiring and its pre-built wake record.
	engStep engStep
	engMsg  dmsg
	engTX   *sim.TX
	engWake sim.Event
}

// engStep is a fabric engine state: what its next wake does.
type engStep int

const (
	engPop    engStep = iota // take the next fabric-bound message
	engRetire                // the message's slow cycle has passed
	engNormal                // a normal-register op's access has passed
)

// newRegFile builds the registers specs describes; it reads specs and
// keeps none of it.
func newRegFile(a *Adapter, specs []SoftRegSpec, fpsoc bool) *regFile {
	rf := &regFile{a: a, regs: make([]softReg, len(specs)), fpsoc: fpsoc, creditCond: sim.NewCond(a.eng)}
	for i, spec := range specs {
		if spec.Depth <= 0 {
			spec.Depth = params.FifoDepth
		}
		rf.regs[i] = softReg{
			kind:       spec.Kind,
			fpgaCredit: spec.Depth,
			cpuCredit:  spec.Depth,
			fabricCond: sim.NewCond(a.eng),
			normalCond: sim.NewCond(a.eng),
		}
	}
	slow := a.fabric.Clock()
	fast := a.fastClk
	rf.down = cdc.NewFifo[dmsg](a.eng, "ctrl.down", fast, slow, params.FifoDepth, a.syncStages)
	rf.up = cdc.NewFifo[umsg](a.eng, "ctrl.up", slow, fast, params.FifoDepth, a.syncStages)
	rf.shadowFn = func(x any) { rf.shadow(x.(*inflight)) }

	rf.engWake = sim.Event{Fn: runFabricEngine, Arg: rf}
	a.eng.AtEvent(a.eng.Now(), &rf.engWake)
	rf.up.Drain(rf.upMsg)
	return rf
}

// --- CPU (fast/MMIO) side -------------------------------------------------

// cpuAccess handles a decoded MMIO soft register access (op.reg,
// op.write, op.val). The inflight op is completed (possibly later) by the
// register machinery; the adapter's ordering engine releases responses in
// arrival order.
func (rf *regFile) cpuAccess(op *inflight) {
	if op.reg < 0 || op.reg >= len(rf.regs) {
		rf.a.complete(op, 0, true)
		return
	}
	kind := rf.regs[op.reg].kind
	switch {
	case rf.fpsoc || kind == RegNormal:
		rf.sendNormal(op)
	case op.write && (kind == RegFIFOToCPU || kind == RegTokenFIFO):
		rf.a.complete(op, 0, true) // CPU-bound FIFOs are read-only
	default:
		rf.a.afterFast(params.ShadowRegCycles, op, rf.shadowFn)
	}
}

// shadow performs a shadow register access once its ShadowRegCycles have
// passed.
func (rf *regFile) shadow(op *inflight) {
	r := &rf.regs[op.reg]
	switch r.kind {
	case RegPlain:
		if op.write {
			r.fastVal = op.val
			// The forward into the fabric is off the critical path
			// (the ack does not wait for it): untagged.
			rf.down.Push(dmsg{kind: dPlainSync, reg: op.reg, val: op.val}, nil)
			rf.a.complete(op, 0, false)
		} else {
			rf.a.complete(op, r.fastVal, false)
		}
	case RegFIFOToFPGA:
		switch {
		case !op.write:
			// Reads of an FPGA-bound FIFO report the available credit.
			rf.a.complete(op, uint64(r.fpgaCredit), false)
		case r.fpgaCredit > 0:
			rf.pushFPGAData(op)
		default:
			// Stall until the accelerator pops (credit returns); the
			// watchdog prevents a hung accelerator from blocking the
			// processor forever.
			r.fpgaWait.Push(op)
			rf.a.watchdog(op)
		}
	case RegFIFOToCPU:
		if r.cpuQ.Len() > 0 {
			rf.down.Push(dmsg{kind: dCPUCredit, reg: op.reg}, nil)
			rf.a.complete(op, r.cpuQ.Pop(), false)
		} else {
			// Blocking read: park with a watchdog. Parked reads stop
			// gating later same-source operations.
			r.readWait.Push(op)
			rf.a.park(op)
			rf.a.watchdog(op)
		}
	case RegTokenFIFO:
		if r.tokens > 0 {
			r.tokens--
			rf.down.Push(dmsg{kind: dCPUCredit, reg: op.reg}, nil)
			rf.a.complete(op, 1, false)
		} else {
			rf.a.complete(op, 0, false) // empty: non-blocking
		}
	}
}

// pushFPGAData sends an FPGA-bound FIFO write (op.val) into the fabric,
// spending one credit.
func (rf *regFile) pushFPGAData(op *inflight) {
	rf.regs[op.reg].fpgaCredit--
	// Data crosses the CDC after the ack: off the critical path.
	rf.down.Push(dmsg{kind: dFifoData, reg: op.reg, val: op.val}, nil)
	rf.a.complete(op, 0, false)
}

func (rf *regFile) sendNormal(op *inflight) {
	rf.a.pendingNormal[op.id] = op
	rf.down.Push(dmsg{kind: dNormalOp, reg: op.reg, val: op.val, id: op.id, write: op.write}, op.m.Env.TX)
	rf.a.watchdog(op)
}

// forget removes a timed-out op from the wait lists, so the lists only
// ever hold pending ops and a recycled record is never found there.
func (rf *regFile) forget(op *inflight) {
	is := func(w *inflight) bool { return w == op }
	r := &rf.regs[op.reg]
	r.fpgaWait.DeleteFunc(is)
	r.readWait.DeleteFunc(is)
	r.slowWait.DeleteFunc(is)
}

// --- fabric (slow) side ---------------------------------------------------

// fabricEngine is the slow-domain service loop of the Soft Register
// Interface, run from its wake record: it retires at most one
// fabric-bound message per slow cycle (single-ported soft register
// interface), and a normal-register op takes SoftRegCycles more.
func (rf *regFile) fabricEngine() {
	slow := rf.a.fabric.Clock()
	for {
		switch rf.engStep {
		case engPop:
			m, tx, ok := rf.down.TryPop()
			if !ok {
				rf.down.AwaitNotEmpty(&rf.engWake)
				return
			}
			rf.engMsg, rf.engTX = m, tx
			rf.engStep = engRetire
			if !rf.a.eng.RunOn(slow.EdgesAfter(rf.a.eng.Now(), 1), &rf.engWake) {
				return
			}
		case engRetire:
			m := rf.engMsg
			r := &rf.regs[m.reg]
			rf.engStep = engPop
			switch m.kind {
			case dPlainSync:
				r.slowVal = m.val
			case dFifoData:
				r.fabricQ.Push(m.val)
				r.fabricCond.Broadcast()
			case dCPUCredit:
				r.cpuCredit++
				rf.creditCond.Broadcast()
			case dNormalOp:
				now := rf.a.eng.Now()
				tm := slow.EdgesAfter(now, params.SoftRegCycles)
				rf.engTX.Add(sim.CatSlow, tm-now)
				rf.engStep = engNormal
				if !rf.a.eng.RunOn(tm, &rf.engWake) {
					return
				}
			}
		case engNormal:
			rf.handleNormal(rf.engMsg, rf.engTX)
			rf.engStep = engPop
		}
	}
}

// runFabricEngine is the trampoline behind the fabric engine's wakes.
func runFabricEngine(a any) { a.(*regFile).fabricEngine() }

// handleNormal answers a normal-register op once its access time has
// passed.
func (rf *regFile) handleNormal(m dmsg, tx *sim.TX) {
	r := &rf.regs[m.reg]
	if r.claimed {
		r.normalQ.Push(&efpga.NormalOp{
			Reg: m.reg, Write: m.write, Value: m.val, Seq: m.id,
		})
		r.normalCond.Broadcast()
		return
	}
	if rf.fpsoc {
		// FPSoC downgrade: emulate the FIFO semantics in the slow domain.
		switch r.kind {
		case RegFIFOToFPGA:
			if m.write {
				r.fabricQ.Push(m.val)
				r.fabricCond.Broadcast()
				rf.up.Push(umsg{kind: uNormalResp, id: m.id}, tx)
				return
			}
			rf.up.Push(umsg{kind: uNormalResp, id: m.id, val: uint64(r.fabricQ.Len())}, tx)
			return
		case RegFIFOToCPU:
			if !m.write {
				if r.slowCPUQ.Len() > 0 {
					rf.up.Push(umsg{kind: uNormalResp, id: m.id, val: r.slowCPUQ.Pop()}, tx)
					return
				}
				if op := rf.a.pendingNormal[m.id]; op != nil {
					r.slowWait.Push(op)
					rf.a.park(op)
				}
				return // completed on a later push (or times out)
			}
			rf.up.Push(umsg{kind: uNormalResp, id: m.id}, tx)
			return
		case RegTokenFIFO:
			if !m.write {
				val := uint64(0)
				if r.slowTokens > 0 {
					r.slowTokens--
					val = 1
				}
				rf.up.Push(umsg{kind: uNormalResp, id: m.id, val: val}, tx)
				return
			}
		}
	}
	// Default normal register semantics: a plain value in the fabric.
	if m.write {
		r.slowVal = m.val
		rf.up.Push(umsg{kind: uNormalResp, id: m.id}, tx)
	} else {
		rf.up.Push(umsg{kind: uNormalResp, id: m.id, val: r.slowVal}, tx)
	}
}

// upMsg handles one fabric→hub message in the fast domain: the up FIFO's
// Drain consumer.
func (rf *regFile) upMsg(m umsg, _ *sim.TX) {
	r := &rf.regs[m.reg]
	switch m.kind {
	case uPlainSync:
		r.fastVal = m.val
	case uNormalResp:
		op := rf.a.pendingNormal[m.id]
		if op == nil || op.done {
			return // timed out earlier; drop
		}
		delete(rf.a.pendingNormal, m.id)
		rf.a.complete(op, m.val, false)
	case uCPUPush:
		if r.readWait.Len() > 0 {
			rf.down.Push(dmsg{kind: dCPUCredit, reg: m.reg}, nil)
			rf.a.complete(r.readWait.Pop(), m.val, false)
		} else {
			r.cpuQ.Push(m.val)
		}
	case uTokenPush:
		r.tokens++
	case uFPGACredit:
		r.fpgaCredit++
		if r.fpgaWait.Len() > 0 && r.fpgaCredit > 0 {
			rf.pushFPGAData(r.fpgaWait.Pop())
		}
	}
}

// --- accelerator-facing API (efpga.RegIntf) --------------------------------

var _ efpga.RegIntf = (*regFile)(nil)

// ReadPlain returns the fabric copy of plain shadow register i.
func (rf *regFile) ReadPlain(i int) uint64 { return rf.regs[i].slowVal }

// WritePlain updates the fabric copy and synchronizes the fast shadow.
func (rf *regFile) WritePlain(t *sim.Thread, i int, v uint64) {
	rf.regs[i].slowVal = v
	t.SleepCycles(rf.a.fabric.Clock(), 1)
	rf.up.Push(umsg{kind: uPlainSync, reg: i, val: v}, nil)
}

// PopFPGA pops FPGA-bound FIFO i, blocking until data arrives.
func (rf *regFile) PopFPGA(t *sim.Thread, i int) uint64 {
	r := &rf.regs[i]
	for r.fabricQ.Len() == 0 {
		r.fabricCond.Wait(t)
	}
	v := r.fabricQ.Pop()
	t.SleepCycles(rf.a.fabric.Clock(), 1)
	if !rf.fpsoc {
		rf.up.Push(umsg{kind: uFPGACredit, reg: i}, nil)
	}
	return v
}

// TryPopFPGA pops without blocking.
func (rf *regFile) TryPopFPGA(i int) (uint64, bool) {
	r := &rf.regs[i]
	if r.fabricQ.Len() == 0 {
		return 0, false
	}
	v := r.fabricQ.Pop()
	if !rf.fpsoc {
		rf.up.Push(umsg{kind: uFPGACredit, reg: i}, nil)
	}
	return v, true
}

// PushCPU pushes into CPU-bound FIFO i, blocking on credits.
func (rf *regFile) PushCPU(t *sim.Thread, i int, v uint64) {
	r := &rf.regs[i]
	if rf.fpsoc {
		t.SleepCycles(rf.a.fabric.Clock(), 1)
		if r.slowWait.Len() > 0 {
			// The up pump resolves and clears the pending entry.
			rf.up.Push(umsg{kind: uNormalResp, id: r.slowWait.Pop().id, val: v}, nil)
			return
		}
		r.slowCPUQ.Push(v)
		return
	}
	for r.cpuCredit <= 0 {
		rf.creditCond.Wait(t)
	}
	r.cpuCredit--
	t.SleepCycles(rf.a.fabric.Clock(), 1)
	rf.up.Push(umsg{kind: uCPUPush, reg: i, val: v}, nil)
}

// PushToken pushes a token into token FIFO i.
func (rf *regFile) PushToken(t *sim.Thread, i int) {
	r := &rf.regs[i]
	if rf.fpsoc {
		t.SleepCycles(rf.a.fabric.Clock(), 1)
		r.slowTokens++
		return
	}
	for r.cpuCredit <= 0 {
		rf.creditCond.Wait(t)
	}
	r.cpuCredit--
	t.SleepCycles(rf.a.fabric.Clock(), 1)
	rf.up.Push(umsg{kind: uTokenPush, reg: i}, nil)
}

// Claim routes normal-register traffic on register i to the accelerator.
func (rf *regFile) Claim(i int) { rf.regs[i].claimed = true }

// WaitOp blocks until a normal-register op arrives on claimed register i.
func (rf *regFile) WaitOp(t *sim.Thread, i int) *efpga.NormalOp {
	r := &rf.regs[i]
	for r.normalQ.Len() == 0 {
		r.normalCond.Wait(t)
	}
	return r.normalQ.Pop()
}

// Complete answers a claimed normal-register op.
func (rf *regFile) Complete(op *efpga.NormalOp, val uint64) {
	rf.up.Push(umsg{kind: uNormalResp, id: op.Seq, val: val}, nil)
}
