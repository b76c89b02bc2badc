package core

import (
	"fmt"
	"slices"

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

type dmsg struct {
	kind  dkind
	reg   int
	val   uint64
	seq   uint64
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
	seq  uint64
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
	specs []SoftRegSpec
	fpsoc bool

	// Fast-domain state.
	fastVals   []uint64 // plain shadow copies
	cpuQ       [][]uint64
	tokens     []int
	fpgaCredit []int
	// The wait lists (fpgaWait, readWait, slowWait) hold pending ops
	// only: a timed-out op leaves them (forget).
	fpgaWait [][]*inflight // ops stalled on FPGA-bound FIFO credit
	readWait [][]*inflight // CPU reads blocked on empty CPU-bound FIFO
	// shadowFn completes a shadow register access after its
	// ShadowRegCycles; cpuAccess schedules it with the op as argument.
	shadowFn func(any)

	// Slow-domain (fabric) state.
	slowVals   []uint64
	fabricQ    [][]uint64
	fabricCond []*sim.Cond
	cpuCredit  []int
	creditCond *sim.Cond
	claimed    []bool
	normalQ    [][]*efpga.NormalOp
	normalCond []*sim.Cond
	// FPSoC mode: CPU-bound queues live slow-side; blocked reads park here.
	slowCPUQ   [][]uint64
	slowTokens []int
	slowWait   [][]*inflight

	down     *cdc.Fifo[dmsg]
	downPush *cdc.Pusher[dmsg]
	up       *cdc.Fifo[umsg]
	upPush   *cdc.Pusher[umsg]
}

func newRegFile(a *Adapter, specs []SoftRegSpec, fpsoc bool) *regFile {
	n := len(specs)
	rf := &regFile{
		a:     a,
		specs: specs,
		fpsoc: fpsoc,

		fastVals:   make([]uint64, n),
		cpuQ:       make([][]uint64, n),
		tokens:     make([]int, n),
		fpgaCredit: make([]int, n),
		fpgaWait:   make([][]*inflight, n),
		readWait:   make([][]*inflight, n),

		slowVals:   make([]uint64, n),
		fabricQ:    make([][]uint64, n),
		fabricCond: make([]*sim.Cond, n),
		cpuCredit:  make([]int, n),
		creditCond: sim.NewCond(a.eng),
		claimed:    make([]bool, n),
		normalQ:    make([][]*efpga.NormalOp, n),
		normalCond: make([]*sim.Cond, n),
		slowCPUQ:   make([][]uint64, n),
		slowTokens: make([]int, n),
		slowWait:   make([][]*inflight, n),
	}
	for i := range specs {
		if specs[i].Depth <= 0 {
			specs[i].Depth = params.FifoDepth
		}
		rf.specs[i] = specs[i]
		rf.fpgaCredit[i] = specs[i].Depth
		rf.cpuCredit[i] = specs[i].Depth
		rf.fabricCond[i] = sim.NewCond(a.eng)
		rf.normalCond[i] = sim.NewCond(a.eng)
	}
	slow := a.fabric.Clock()
	fast := a.fastClk
	rf.down = cdc.NewFifo[dmsg](a.eng, "ctrl.down", fast, slow, params.FifoDepth, a.syncStages)
	rf.downPush = cdc.NewPusher(a.eng, rf.down)
	rf.up = cdc.NewFifo[umsg](a.eng, "ctrl.up", slow, fast, params.FifoDepth, a.syncStages)
	rf.upPush = cdc.NewPusher(a.eng, rf.up)
	rf.shadowFn = func(x any) { rf.shadow(x.(*inflight)) }

	a.eng.Go("ctrl.fabric-engine", rf.fabricEngine)
	a.eng.Go("ctrl.up-pump", rf.upPump)
	return rf
}

// --- CPU (fast/MMIO) side -------------------------------------------------

// cpuAccess handles a decoded MMIO soft register access (op.reg,
// op.write, op.val). The inflight op is completed (possibly later) by the
// register machinery; the adapter's ordering engine releases responses in
// arrival order.
func (rf *regFile) cpuAccess(op *inflight) {
	reg := op.reg
	if reg < 0 || reg >= len(rf.specs) {
		rf.a.complete(op, 0, true)
		return
	}
	kind := rf.specs[reg].Kind
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
	reg := op.reg
	switch rf.specs[reg].Kind {
	case RegPlain:
		if op.write {
			rf.fastVals[reg] = op.val
			// The forward into the fabric is off the critical path
			// (the ack does not wait for it): untagged.
			rf.downPush.Push(dmsg{kind: dPlainSync, reg: reg, val: op.val}, nil)
			rf.a.complete(op, 0, false)
		} else {
			rf.a.complete(op, rf.fastVals[reg], false)
		}
	case RegFIFOToFPGA:
		switch {
		case !op.write:
			// Reads of an FPGA-bound FIFO report the available credit.
			rf.a.complete(op, uint64(rf.fpgaCredit[reg]), false)
		case rf.fpgaCredit[reg] > 0:
			rf.pushFPGAData(op)
		default:
			// Stall until the accelerator pops (credit returns); the
			// watchdog prevents a hung accelerator from blocking the
			// processor forever.
			rf.fpgaWait[reg] = append(rf.fpgaWait[reg], op)
			rf.a.watchdog(op)
		}
	case RegFIFOToCPU:
		if q := rf.cpuQ[reg]; len(q) > 0 {
			rf.cpuQ[reg] = q[1:]
			rf.downPush.Push(dmsg{kind: dCPUCredit, reg: reg}, nil)
			rf.a.complete(op, q[0], false)
		} else {
			// Blocking read: park with a watchdog. Parked reads stop
			// gating later same-source operations.
			rf.readWait[reg] = append(rf.readWait[reg], op)
			rf.a.park(op)
			rf.a.watchdog(op)
		}
	case RegTokenFIFO:
		if rf.tokens[reg] > 0 {
			rf.tokens[reg]--
			rf.downPush.Push(dmsg{kind: dCPUCredit, reg: reg}, nil)
			rf.a.complete(op, 1, false)
		} else {
			rf.a.complete(op, 0, false) // empty: non-blocking
		}
	}
}

// pushFPGAData sends an FPGA-bound FIFO write (op.val) into the fabric,
// spending one credit.
func (rf *regFile) pushFPGAData(op *inflight) {
	rf.fpgaCredit[op.reg]--
	// Data crosses the CDC after the ack: off the critical path.
	rf.downPush.Push(dmsg{kind: dFifoData, reg: op.reg, val: op.val}, nil)
	rf.a.complete(op, 0, false)
}

func (rf *regFile) sendNormal(op *inflight) {
	seq := rf.a.nextSeq()
	op.normalSeq = seq
	rf.a.pendingNormal[seq] = op
	rf.downPush.Push(dmsg{kind: dNormalOp, reg: op.reg, val: op.val, seq: seq, write: op.write}, op.tx)
	rf.a.watchdog(op)
}

// forget removes a timed-out op from the wait lists, so the lists only
// ever hold pending ops and a recycled record is never found there.
func (rf *regFile) forget(op *inflight) {
	del := func(w []*inflight) []*inflight {
		if i := slices.Index(w, op); i >= 0 {
			return slices.Delete(w, i, i+1)
		}
		return w
	}
	rf.fpgaWait[op.reg] = del(rf.fpgaWait[op.reg])
	rf.readWait[op.reg] = del(rf.readWait[op.reg])
	rf.slowWait[op.reg] = del(rf.slowWait[op.reg])
}

// --- fabric (slow) side ---------------------------------------------------

// fabricEngine is the slow-domain service loop of the Soft Register
// Interface.
func (rf *regFile) fabricEngine(t *sim.Thread) {
	for {
		m, tx := rf.down.PopBlocking(t)
		// The engine retires at most one fabric-bound message per slow
		// cycle (single-ported soft register interface).
		t.SleepCycles(rf.a.fabric.Clock(), 1)
		switch m.kind {
		case dPlainSync:
			rf.slowVals[m.reg] = m.val
		case dFifoData:
			rf.fabricQ[m.reg] = append(rf.fabricQ[m.reg], m.val)
			rf.fabricCond[m.reg].Broadcast()
		case dCPUCredit:
			rf.cpuCredit[m.reg]++
			rf.creditCond.Broadcast()
		case dNormalOp:
			rf.handleNormal(t, m, tx)
		}
	}
}

func (rf *regFile) handleNormal(t *sim.Thread, m dmsg, tx *sim.TX) {
	before := rf.a.eng.Now()
	t.SleepCycles(rf.a.fabric.Clock(), params.SoftRegCycles)
	tx.Add(sim.CatSlow, rf.a.eng.Now()-before)

	if rf.claimed[m.reg] {
		rf.normalQ[m.reg] = append(rf.normalQ[m.reg], &efpga.NormalOp{
			Reg: m.reg, Write: m.write, Value: m.val, Seq: m.seq,
		})
		rf.normalCond[m.reg].Broadcast()
		return
	}
	if rf.fpsoc {
		// FPSoC downgrade: emulate the FIFO semantics in the slow domain.
		switch rf.specs[m.reg].Kind {
		case RegFIFOToFPGA:
			if m.write {
				rf.fabricQ[m.reg] = append(rf.fabricQ[m.reg], m.val)
				rf.fabricCond[m.reg].Broadcast()
				rf.upPush.Push(umsg{kind: uNormalResp, seq: m.seq}, tx)
				return
			}
			rf.upPush.Push(umsg{kind: uNormalResp, seq: m.seq, val: uint64(len(rf.fabricQ[m.reg]))}, tx)
			return
		case RegFIFOToCPU:
			if !m.write {
				if q := rf.slowCPUQ[m.reg]; len(q) > 0 {
					rf.slowCPUQ[m.reg] = q[1:]
					rf.upPush.Push(umsg{kind: uNormalResp, seq: m.seq, val: q[0]}, tx)
					return
				}
				op := rf.a.pendingNormal[m.seq]
				if op != nil {
					rf.slowWait[m.reg] = append(rf.slowWait[m.reg], op)
					rf.a.park(op)
				}
				return // completed on a later push (or times out)
			}
			rf.upPush.Push(umsg{kind: uNormalResp, seq: m.seq}, tx)
			return
		case RegTokenFIFO:
			if !m.write {
				val := uint64(0)
				if rf.slowTokens[m.reg] > 0 {
					rf.slowTokens[m.reg]--
					val = 1
				}
				rf.upPush.Push(umsg{kind: uNormalResp, seq: m.seq, val: val}, tx)
				return
			}
		}
	}
	// Default normal register semantics: a plain value in the fabric.
	if m.write {
		rf.slowVals[m.reg] = m.val
		rf.upPush.Push(umsg{kind: uNormalResp, seq: m.seq}, tx)
	} else {
		rf.upPush.Push(umsg{kind: uNormalResp, seq: m.seq, val: rf.slowVals[m.reg]}, tx)
	}
}

// upPump drains fabric→hub traffic in the fast domain.
func (rf *regFile) upPump(t *sim.Thread) {
	for {
		m, _ := rf.up.PopBlocking(t)
		switch m.kind {
		case uPlainSync:
			rf.fastVals[m.reg] = m.val
		case uNormalResp:
			op := rf.a.pendingNormal[m.seq]
			if op == nil || op.done {
				continue // timed out earlier; drop
			}
			delete(rf.a.pendingNormal, m.seq)
			rf.a.complete(op, m.val, false)
		case uCPUPush:
			if w := rf.readWait[m.reg]; len(w) > 0 {
				rf.readWait[m.reg] = w[1:]
				rf.downPush.Push(dmsg{kind: dCPUCredit, reg: m.reg}, nil)
				rf.a.complete(w[0], m.val, false)
			} else {
				rf.cpuQ[m.reg] = append(rf.cpuQ[m.reg], m.val)
			}
		case uTokenPush:
			rf.tokens[m.reg]++
		case uFPGACredit:
			rf.fpgaCredit[m.reg]++
			if w := rf.fpgaWait[m.reg]; len(w) > 0 && rf.fpgaCredit[m.reg] > 0 {
				rf.fpgaWait[m.reg] = w[1:]
				rf.pushFPGAData(w[0])
			}
		}
	}
}

// --- accelerator-facing API (efpga.RegIntf) --------------------------------

var _ efpga.RegIntf = (*regFile)(nil)

// ReadPlain returns the fabric copy of plain shadow register i.
func (rf *regFile) ReadPlain(i int) uint64 { return rf.slowVals[i] }

// WritePlain updates the fabric copy and synchronizes the fast shadow.
func (rf *regFile) WritePlain(t *sim.Thread, i int, v uint64) {
	rf.slowVals[i] = v
	t.SleepCycles(rf.a.fabric.Clock(), 1)
	rf.upPush.Push(umsg{kind: uPlainSync, reg: i, val: v}, nil)
}

// PopFPGA pops FPGA-bound FIFO i, blocking until data arrives.
func (rf *regFile) PopFPGA(t *sim.Thread, i int) uint64 {
	for len(rf.fabricQ[i]) == 0 {
		rf.fabricCond[i].Wait(t)
	}
	v := rf.fabricQ[i][0]
	rf.fabricQ[i] = rf.fabricQ[i][1:]
	t.SleepCycles(rf.a.fabric.Clock(), 1)
	if !rf.fpsoc {
		rf.upPush.Push(umsg{kind: uFPGACredit, reg: i}, nil)
	}
	return v
}

// TryPopFPGA pops without blocking.
func (rf *regFile) TryPopFPGA(i int) (uint64, bool) {
	if len(rf.fabricQ[i]) == 0 {
		return 0, false
	}
	v := rf.fabricQ[i][0]
	rf.fabricQ[i] = rf.fabricQ[i][1:]
	if !rf.fpsoc {
		rf.upPush.Push(umsg{kind: uFPGACredit, reg: i}, nil)
	}
	return v, true
}

// PushCPU pushes into CPU-bound FIFO i, blocking on credits.
func (rf *regFile) PushCPU(t *sim.Thread, i int, v uint64) {
	if rf.fpsoc {
		t.SleepCycles(rf.a.fabric.Clock(), 1)
		if w := rf.slowWait[i]; len(w) > 0 {
			rf.slowWait[i] = w[1:]
			// The up pump resolves and clears the pending entry.
			rf.upPush.Push(umsg{kind: uNormalResp, seq: w[0].normalSeq, val: v}, nil)
			return
		}
		rf.slowCPUQ[i] = append(rf.slowCPUQ[i], v)
		return
	}
	for rf.cpuCredit[i] <= 0 {
		rf.creditCond.Wait(t)
	}
	rf.cpuCredit[i]--
	t.SleepCycles(rf.a.fabric.Clock(), 1)
	rf.upPush.Push(umsg{kind: uCPUPush, reg: i, val: v}, nil)
}

// PushToken pushes a token into token FIFO i.
func (rf *regFile) PushToken(t *sim.Thread, i int) {
	if rf.fpsoc {
		t.SleepCycles(rf.a.fabric.Clock(), 1)
		rf.slowTokens[i]++
		return
	}
	for rf.cpuCredit[i] <= 0 {
		rf.creditCond.Wait(t)
	}
	rf.cpuCredit[i]--
	t.SleepCycles(rf.a.fabric.Clock(), 1)
	rf.upPush.Push(umsg{kind: uTokenPush, reg: i}, nil)
}

// Claim routes normal-register traffic on register i to the accelerator.
func (rf *regFile) Claim(i int) { rf.claimed[i] = true }

// WaitOp blocks until a normal-register op arrives on claimed register i.
func (rf *regFile) WaitOp(t *sim.Thread, i int) *efpga.NormalOp {
	for len(rf.normalQ[i]) == 0 {
		rf.normalCond[i].Wait(t)
	}
	op := rf.normalQ[i][0]
	rf.normalQ[i] = rf.normalQ[i][1:]
	return op
}

// Complete answers a claimed normal-register op.
func (rf *regFile) Complete(op *efpga.NormalOp, val uint64) {
	rf.upPush.Push(umsg{kind: uNormalResp, seq: op.Seq, val: val}, nil)
}

func (rf *regFile) String() string {
	return fmt.Sprintf("regfile(%d regs, fpsoc=%v)", len(rf.specs), rf.fpsoc)
}
