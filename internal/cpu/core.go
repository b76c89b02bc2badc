// Package cpu models the processor tiles: an Ariane-like 6-stage, in-order,
// single-issue core (paper §IV) with a write-through L1 data cache backed
// by the coherent private L2, blocking loads and stores, strictly ordered
// MMIO, home-side atomics, and interrupt delivery at instruction
// boundaries.
//
// Benchmark "programs" are ordinary Go functions written against the Proc
// interface; they run as deterministic simulation threads and compute on
// real data inside the simulated memory system, so results can be checked
// functionally as well as timed.
package cpu

import (
	"fmt"

	"duet/internal/coherence"
	"duet/internal/mmio"
	"duet/internal/noc"
	"duet/internal/params"
	"duet/internal/sim"
)

// IRQ is an interrupt delivered to a core (e.g. a TLB page fault from a
// Memory Hub).
type IRQ struct {
	Cause string
	Info  uint64
	// Source lets the handler talk back to the raising device.
	Source interface{}
}

// Proc is the API benchmark programs run against. All methods charge
// simulated time; Exec models computation between memory operations.
type Proc interface {
	// Now reports the current simulated time.
	Now() sim.Time
	// Exec charges n core cycles of computation.
	Exec(n int64)

	// Load64/Load32 perform blocking loads (L1 -> L2 -> coherence).
	Load64(addr uint64) uint64
	Load32(addr uint64) uint32
	// Store64/Store32 perform blocking stores (write-through L1).
	Store64(addr uint64, v uint64)
	Store32(addr uint64, v uint32)

	// AmoAdd64, AmoSwap64 and Cas64 are home-side atomics. Cas64 returns
	// the old value (compare with expected to detect success).
	AmoAdd64(addr uint64, delta uint64) uint64
	AmoSwap64(addr uint64, v uint64) uint64
	Cas64(addr uint64, expected, desired uint64) uint64

	// MMIORead64/MMIOWrite64 perform strictly ordered, blocking MMIO.
	MMIORead64(addr uint64) uint64
	MMIOWrite64(addr uint64, v uint64)

	// Fence drains the core's memory operations (no-op beyond a cycle in
	// this blocking model; kept for program fidelity).
	Fence()

	// spinUntil is the polled spin loop behind the sync primitives; see
	// sync.go. Being unexported, it keeps *proc the only Proc.
	spinUntil(addr, want uint64, eq bool) uint64
}

// Core is one processor tile.
type Core struct {
	id   int
	tile int
	eng  *sim.Engine
	clk  *sim.Clock
	mesh *noc.Mesh
	l2   *coherence.PCache
	l1   *l1d

	route mmio.Router

	seq      uint64
	mmioCond *sim.Cond
	mmioResp map[uint64]*mmio.Resp

	irqPending []IRQ
	irqHandler func(p Proc, irq IRQ)

	// memTX/mmioTX tag the next memory/MMIO operation for latency
	// attribution (synthetic benchmarks only).
	memTX  *sim.TX
	mmioTX *sim.TX

	// Stats.
	Instrs, Loads, Stores, Atomics, MMIOs uint64
	L1Hits, L1Misses                      uint64
}

// New creates a core at the given tile with its private L2 attached to the
// domain. route maps MMIO addresses to device tiles (may be nil if the
// program never issues MMIO).
func New(eng *sim.Engine, mesh *noc.Mesh, dom *coherence.Domain, id, tile int, route mmio.Router) *Core {
	c := &Core{
		id:       id,
		tile:     tile,
		eng:      eng,
		clk:      mesh.Clock(),
		mesh:     mesh,
		route:    route,
		mmioCond: sim.NewCond(eng),
		mmioResp: make(map[uint64]*mmio.Resp),
	}
	c.l1 = newL1D(params.L1DBytes, params.L1DWays)
	c.l2 = dom.NewCache(coherence.PCacheConfig{
		Name: fmt.Sprintf("core%d.l2", id), ID: id, Tile: tile,
		Clk: c.clk, Cat: sim.CatFast,
		SizeBytes: params.L2Bytes, Ways: params.L2Ways, MSHRs: params.L2MSHRs,
		HitCycles: params.L2HitCycles, MissIssueCycles: params.L2MissIssue,
		FillCycles: params.L2FillCycles, FwdCycles: params.ProxyFwdCycles,
		// Keep the write-through L1 coherent: inclusion via back-invalidation.
		OnLineLost: func(line, vpn uint64) { c.l1.invalidate(line) },
	})
	mesh.Register(tile, noc.VNMMIOResp, c.onMMIOResp)
	return c
}

// SetIRQHandler installs the kernel trap handler invoked at instruction
// boundaries when an interrupt is pending.
func (c *Core) SetIRQHandler(h func(p Proc, irq IRQ)) { c.irqHandler = h }

// TagNextLoad attributes the next load's latency to tx (one-shot).
func (c *Core) TagNextLoad(tx *sim.TX) { c.memTX = tx }

// TagNextMMIO attributes the next MMIO operation's latency to tx
// (one-shot).
func (c *Core) TagNextMMIO(tx *sim.TX) { c.mmioTX = tx }

// RaiseIRQ queues an interrupt for delivery (called by devices in engine
// context). Cores stalled on blocking MMIO are woken so the trap can be
// taken mid-stall (a page-faulting Memory Hub may be blocking the very
// MMIO read the core is waiting on).
func (c *Core) RaiseIRQ(irq IRQ) {
	c.irqPending = append(c.irqPending, irq)
	c.mmioCond.Broadcast()
}

// Run spawns prog on the core as a simulation thread and returns the
// thread (finished when prog returns).
func (c *Core) Run(name string, prog func(Proc)) *sim.Thread {
	return c.eng.Go(fmt.Sprintf("core%d:%s", c.id, name), func(t *sim.Thread) {
		p := &proc{core: c, t: t}
		t.AlignTo(c.clk)
		prog(p)
	})
}

func (c *Core) onMMIOResp(m *noc.Msg) {
	r := m.Payload.(*mmio.Resp)
	c.mmioResp[r.SeqID] = r
	c.mmioCond.Broadcast()
}

// trap entry/exit costs (cycles), modelling a bare-metal RISC-V trap.
const (
	trapEntryCycles = 20
	trapExitCycles  = 10
)

type proc struct {
	core *Core
	t    *sim.Thread

	// stbuf stages store data. Both consumers copy synchronously (the L1
	// in update, the L2 in StoreAsync), so one scratch buffer serves every
	// store without a per-store allocation.
	stbuf [8]byte

	spin *spinner // spinUntil's engine-driven half, built at the first spin
}

func (p *proc) Now() sim.Time { return p.t.Now() }

// irqDue reports whether an interrupt would be taken at the next
// instruction boundary.
func (c *Core) irqDue() bool { return len(c.irqPending) > 0 && c.irqHandler != nil }

// checkIRQ delivers pending interrupts at an instruction boundary.
func (p *proc) checkIRQ() {
	c := p.core
	for c.irqDue() {
		irq := c.irqPending[0]
		c.irqPending = c.irqPending[1:]
		p.t.SleepCycles(c.clk, trapEntryCycles)
		c.irqHandler(p, irq)
		p.t.SleepCycles(c.clk, trapExitCycles)
	}
}

func (p *proc) Exec(n int64) {
	p.checkIRQ()
	if n <= 0 {
		return
	}
	p.core.Instrs += uint64(n)
	p.t.SleepCycles(p.core.clk, n)
}

func (p *proc) load(addr uint64, size int) uint64 {
	v, hit := p.issueLoad(addr, size)
	if hit {
		p.t.SleepCycles(p.core.clk, params.L1HitCycles)
	}
	return v
}

// issueLoad performs a load up to its L1 hit latency: an L1 hit returns
// the value at once (hit true) and leaves the L1HitCycles wait to the
// caller, a miss blocks until the L2 delivers the line.
func (p *proc) issueLoad(addr uint64, size int) (v uint64, hit bool) {
	p.checkIRQ()
	c := p.core
	c.Loads++
	c.Instrs++
	if data, ok := c.l1.load(addr, size); ok {
		c.L1Hits++
		return data, true
	}
	c.L1Misses++
	// L1 miss: fetch the line through the L2 (blocking).
	tx := c.memTX
	c.memTX = nil
	b := c.l2.Load(p.t, addr, size, tx)
	line, _ := c.l2.PeekLine(addr &^ (params.LineBytes - 1))
	c.l1.fill(addr&^(params.LineBytes-1), line)
	return coherence.Uint64At(b), false
}

func (p *proc) store(addr uint64, v uint64, size int) {
	p.checkIRQ()
	c := p.core
	c.Stores++
	c.Instrs++
	buf := p.stbuf[:size]
	for i := 0; i < size; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	// Write-through: update L1 copy if present, then commit to L2.
	c.l1.update(addr, buf)
	c.l2.Store(p.t, addr, buf, nil)
}

func (p *proc) Load64(addr uint64) uint64     { return p.load(addr, 8) }
func (p *proc) Load32(addr uint64) uint32     { return uint32(p.load(addr, 4)) }
func (p *proc) Store64(addr uint64, v uint64) { p.store(addr, v, 8) }
func (p *proc) Store32(addr uint64, v uint32) { p.store(addr, uint64(v), 4) }

func (p *proc) amo(op coherence.AmoOp, addr uint64, operand, operand2 uint64) uint64 {
	p.checkIRQ()
	c := p.core
	c.Atomics++
	c.Instrs++
	// The L1 copy (if any) is invalidated: atomics execute at the home.
	c.l1.invalidate(addr &^ (params.LineBytes - 1))
	return c.l2.Amo(p.t, op, addr, 8, operand, operand2, nil)
}

func (p *proc) AmoAdd64(addr uint64, delta uint64) uint64 {
	return p.amo(coherence.AmoAdd, addr, delta, 0)
}
func (p *proc) AmoSwap64(addr uint64, v uint64) uint64 { return p.amo(coherence.AmoSwap, addr, v, 0) }
func (p *proc) Cas64(addr uint64, expected, desired uint64) uint64 {
	return p.amo(coherence.AmoCAS, addr, expected, desired)
}

func (p *proc) MMIORead64(addr uint64) uint64 { return p.mmio(addr, false, 0) }
func (p *proc) MMIOWrite64(addr uint64, v uint64) {
	p.mmio(addr, true, v)
}

func (p *proc) mmio(addr uint64, write bool, v uint64) uint64 {
	p.checkIRQ()
	c := p.core
	c.MMIOs++
	c.Instrs++
	if c.route == nil {
		panic(fmt.Sprintf("core%d: MMIO %#x with no router", c.id, addr))
	}
	tile, ok := c.route(addr)
	if !ok {
		panic(fmt.Sprintf("core%d: MMIO to unmapped address %#x", c.id, addr))
	}
	c.seq++
	req := &mmio.Req{Addr: addr, Write: write, Size: 8, Data: v, SrcTile: c.tile, SeqID: c.seq}
	tx := c.mmioTX
	c.mmioTX = nil
	p.t.SleepCycles(c.clk, 1) // issue
	c.mesh.Send(&noc.Msg{Src: c.tile, Dst: tile, VN: noc.VNMMIOReq, Bytes: mmio.ReqBytes, Payload: req, TX: tx})
	// Strict I/O ordering: block until the response arrives. Interrupts
	// are taken while stalled (the kernel handler may need to unblock the
	// device this very access is waiting on).
	for {
		if r, done := c.mmioResp[req.SeqID]; done {
			delete(c.mmioResp, req.SeqID)
			return r.Data
		}
		if len(c.irqPending) > 0 && c.irqHandler != nil {
			p.checkIRQ()
			continue
		}
		c.mmioCond.Wait(p.t)
	}
}

func (p *proc) Fence() {
	p.checkIRQ()
	p.t.SleepCycles(p.core.clk, 1)
}
