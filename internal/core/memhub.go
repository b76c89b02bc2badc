package core

import (
	"fmt"

	"duet/internal/cdc"
	"duet/internal/coherence"
	"duet/internal/cpu"
	"duet/internal/efpga"
	"duet/internal/mmu"
	"duet/internal/params"
	"duet/internal/sim"
)

// Hub request/response kinds.
const (
	hkLoad = iota
	hkStore
	hkAmo
)

const (
	hrData = iota
	hrStoreAck
	hrAmo
	hrInv
	hrErr
)

type hubReq struct {
	seq       uint64
	kind      int
	va        uint64
	size      int
	data      []byte
	amoOp     int
	operand   uint64
	operand2  uint64
	parityBad bool
	tx        *sim.TX
}

type hubResp struct {
	kind int
	seq  uint64
	data []byte
	old  uint64
	pa   uint64
	vpn  uint64
}

// MemHub is one Duet Memory Hub (paper §II-B): exception handler, feature
// switches, TLB and Proxy Cache, plus the async FIFOs to the fabric. In
// FPSoC mode the hub's logic runs in the slow clock domain and the
// FPGA-side cache is a CDC-bridged slow cache (the §V-D baseline).
type MemHub struct {
	a    *Adapter
	idx  int
	tile int

	proxy *coherence.PCache
	tlb   *mmu.TLB

	// Feature switches (MMIO-configurable).
	enabled     bool
	fwdInv      bool
	atomics     bool
	virtMode    bool
	killOnFault bool

	in      *cdc.Fifo
	inPush  *cdc.Pusher
	out     *cdc.Fifo
	outPush *cdc.Pusher

	outstanding    int
	maxOutstanding int
	slotCond       *sim.Cond

	tlbCond  *sim.Cond
	faultVA  uint64
	faulting bool

	parityFaults int // fault injection: next n requests arrive corrupted

	port *Port

	// Stats.
	Reqs, Loads, Stores, Amos, Errs, Invs uint64
}

func newMemHub(a *Adapter, idx, tile int, cacheID int) *MemHub {
	h := &MemHub{
		a:              a,
		idx:            idx,
		tile:           tile,
		tlb:            mmu.NewTLB(16),
		maxOutstanding: params.HubOutstanding,
	}
	h.slotCond = sim.NewCond(a.eng)
	h.tlbCond = sim.NewCond(a.eng)

	cfg := coherence.PCacheConfig{
		Name: fmt.Sprintf("adapter%d.hub%d.proxy", a.ID, idx),
		ID:   cacheID, Tile: tile,
		SizeBytes: params.L2Bytes, Ways: params.L2Ways, MSHRs: params.L2MSHRs,
		OnLineLost: func(line, vpn uint64) { h.onLineLost(line, vpn) },
	}
	if a.fpsoc {
		// FPSoC organization: the FPGA-side cache participates in
		// coherence from the slow clock domain (Fig. 4 "soft-only").
		cfg.HitCycles = params.SlowCacheTagCycles
		cfg.MissIssueCycles = 1
		cfg.FillCycles = params.SlowCacheProtoCycles
		cfg.FwdCycles = params.SlowCacheFwdCycles
		cfg.MSHRs = 1
		h.proxy = a.dom.NewSlowCache(cfg, a.fabric.Clock())
	} else {
		cfg.Clk = a.fastClk
		cfg.Cat = sim.CatFast
		cfg.HitCycles = params.L2HitCycles
		cfg.MissIssueCycles = params.L2MissIssue
		cfg.FillCycles = params.L2FillCycles
		cfg.FwdCycles = params.ProxyFwdCycles
		h.proxy = a.dom.NewCache(cfg)
		h.in = cdc.NewFifo(a.eng, cfg.Name+".in", a.fabric.Clock(), a.fastClk, params.FifoDepth, a.syncStages)
		h.inPush = cdc.NewPusher(a.eng, h.in)
		h.out = cdc.NewFifo(a.eng, cfg.Name+".out", a.fastClk, a.fabric.Clock(), params.FifoDepth, a.syncStages)
		h.outPush = cdc.NewPusher(a.eng, h.out)
		a.eng.Go(cfg.Name+".serve", h.serve)
	}
	h.port = &Port{hub: h, results: make(map[uint64]*hubResp), cond: sim.NewCond(a.eng)}
	if !a.fpsoc {
		a.eng.Go(cfg.Name+".pump", h.port.pump)
	}
	return h
}

// Enabled reports the hub's activation state.
func (h *MemHub) Enabled() bool { return h.enabled }

// onLineLost pushes an invalidation into the FPGA-bound stream (without
// waiting for any acknowledgement — the Proxy Cache novelty, §II-C).
func (h *MemHub) onLineLost(line, vpnTag uint64) {
	if !h.fwdInv {
		return
	}
	h.Invs++
	resp := &hubResp{kind: hrInv, pa: line, vpn: vpnTag}
	if h.a.fpsoc {
		// Same-domain delivery: the slow cache and soft cache share the
		// fabric clock.
		if h.port.invSink != nil {
			h.port.invSink(line, vpnTag)
		}
		return
	}
	h.outPush.Push(resp, nil)
}

// serve is the Duet-mode fast-domain service loop.
func (h *MemHub) serve(t *sim.Thread) {
	for {
		v, tx := h.in.PopBlocking(t)
		r := v.(*hubReq)
		before := h.a.eng.Now()
		t.SleepCycles(h.a.fastClk, params.HubIngressCycles)
		tx.Add(sim.CatFast, h.a.eng.Now()-before)
		h.process(t, r, tx)
	}
}

// process validates, translates and issues one request. It may block on a
// TLB fault or on the outstanding-request limit; requests behind it wait
// (in-order hub front end).
func (h *MemHub) process(t *sim.Thread, r *hubReq, tx *sim.TX) {
	if !h.enabled {
		h.Errs++
		h.respond(&hubResp{kind: hrErr, seq: r.seq}, tx)
		return
	}
	if r.parityBad {
		h.a.RaiseException(ErrParity)
		h.Errs++
		h.respond(&hubResp{kind: hrErr, seq: r.seq}, tx)
		return
	}
	h.Reqs++
	pa := r.va
	vpnTag := uint64(0)
	if h.virtMode {
		vpnTag = mmu.VPN(r.va) + 1
		for {
			p, hit := h.tlb.Lookup(r.va)
			if hit {
				pa = p
				break
			}
			// Page fault: interrupt the kernel and wait (paper §II-D).
			h.faultVA = r.va
			h.faulting = true
			h.a.irq.RaiseIRQ(cpu.IRQ{Cause: IRQTLBFault, Info: r.va, Source: h})
			for h.faulting && h.enabled {
				h.tlbCond.Wait(t)
			}
			if !h.enabled {
				h.Errs++
				h.respond(&hubResp{kind: hrErr, seq: r.seq}, tx)
				return
			}
		}
	}
	if r.kind == hkAmo && !h.atomics {
		h.Errs++
		h.respond(&hubResp{kind: hrErr, seq: r.seq}, tx)
		return
	}
	for h.outstanding >= h.maxOutstanding {
		h.slotCond.Wait(t)
	}
	h.outstanding++
	h.issue(r, pa, vpnTag, tx)
}

func (h *MemHub) issue(r *hubReq, pa, vpnTag uint64, tx *sim.TX) {
	release := func() {
		h.outstanding--
		h.slotCond.Broadcast()
	}
	switch r.kind {
	case hkLoad:
		h.Loads++
		h.proxy.LoadAsync(pa, r.size, vpnTag, tx, func(data []byte) {
			release()
			h.respond(&hubResp{kind: hrData, seq: r.seq, data: data}, tx)
		})
	case hkStore:
		h.Stores++
		h.proxy.StoreAsync(pa, r.data, vpnTag, tx, func() {
			release()
			h.respond(&hubResp{kind: hrStoreAck, seq: r.seq}, tx)
		})
	case hkAmo:
		h.Amos++
		h.proxy.AmoAsync(coherence.AmoOp(r.amoOp), pa, r.size, r.operand, r.operand2, tx, func(old uint64) {
			release()
			h.respond(&hubResp{kind: hrAmo, seq: r.seq, old: old}, tx)
		})
	}
}

func (h *MemHub) respond(r *hubResp, tx *sim.TX) {
	if h.a.fpsoc {
		h.port.deliver(r)
		return
	}
	h.outPush.Push(r, tx)
}

// ResolveFault is called (via MMIO or directly by a kernel handler) after
// installing a missing translation; the hub retries the faulting access.
func (h *MemHub) ResolveFault() {
	h.faulting = false
	h.tlbCond.Broadcast()
}

// KillAccelerator is the kernel's response to an invalid access: the hub
// is deactivated and the fault wait is released (paper §II-D: "kills the
// accelerator if the page access is deemed invalid").
func (h *MemHub) KillAccelerator() {
	h.enabled = false
	h.faulting = false
	h.a.RaiseExceptionCode(ErrKilled, false)
	h.tlbCond.Broadcast()
}

// InjectParityFaults corrupts the next n fabric requests (fault-injection
// hook for the exception-containment tests).
func (h *MemHub) InjectParityFaults(n int) { h.parityFaults += n }

// SetMaxOutstanding reconfigures the hub's in-flight request window (the
// Proxy Cache capacity that bounds Fig. 10's bandwidth ceiling); used by
// the ablation benchmarks.
func (h *MemHub) SetMaxOutstanding(n int) {
	if n < 1 {
		n = 1
	}
	h.maxOutstanding = n
	h.slotCond.Broadcast()
}

// deactivate stops accepting eFPGA requests; the Proxy Cache remains
// functional so in-flight coherence completes (paper §II-B).
func (h *MemHub) deactivate() {
	h.enabled = false
	h.tlbCond.Broadcast()
	h.slotCond.Broadcast()
}

// --- fabric-side port (efpga.MemIntf) --------------------------------------

// Port is the fabric-side memory interface of a Memory Hub.
type Port struct {
	hub     *MemHub
	seq     uint64
	results map[uint64]*hubResp
	cond    *sim.Cond
	invSink func(pa, vpn uint64)

	// pendingTX tags the next issued request for latency attribution
	// (synthetic benchmarks only).
	pendingTX *sim.TX
}

// TagNext attributes the next issued request's latency to tx (used by the
// Fig. 9 latency probes).
func (p *Port) TagNext(tx *sim.TX) { p.pendingTX = tx }

var _ efpga.MemIntf = (*Port)(nil)

// pump drains hub responses into the fabric domain in stream order
// (Duet mode only; FPSoC delivers directly).
func (p *Port) pump(t *sim.Thread) {
	for {
		v, _ := p.hub.out.PopBlocking(t)
		p.deliver(v.(*hubResp))
	}
}

func (p *Port) deliver(r *hubResp) {
	if r.kind == hrInv {
		if p.invSink != nil {
			p.invSink(r.pa, r.vpn)
		}
		return
	}
	p.results[r.seq] = r
	p.cond.Broadcast()
}

// SetInvSink registers the soft cache's invalidation listener.
func (p *Port) SetInvSink(fn func(pa, vpn uint64)) { p.invSink = fn }

func (p *Port) nextReq(kind int, va uint64, size int) *hubReq {
	p.seq++
	r := &hubReq{seq: p.seq, kind: kind, va: va, size: size, tx: p.pendingTX}
	p.pendingTX = nil
	if p.hub.parityFaults > 0 {
		p.hub.parityFaults--
		r.parityBad = true
	}
	return r
}

// send issues a request toward the hub; one slow cycle of issue cost.
func (p *Port) send(t *sim.Thread, r *hubReq) {
	t.SleepCycles(p.hub.a.fabric.Clock(), 1)
	if p.hub.a.fpsoc {
		// Direct slow-domain path: translation and cache access run on
		// the caller's thread.
		p.hub.process(t, r, r.tx)
		return
	}
	p.hub.inPush.Push(r, r.tx)
}

// LoadAsync issues a load and returns its handle.
func (p *Port) LoadAsync(t *sim.Thread, va uint64, size int) uint64 {
	r := p.nextReq(hkLoad, va, size)
	p.send(t, r)
	return r.seq
}

// StoreAsync issues a store (<= 8 bytes) and returns its handle.
func (p *Port) StoreAsync(t *sim.Thread, va uint64, data []byte) uint64 {
	if len(data) > params.HubStoreBytes {
		panic(fmt.Sprintf("memhub: store of %d bytes exceeds the %d-byte hub limit", len(data), params.HubStoreBytes))
	}
	r := p.nextReq(hkStore, va, len(data))
	r.data = append([]byte(nil), data...)
	p.send(t, r)
	return r.seq
}

// Await blocks until the handle completes, returning data (loads) or nil.
func (p *Port) Await(t *sim.Thread, handle uint64) ([]byte, error) {
	r, err := p.wait(t, handle)
	if err != nil {
		return nil, err
	}
	return r.data, nil
}

// wait blocks until the handle completes and takes its response.
func (p *Port) wait(t *sim.Thread, handle uint64) (*hubResp, error) {
	for p.results[handle] == nil {
		p.cond.Wait(t)
	}
	r := p.results[handle]
	delete(p.results, handle)
	if r.kind == hrErr {
		return nil, fmt.Errorf("memhub: request failed (hub deactivated or access killed)")
	}
	return r, nil
}

// Load performs a blocking load of size bytes at va.
func (p *Port) Load(t *sim.Thread, va uint64, size int) ([]byte, error) {
	return p.Await(t, p.LoadAsync(t, va, size))
}

// LoadLine performs a blocking 16-byte line load.
func (p *Port) LoadLine(t *sim.Thread, va uint64) ([]byte, error) {
	return p.Load(t, va&^uint64(params.LineBytes-1), params.LineBytes)
}

// Store performs a blocking store.
func (p *Port) Store(t *sim.Thread, va uint64, data []byte) error {
	_, err := p.Await(t, p.StoreAsync(t, va, data))
	return err
}

// Amo performs a blocking atomic; op is a coherence.AmoOp value.
func (p *Port) Amo(t *sim.Thread, op int, va uint64, size int, operand, operand2 uint64) (uint64, error) {
	r := p.nextReq(hkAmo, va, size)
	r.amoOp = op
	r.operand, r.operand2 = operand, operand2
	p.send(t, r)
	resp, err := p.wait(t, r.seq)
	if err != nil {
		return 0, err
	}
	return resp.old, nil
}
