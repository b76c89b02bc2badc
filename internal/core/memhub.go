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

// hubReq is one fabric request. Records come from the port's free list
// and go back when the hub responds (respond is the last reader), so a
// request allocates nothing once the list holds as many records as the
// hub has in flight.
type hubReq struct {
	seq       uint64
	kind      int
	va        uint64
	size      int
	data      []byte // store data: buf[:size]
	buf       [params.HubStoreBytes]byte
	amoOp     int
	operand   uint64
	operand2  uint64
	parityBad bool
	tx        *sim.TX

	// Front-end progress (MemHub.advance): the stage reached and the
	// translation so far.
	stage      hubStage
	pa, vpnTag uint64
}

// hubStage is how far a request has gone through the hub's front end.
type hubStage int

const (
	hubAdmit     hubStage = iota // not yet validated
	hubTranslate                 // to look up in the TLB
	hubFault                     // waiting for the kernel to resolve a TLB fault
	hubCheck                     // translated; the feature switches are next
	hubSlot                      // waiting for a slot in the outstanding window
)

// hubResp crosses the FPGA-bound FIFO by value.
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

	in  *cdc.Fifo[*hubReq]
	out *cdc.Fifo[hubResp]

	outstanding    int
	maxOutstanding int
	slotCond       *sim.Cond

	tlbCond  *sim.Cond
	faultVA  uint64
	faulting bool

	parityFaults int // fault injection: next n requests arrive corrupted

	port *Port

	// The Duet-mode front end, a callback state machine: the request in
	// it (nil while it waits for one) and its pre-built wake record.
	cur       *hubReq
	serveWake sim.Event

	// doneFn is the hub's one completion callback for issued accesses,
	// called with the request as its argument.
	doneFn coherence.DoneFunc
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
	h.doneFn = h.accessDone

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
		h.in = cdc.NewFifo[*hubReq](a.eng, cfg.Name+".in", a.fabric.Clock(), a.fastClk, params.FifoDepth, a.syncStages)
		h.out = cdc.NewFifo[hubResp](a.eng, cfg.Name+".out", a.fastClk, a.fabric.Clock(), params.FifoDepth, a.syncStages)
		h.serveWake = sim.Event{Fn: runServe, Arg: h}
		a.eng.AtEvent(a.eng.Now(), &h.serveWake)
	}
	h.port = &Port{hub: h, results: make(map[uint64]hubResp), cond: sim.NewCond(a.eng)}
	if !a.fpsoc {
		h.out.Drain(h.port.pump)
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
	if h.a.fpsoc {
		// Same-domain delivery: the slow cache and soft cache share the
		// fabric clock.
		if h.port.invSink != nil {
			h.port.invSink(line, vpnTag)
		}
		return
	}
	h.out.Push(hubResp{kind: hrInv, pa: line, vpn: vpnTag}, nil)
}

// runServe is the trampoline behind the front end's wakes.
func runServe(a any) { a.(*MemHub).serve() }

// serve is the Duet-mode fast-domain service loop, run from its wake
// record: it takes requests from the fabric in order, charges each its
// ingress cycles and takes it through the front end (advance).
func (h *MemHub) serve() {
	eng := h.a.eng
	for {
		if h.cur == nil {
			r, tx, ok := h.in.TryPop()
			if !ok {
				h.in.AwaitNotEmpty(&h.serveWake)
				return
			}
			h.cur = r
			now := eng.Now()
			tm := h.a.fastClk.EdgesAfter(now, params.HubIngressCycles)
			tx.Add(sim.CatFast, tm-now)
			if !eng.RunOn(tm, &h.serveWake) {
				return
			}
		}
		if c := h.advance(h.cur); c != nil {
			c.Await(&h.serveWake)
			return
		}
		h.cur = nil
	}
}

// advance validates, translates and issues r, from the stage it reached.
// It returns nil once r is issued or failed, and r is no longer the
// caller's; otherwise the condition to wait on before calling it again:
// a TLB fault or the outstanding-request limit. Requests behind r wait
// (in-order hub front end).
func (h *MemHub) advance(r *hubReq) *sim.Cond {
	for {
		switch r.stage {
		case hubAdmit:
			if !h.enabled {
				return h.reject(r)
			}
			if r.parityBad {
				h.a.RaiseException(ErrParity)
				return h.reject(r)
			}
			r.pa, r.stage = r.va, hubCheck
			if h.virtMode {
				r.vpnTag, r.stage = mmu.VPN(r.va)+1, hubTranslate
			}
		case hubTranslate:
			if p, hit := h.tlb.Lookup(r.va); hit {
				r.pa, r.stage = p, hubCheck
				continue
			}
			// Page fault: interrupt the kernel and wait (paper §II-D).
			h.faultVA = r.va
			h.faulting = true
			h.a.irq.RaiseIRQ(cpu.IRQ{Cause: IRQTLBFault, Info: r.va, Source: h})
			r.stage = hubFault
		case hubFault:
			if h.faulting && h.enabled {
				return h.tlbCond
			}
			if !h.enabled {
				return h.reject(r)
			}
			r.stage = hubTranslate
		case hubCheck:
			if r.kind == hkAmo && !h.atomics {
				return h.reject(r)
			}
			r.stage = hubSlot
		case hubSlot:
			if h.outstanding >= h.maxOutstanding {
				return h.slotCond
			}
			h.outstanding++
			h.issue(r)
			return nil
		}
	}
}

// reject fails r as an error of the hub's.
func (h *MemHub) reject(r *hubReq) *sim.Cond {
	h.fail(r)
	return nil
}

// issue sends r, translated, to the Proxy Cache.
func (h *MemHub) issue(r *hubReq) {
	switch r.kind {
	case hkLoad:
		h.proxy.LoadAsync(r.pa, r.size, r.vpnTag, r.tx, h.doneFn, r)
	case hkStore:
		h.proxy.StoreAsync(r.pa, r.data, r.vpnTag, r.tx, h.doneFn, r)
	case hkAmo:
		h.proxy.AmoAsync(coherence.AmoOp(r.amoOp), r.pa, r.size, r.operand, r.operand2, r.tx, h.doneFn, r)
	}
}

// accessDone completes an issued request: it frees the request's slot in
// the outstanding window and responds with the proxy's result.
func (h *MemHub) accessDone(arg any, data []byte, old uint64) {
	r := arg.(*hubReq)
	h.outstanding--
	h.slotCond.Broadcast()
	resp := hubResp{seq: r.seq}
	switch r.kind {
	case hkLoad:
		resp.kind, resp.data = hrData, data
	case hkStore:
		resp.kind = hrStoreAck
	case hkAmo:
		resp.kind, resp.old = hrAmo, old
	}
	h.respond(r, resp)
}

// fail answers r with an error.
func (h *MemHub) fail(r *hubReq) {
	h.respond(r, hubResp{kind: hrErr, seq: r.seq})
}

// respond sends resp toward the fabric and recycles its request, whose
// last reader this is.
func (h *MemHub) respond(r *hubReq, resp hubResp) {
	tx := r.tx
	h.port.reqs.Put(r)
	if h.a.fpsoc {
		h.port.deliver(resp)
		return
	}
	h.out.Push(resp, tx)
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
	reqs    sim.FreeList[hubReq]
	results map[uint64]hubResp
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

// pump delivers hub responses into the fabric domain in stream order:
// the out FIFO's Drain consumer (Duet mode only; FPSoC delivers
// directly).
func (p *Port) pump(r hubResp, _ *sim.TX) { p.deliver(r) }

func (p *Port) deliver(r hubResp) {
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
	r := p.reqs.Get()
	r.seq, r.kind, r.va, r.size, r.tx = p.seq, kind, va, size, p.pendingTX
	p.pendingTX = nil
	if p.hub.parityFaults > 0 {
		p.hub.parityFaults--
		r.parityBad = true
	}
	return r
}

// send issues a request toward the hub; one slow cycle of issue cost. It
// returns the request's handle; r may be recycled by the time send
// returns.
func (p *Port) send(t *sim.Thread, r *hubReq) uint64 {
	seq := r.seq
	t.SleepCycles(p.hub.a.fabric.Clock(), 1)
	if p.hub.a.fpsoc {
		// Direct slow-domain path: translation and cache access run on
		// the caller's thread.
		for c := p.hub.advance(r); c != nil; c = p.hub.advance(r) {
			c.Wait(t)
		}
		return seq
	}
	p.hub.in.Push(r, r.tx)
	return seq
}

// LoadAsync issues a load and returns its handle.
func (p *Port) LoadAsync(t *sim.Thread, va uint64, size int) uint64 {
	return p.send(t, p.nextReq(hkLoad, va, size))
}

// StoreAsync issues a store (<= 8 bytes) and returns its handle.
func (p *Port) StoreAsync(t *sim.Thread, va uint64, data []byte) uint64 {
	if len(data) > params.HubStoreBytes {
		panic(fmt.Sprintf("memhub: store of %d bytes exceeds the %d-byte hub limit", len(data), params.HubStoreBytes))
	}
	r := p.nextReq(hkStore, va, len(data))
	r.data = r.buf[:copy(r.buf[:], data)]
	return p.send(t, r)
}

// Await blocks until the handle completes, returning data (loads) or nil.
func (p *Port) Await(t *sim.Thread, handle uint64) ([]byte, error) {
	r, err := p.wait(t, handle)
	if err != nil {
		return nil, err
	}
	return r.data, nil
}

// Done takes the handle's response if it has completed; otherwise it
// registers ev on the completion condition and reports false.
func (p *Port) Done(handle uint64, ev *sim.Event) bool {
	if _, ok := p.take(handle); ok {
		return true
	}
	p.cond.Await(ev)
	return false
}

// wait blocks until the handle completes and takes its response.
func (p *Port) wait(t *sim.Thread, handle uint64) (hubResp, error) {
	r, ok := p.take(handle)
	for !ok {
		p.cond.Wait(t)
		r, ok = p.take(handle)
	}
	if r.kind == hrErr {
		return hubResp{}, fmt.Errorf("memhub: request failed (hub deactivated or access killed)")
	}
	return r, nil
}

// take removes and returns the handle's response if it has arrived.
func (p *Port) take(handle uint64) (hubResp, bool) {
	r, ok := p.results[handle]
	if ok {
		delete(p.results, handle)
	}
	return r, ok
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
	resp, err := p.wait(t, p.send(t, r))
	if err != nil {
		return 0, err
	}
	return resp.old, nil
}
