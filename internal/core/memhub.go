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
}

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

	in      *cdc.Fifo[*hubReq]
	inPush  *cdc.Pusher[*hubReq]
	out     *cdc.Fifo[hubResp]
	outPush *cdc.Pusher[hubResp]

	outstanding    int
	maxOutstanding int
	slotCond       *sim.Cond

	tlbCond  *sim.Cond
	faultVA  uint64
	faulting bool

	parityFaults int // fault injection: next n requests arrive corrupted

	port *Port

	// doneFn is the hub's one completion callback for issued accesses,
	// called with the request as its argument.
	doneFn coherence.DoneFunc

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
		h.inPush = cdc.NewPusher(a.eng, h.in)
		h.out = cdc.NewFifo[hubResp](a.eng, cfg.Name+".out", a.fastClk, a.fabric.Clock(), params.FifoDepth, a.syncStages)
		h.outPush = cdc.NewPusher(a.eng, h.out)
		a.eng.Go(cfg.Name+".serve", h.serve)
	}
	h.port = &Port{hub: h, results: make(map[uint64]hubResp), cond: sim.NewCond(a.eng)}
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
	if h.a.fpsoc {
		// Same-domain delivery: the slow cache and soft cache share the
		// fabric clock.
		if h.port.invSink != nil {
			h.port.invSink(line, vpnTag)
		}
		return
	}
	h.outPush.Push(hubResp{kind: hrInv, pa: line, vpn: vpnTag}, nil)
}

// serve is the Duet-mode fast-domain service loop.
func (h *MemHub) serve(t *sim.Thread) {
	for {
		r, tx := h.in.PopBlocking(t)
		before := h.a.eng.Now()
		t.SleepCycles(h.a.fastClk, params.HubIngressCycles)
		tx.Add(sim.CatFast, h.a.eng.Now()-before)
		h.process(t, r)
	}
}

// process validates, translates and issues one request. It may block on a
// TLB fault or on the outstanding-request limit; requests behind it wait
// (in-order hub front end).
func (h *MemHub) process(t *sim.Thread, r *hubReq) {
	if !h.enabled {
		h.Errs++
		h.fail(r)
		return
	}
	if r.parityBad {
		h.a.RaiseException(ErrParity)
		h.Errs++
		h.fail(r)
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
				h.fail(r)
				return
			}
		}
	}
	if r.kind == hkAmo && !h.atomics {
		h.Errs++
		h.fail(r)
		return
	}
	for h.outstanding >= h.maxOutstanding {
		h.slotCond.Wait(t)
	}
	h.outstanding++
	h.issue(r, pa, vpnTag)
}

func (h *MemHub) issue(r *hubReq, pa, vpnTag uint64) {
	tx := r.tx
	switch r.kind {
	case hkLoad:
		h.Loads++
		h.proxy.LoadAsync(pa, r.size, vpnTag, tx, h.doneFn, r)
	case hkStore:
		h.Stores++
		h.proxy.StoreAsync(pa, r.data, vpnTag, tx, h.doneFn, r)
	case hkAmo:
		h.Amos++
		h.proxy.AmoAsync(coherence.AmoOp(r.amoOp), pa, r.size, r.operand, r.operand2, tx, h.doneFn, r)
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
	h.outPush.Push(resp, tx)
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

// pump drains hub responses into the fabric domain in stream order
// (Duet mode only; FPSoC delivers directly).
func (p *Port) pump(t *sim.Thread) {
	for {
		r, _ := p.hub.out.PopBlocking(t)
		p.deliver(r)
	}
}

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
		p.hub.process(t, r)
		return seq
	}
	p.hub.inPush.Push(r, r.tx)
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

// wait blocks until the handle completes and takes its response.
func (p *Port) wait(t *sim.Thread, handle uint64) (hubResp, error) {
	for {
		r, ok := p.results[handle]
		if ok {
			delete(p.results, handle)
			if r.kind == hrErr {
				return hubResp{}, fmt.Errorf("memhub: request failed (hub deactivated or access killed)")
			}
			return r, nil
		}
		p.cond.Wait(t)
	}
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
