package coherence

import (
	"encoding/binary"
	"fmt"
	"slices"

	"duet/internal/cache"
	"duet/internal/mem"
	"duet/internal/noc"
	"duet/internal/sim"
)

// OutPort sends messages toward the NoC. The direct implementation injects
// into the mesh; the slow-cache baseline substitutes a CDC-bridged port.
type OutPort interface {
	Send(*noc.Msg)
}

type meshPort struct{ mesh *noc.Mesh }

func (p meshPort) Send(m *noc.Msg) { p.mesh.Send(m) }

// PCacheConfig describes a private cache instance.
type PCacheConfig struct {
	Name string
	ID   int // globally unique cache ID
	Tile int // NoC tile the cache's traffic enters/leaves at

	Clk *sim.Clock
	Cat sim.Category // latency category of this cache's logic

	SizeBytes int
	Ways      int
	MSHRs     int

	HitCycles       int64 // front-side tag+data access
	MissIssueCycles int64 // miss detection to request injection
	FillCycles      int64 // response arrival to line install + completion
	FwdCycles       int64 // forward (inv/downgrade) processing

	// WriteNoAllocate selects the write-through/no-allocate store policy
	// (Proxy Cache configuration option, paper §II-C).
	WriteNoAllocate bool

	// OnLineLost, if non-nil, is invoked whenever the cache loses a line
	// (invalidation or eviction). The Proxy Cache uses it to push
	// invalidations into the soft cache without waiting for any ack.
	OnLineLost func(line, vpn uint64)
}

type opKind int

const (
	opLoad opKind = iota
	opStore
	opAmo
)

// frontOp is one front-side access. It is recycled through the cache's
// free list once it completes (see complete).
type frontOp struct {
	kind     opKind
	addr     uint64
	size     int
	data     []byte // store data: buf[:size] unless it exceeds a line
	buf      [mem.LineBytes]byte
	vpn      uint64
	amoOp    AmoOp
	operand  uint64
	operand2 uint64
	tx       *sim.TX

	// Exactly one completion: the async caller's callback, called with
	// its argument, or a blocking caller's thread, which reads the result
	// (res, old) itself once finished is set.
	onDone   DoneFunc
	arg      any
	waiter   *sim.Thread
	res      []byte
	old      uint64
	finished bool
}

// mshr is one outstanding miss. It is recycled once its response has been
// handled and its pending ops resubmitted.
type mshr struct {
	line    uint64
	rt      ReqType
	op      *frontOp
	pending []*frontOp
	resp    *RespMsg // an AMO or WT response awaiting its one-cycle completion
}

type wbEntry struct {
	line        uint64
	data        mem.Line
	dirty       bool
	surrendered bool
	pending     []*frontOp
}

// PCache is a private MESI write-back cache: the model for the CPU L2, the
// Duet Proxy Cache, and (re-clocked) the FPSoC/soft-only slow cache.
type PCache struct {
	cfg  PCacheConfig
	slot int // the cache's slot in its domain (Domain.attach)
	eng  *sim.Engine
	arr  *cache.Array
	port OutPort

	homeOf func(line uint64) int // line -> home tile
	pool   *msgPool              // the domain's protocol messages

	// The lines in flight, few enough to search linearly: mshrs holds
	// at most cfg.MSHRs misses, and wb the lines written back but not
	// yet acknowledged.
	mshrs   []*mshr
	wb      []*wbEntry
	stalled []*frontOp

	// vpns maps a line to the virtual page number it was last accessed
	// through: the Proxy Cache's reverse mapping (paper §II-D). An entry
	// lives while its line is in the array. It is nil until the first
	// VPN-tagged access, so a CPU L2 never builds it.
	vpns map[uint64]uint64

	// Free lists of the cache's own transaction records.
	freeOps  sim.FreeList[frontOp]
	freeMSHR sim.FreeList[mshr]
	freeWB   sim.FreeList[wbEntry]

	// eventFn is the cache's one event callback (see step), built once:
	// every delayed step is scheduled with its record as the event
	// argument, so no access or message allocates a closure.
	eventFn func(any)
}

// newPCache creates a private cache drawing its messages from pool. homeOf
// maps a line address to its home tile; port may be nil to send directly
// into the mesh.
func newPCache(eng *sim.Engine, mesh *noc.Mesh, cfg PCacheConfig, homeOf func(uint64) int, port OutPort, pool *msgPool) *PCache {
	if port == nil {
		port = meshPort{mesh}
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 1
	}
	c := &PCache{
		cfg:    cfg,
		eng:    eng,
		arr:    cache.NewArray(cfg.SizeBytes, cfg.Ways),
		port:   port,
		homeOf: homeOf,
		pool:   pool,
	}
	c.eventFn = c.step
	return c
}

// ID reports the cache's global ID.
func (c *PCache) ID() int { return c.cfg.ID }

// SetWriteNoAllocate reconfigures the store policy (Proxy Cache feature
// switch, paper §II-C).
func (c *PCache) SetWriteNoAllocate(v bool) { c.cfg.WriteNoAllocate = v }

// WriteNoAllocate reports the current store policy.
func (c *PCache) WriteNoAllocate() bool { return c.cfg.WriteNoAllocate }

// Tile reports the cache's NoC tile.
func (c *PCache) Tile() int { return c.cfg.Tile }

// after runs step(rec) n cache-clock cycles from now, attributing the
// delay to the cache's latency category on tx.
func (c *PCache) after(n int64, tx *sim.TX, rec any) {
	now := c.eng.Now()
	at := c.cfg.Clk.EdgesAfter(now, n)
	tx.Add(c.cfg.Cat, at-now)
	c.eng.AtArg(at, c.eventFn, rec)
}

// step runs a delayed step for rec; the record's type says which: a front
// op's tag lookup, an MSHR's request issue (or, once its AMO or WT
// response is in, its completion), a grant's fill, or a forward.
func (c *PCache) step(rec any) {
	switch r := rec.(type) {
	case *frontOp:
		c.lookup(r)
	case *mshr:
		if r.resp == nil {
			c.issue(r)
		} else {
			c.respDone(r)
		}
	case *RespMsg:
		c.fill(r)
	case *FwdMsg:
		c.handleFwd(r)
	}
}

// newOp returns a zeroed front op from the free list.
func (c *PCache) newOp(kind opKind, addr uint64, size int, vpn uint64, tx *sim.TX) *frontOp {
	op := c.freeOps.Get()
	op.kind, op.addr, op.size, op.vpn, op.tx = kind, addr, size, vpn, tx
	return op
}

// setData copies store data into the op, inline when it fits a line.
func (op *frontOp) setData(data []byte) {
	if len(data) <= len(op.buf) {
		op.data = op.buf[:len(data)]
	} else {
		op.data = make([]byte, len(data))
	}
	copy(op.data, data)
}

// complete finishes op with its result (load data, or an AMO's
// little-endian old value). An async op runs its callback and goes back to
// the free list; a blocking op wakes its caller, which reads the result
// and frees it.
func (c *PCache) complete(op *frontOp, res []byte) {
	if op.kind == opAmo {
		for i := range res {
			op.old |= uint64(res[i]) << (8 * i)
		}
		res = nil // it aliases the response, which is released next
	}
	if op.waiter != nil {
		op.res, op.finished = res, true
		op.waiter.Wake()
		return
	}
	op.onDone(op.arg, res, op.old)
	c.freeOps.Put(op)
}

// await parks t until op completes, then frees op.
func (c *PCache) await(t *sim.Thread, op *frontOp) (res []byte, old uint64) {
	for !op.finished {
		t.Park()
	}
	res, old = op.res, op.old
	c.freeOps.Put(op)
	return res, old
}

// DoneFunc receives an async access's completion together with the
// argument its caller passed: res is a load's data (nil for stores and
// atomics), old an atomic's old value. An async caller passes one
// long-lived DoneFunc and a pointer-shaped arg, so an access allocates no
// completion closure.
type DoneFunc func(arg any, res []byte, old uint64)

// LoadAsync reads size bytes at addr and calls done(arg, data, 0) when the
// access completes. vpn tags the line for reverse mapping (0 if unused).
func (c *PCache) LoadAsync(addr uint64, size int, vpn uint64, tx *sim.TX, done DoneFunc, arg any) {
	op := c.newOp(opLoad, addr, size, vpn, tx)
	op.onDone, op.arg = done, arg
	c.submit(op)
}

// StoreAsync writes data at addr and calls done(arg, nil, 0) when the
// store commits. data is copied before StoreAsync returns.
func (c *PCache) StoreAsync(addr uint64, data []byte, vpn uint64, tx *sim.TX, done DoneFunc, arg any) {
	op := c.newOp(opStore, addr, len(data), vpn, tx)
	op.setData(data)
	op.onDone, op.arg = done, arg
	c.submit(op)
}

// AmoAsync performs a home-side atomic and calls done(arg, nil, old).
func (c *PCache) AmoAsync(op AmoOp, addr uint64, size int, operand, operand2 uint64, tx *sim.TX, done DoneFunc, arg any) {
	o := c.newAmo(op, addr, size, operand, operand2, tx)
	o.onDone, o.arg = done, arg
	c.submit(o)
}

func (c *PCache) newAmo(op AmoOp, addr uint64, size int, operand, operand2 uint64, tx *sim.TX) *frontOp {
	o := c.newOp(opAmo, addr, size, 0, tx)
	o.amoOp, o.operand, o.operand2 = op, operand, operand2
	return o
}

// Load is the blocking counterpart of LoadAsync for thread-style callers.
// The calling thread is the only possible waiter, so completion wakes it
// directly (Thread.Wake) instead of through a per-call condition.
func (c *PCache) Load(t *sim.Thread, addr uint64, size int, tx *sim.TX) []byte {
	op := c.newOp(opLoad, addr, size, 0, tx)
	op.waiter = t
	c.submit(op)
	res, _ := c.await(t, op)
	return res
}

// Store is the blocking counterpart of StoreAsync.
func (c *PCache) Store(t *sim.Thread, addr uint64, data []byte, tx *sim.TX) {
	op := c.newOp(opStore, addr, len(data), 0, tx)
	op.setData(data)
	op.waiter = t
	c.submit(op)
	c.await(t, op)
}

// Amo is the blocking counterpart of AmoAsync.
func (c *PCache) Amo(t *sim.Thread, op AmoOp, addr uint64, size int, operand, operand2 uint64, tx *sim.TX) uint64 {
	o := c.newAmo(op, addr, size, operand, operand2, tx)
	o.waiter = t
	c.submit(o)
	_, old := c.await(t, o)
	return old
}

func (c *PCache) submit(op *frontOp) {
	if !c.waitInFlight(op) {
		c.after(c.cfg.HitCycles, op.tx, op)
	}
}

// waitInFlight queues op behind its line's outstanding miss or
// write-back, if it has one.
func (c *PCache) waitInFlight(op *frontOp) bool {
	switch m, e := c.inFlight(mem.LineAddr(op.addr)); {
	case m != nil:
		m.pending = append(m.pending, op)
	case e != nil:
		e.pending = append(e.pending, op)
	default:
		return false
	}
	return true
}

func (c *PCache) lookup(op *frontOp) {
	// Re-check transient structures: they may have appeared while the tag
	// access was in flight.
	if c.waitInFlight(op) {
		return
	}
	line := mem.LineAddr(op.addr)
	w := c.arr.Lookup(line)
	off := mem.Offset(op.addr)
	switch op.kind {
	case opLoad:
		if w != nil {
			// Synonym rule (paper §II-D): the Proxy Cache stores the
			// virtual page number beside each physical tag; a load through
			// a different virtual address first invalidates the old VA in
			// the soft cache, so synonym aliases never coexist there.
			if op.vpn != 0 {
				if old := c.vpns[line]; old != 0 && old != op.vpn && c.cfg.OnLineLost != nil {
					c.cfg.OnLineLost(line, old)
				}
				c.tagVPN(line, op.vpn)
			}
			out := make([]byte, op.size)
			copy(out, w.Data[off:off+op.size])
			c.complete(op, out)
			return
		}
		c.miss(op, ReqLoad)
	case opStore:
		if w != nil && (w.State == StateM || w.State == StateE) {
			copy(w.Data[off:off+op.size], op.data)
			w.State = StateM
			w.Dirty = true
			c.tagVPN(line, op.vpn)
			c.complete(op, nil)
			return
		}
		if c.cfg.WriteNoAllocate {
			// Write-through, no allocation (S copies are refreshed by the
			// WTAck payload).
			c.miss(op, ReqWT)
			return
		}
		c.miss(op, ReqStore) // miss or S->M upgrade
	case opAmo:
		c.miss(op, ReqAmo)
	default:
		panic("pcache: unknown op")
	}
}

// miss allocates an MSHR and, MissIssueCycles later, sends the request
// to the home.
func (c *PCache) miss(op *frontOp, rt ReqType) {
	if len(c.mshrs) >= c.cfg.MSHRs {
		c.stalled = append(c.stalled, op)
		return
	}
	m := c.freeMSHR.Get()
	m.line, m.rt, m.op = mem.LineAddr(op.addr), rt, op
	c.mshrs = append(c.mshrs, m)
	c.after(c.cfg.MissIssueCycles, op.tx, m)
}

// issue builds and sends an MSHR's request.
func (c *PCache) issue(m *mshr) {
	op := m.op
	req := c.pool.reqs.Get()
	req.Type, req.Line, req.Slot, req.Addr, req.Size = m.rt, m.line, c.slot, op.addr, op.size
	switch m.rt {
	case ReqAmo:
		req.Op = op.amoOp
		req.Operand = op.operand
		req.Operand2 = op.operand2
	case ReqWT:
		// The op outlives the request: it completes only on the WTAck,
		// after the home has processed (and released) the request.
		req.Bytes = op.data
	}
	c.send(req, op.tx)
}

func (c *PCache) send(req *ReqMsg, tx *sim.TX) {
	req.msg = noc.Msg{
		Src:     c.cfg.Tile,
		Dst:     c.homeOf(req.Line),
		VN:      noc.VNReq,
		Bytes:   ReqBytes(req),
		Payload: req,
		TX:      tx,
	}
	c.port.Send(&req.msg)
}

// sendAck sends a pooled forward acknowledgement to line's home.
func (c *PCache) sendAck(line uint64, present, dirty, fromWB bool, data mem.Line, tx *sim.TX) {
	ack := c.pool.acks.Get()
	ack.Line, ack.Slot = line, c.slot
	ack.Present, ack.Dirty, ack.FromWB, ack.Data = present, dirty, fromWB, data
	ack.msg = noc.Msg{
		Src:     c.cfg.Tile,
		Dst:     c.homeOf(line),
		VN:      noc.VNData,
		Bytes:   AckBytes(ack),
		Payload: ack,
		TX:      tx,
	}
	c.port.Send(&ack.msg)
}

// DeliverResp handles a home→cache response. Callers (tile dispatcher or
// CDC bridge) invoke it at the time the message reaches the cache's clock
// domain. The cache owns r from here on and returns it to the domain's
// pool once its handler is done with it.
func (c *PCache) DeliverResp(r *RespMsg, tx *sim.TX) {
	r.msg.TX = tx // the deferred handlers read tx from the envelope
	switch r.Kind {
	case RespData:
		c.after(c.cfg.FillCycles, tx, r)
	case RespAmo, RespWTAck:
		m, _ := c.inFlight(r.Line)
		if m == nil {
			panic(fmt.Sprintf("%s: response without MSHR for %#x", c.cfg.Name, r.Line))
		}
		c.mshrs = without(c.mshrs, m)
		m.resp = r
		c.after(1, tx, m)
	case RespWBAck, RespWBStale:
		_, e := c.inFlight(r.Line)
		if e == nil {
			panic(fmt.Sprintf("%s: WB response without WB entry %#x", c.cfg.Name, r.Line))
		}
		c.wb = without(c.wb, e)
		c.pool.resps.Put(r) // an ack carries nothing more to read
		for _, op := range e.pending {
			c.submit(op)
		}
		c.freeWB.Put(e) // its pending ops are resubmitted
		c.retryStalled()
	default:
		panic("pcache: unknown response kind")
	}
}

// respDone completes an AMO or write-through MSHR one cycle after its
// response arrived.
func (c *PCache) respDone(m *mshr) {
	r := m.resp
	switch r.Kind {
	case RespAmo:
		c.complete(m.op, r.Old[:m.op.size])
	case RespWTAck:
		// Refresh a retained S copy with the home's updated line.
		if w := c.arr.Peek(r.Line); w != nil && w.State == StateS {
			w.Data = r.Data
		}
		c.complete(m.op, nil)
	}
	c.pool.resps.Put(r) // result and refresh data are consumed
	c.drain(m)
	c.freeMSHR.Put(m) // the op is complete and its waiters resubmitted
}

// inFlight returns line's outstanding miss and its write-back entry, each
// nil if it has none.
func (c *PCache) inFlight(line uint64) (m *mshr, e *wbEntry) {
	for _, x := range c.mshrs {
		if x.line == line {
			m = x
		}
	}
	for _, x := range c.wb {
		if x.line == line {
			e = x
		}
	}
	return m, e
}

// without removes x from s, keeping the order of the rest.
func without[T comparable](s []T, x T) []T {
	i := slices.Index(s, x)
	return slices.Delete(s, i, i+1)
}

// fill installs a granted line and completes the MSHR's operations.
func (c *PCache) fill(r *RespMsg) {
	tx := r.msg.TX
	m, _ := c.inFlight(r.Line)
	if m == nil {
		panic(fmt.Sprintf("%s: fill without MSHR for %#x", c.cfg.Name, r.Line))
	}
	var w *cache.Way
	if existing := c.arr.Peek(r.Line); existing != nil {
		// Upgrade (S->M): refresh data with the grant payload.
		w = existing
		w.Data = r.Data
		w.State = uint8(r.Grant)
	} else {
		w = c.pickVictim(r.Line)
		if w == nil {
			// Every way in the set is transient; retry shortly.
			c.after(1, tx, r)
			return
		}
		if w.Valid {
			c.evict(w)
		}
		w = c.arr.Install(w, r.Line, r.Data, r.Grant)
	}
	c.mshrs = without(c.mshrs, m)
	c.pool.resps.Put(r) // the grant is installed in w
	op := m.op
	off := mem.Offset(op.addr)
	switch op.kind {
	case opLoad:
		c.tagVPN(m.line, op.vpn) // r is back in the pool
		out := make([]byte, op.size)
		copy(out, w.Data[off:off+op.size])
		c.complete(op, out)
	case opStore:
		copy(w.Data[off:off+op.size], op.data)
		w.State = StateM
		w.Dirty = true
		c.tagVPN(m.line, op.vpn)
		c.complete(op, nil)
	default:
		panic("pcache: fill for non-load/store")
	}
	c.drain(m)
	c.freeMSHR.Put(m) // the op is complete and its waiters resubmitted
}

// drain resubmits an emptied MSHR's pending ops and retries stalled ones.
func (c *PCache) drain(m *mshr) {
	for _, op := range m.pending {
		c.submit(op)
	}
	c.retryStalled()
}

func (c *PCache) retryStalled() {
	if len(c.stalled) == 0 {
		return
	}
	ops := c.stalled
	c.stalled = nil
	for _, op := range ops {
		c.submit(op)
	}
}

// pickVictim chooses a way in line's set that is not mid-transaction; nil
// if none is available.
func (c *PCache) pickVictim(line uint64) *cache.Way {
	set := c.arr.Set(line)
	var best *cache.Way
	for i := range set {
		w := &set[i]
		if !w.Valid {
			return w
		}
		if m, e := c.inFlight(w.Tag); m != nil || e != nil {
			continue
		}
		if best == nil || w.Less(best) {
			best = w
		}
	}
	return best
}

// tagVPN records vpn as line's reverse mapping; a zero vpn (an untagged
// access) leaves it as it is.
func (c *PCache) tagVPN(line, vpn uint64) {
	if vpn == 0 {
		return
	}
	if c.vpns == nil {
		c.vpns = make(map[uint64]uint64)
	}
	c.vpns[line] = vpn
}

// lose drops line's reverse mapping and reports the loss, with the VPN
// the line was tagged with (0 if none), to OnLineLost.
func (c *PCache) lose(line uint64) {
	vpn := c.vpns[line]
	delete(c.vpns, line)
	if c.cfg.OnLineLost != nil {
		c.cfg.OnLineLost(line, vpn)
	}
}

// evict pushes a valid line into the WB buffer and sends the write-back
// transaction.
func (c *PCache) evict(w *cache.Way) {
	line := w.Tag
	e := c.freeWB.Get()
	e.line, e.data, e.dirty = line, w.Data, w.Dirty && w.State == StateM
	c.wb = append(c.wb, e)
	c.lose(line)
	c.arr.Invalidate(w)
	req := c.pool.reqs.Get()
	req.Type, req.Line, req.Slot, req.Data, req.Dirty = ReqWB, line, c.slot, e.data, e.dirty
	c.send(req, nil)
}

// DeliverFwd handles a home→cache forward (invalidate or downgrade). The
// cache owns f from here on and returns it to the domain's pool once
// handled.
func (c *PCache) DeliverFwd(f *FwdMsg, tx *sim.TX) {
	f.msg.TX = tx // handleFwd reads tx from the envelope
	c.after(c.cfg.FwdCycles, tx, f)
}

func (c *PCache) handleFwd(f *FwdMsg) {
	line, typ, tx := f.Line, f.Type, f.msg.TX
	c.pool.fwds.Put(f) // every field is read

	if w := c.arr.Peek(line); w != nil {
		dirty, data := w.Dirty && w.State == StateM, w.Data
		switch typ {
		case FwdInv:
			c.lose(line)
			c.arr.Invalidate(w)
		case FwdDowngrade:
			w.State = StateS
			w.Dirty = false
		}
		c.sendAck(line, true, dirty, false, data, tx)
		return
	}
	if _, e := c.inFlight(line); e != nil && !e.surrendered {
		// Forward racing our write-back: serve it from the WB buffer and
		// let the home reject the WB as stale.
		e.surrendered = true
		c.sendAck(line, true, e.dirty, true, e.data, tx)
		return
	}
	// Not present (already surrendered or protocol race window).
	c.sendAck(line, false, false, false, mem.Line{}, tx)
}

// State reports the MESI state of a line (StateI if absent); for tests and
// the coherence checker.
func (c *PCache) State(line uint64) int {
	if w := c.arr.Peek(line); w != nil {
		return int(w.State)
	}
	return StateI
}

// PeekLine returns the cached data for a line, if present.
func (c *PCache) PeekLine(line uint64) (mem.Line, bool) {
	if w := c.arr.Peek(line); w != nil {
		return w.Data, true
	}
	return mem.Line{}, false
}

// Quiet reports whether the cache has no in-flight transactions.
func (c *PCache) Quiet() bool {
	return len(c.mshrs) == 0 && len(c.wb) == 0 && len(c.stalled) == 0
}

// Uint64At is a helper to decode a little-endian value from load results.
func Uint64At(b []byte) uint64 {
	switch len(b) {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	case 1:
		return uint64(b[0])
	}
	panic("bad load size")
}
