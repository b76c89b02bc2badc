package coherence

import (
	"encoding/binary"
	"fmt"
	"slices"

	"duet/internal/cache"
	"duet/internal/mem"
	"duet/internal/noc"
	"duet/internal/params"
	"duet/internal/sim"
)

// dirEntry is the directory state for one line resident in the L3 shard.
// owner >= 0 means a private cache holds the line in E or M (and sharers
// is empty); otherwise sharers lists the caches holding it in S, in
// ascending cache-ID order.
type dirEntry struct {
	owner   int
	sharers []int
}

func (d *dirEntry) isSharer(id int) bool {
	_, ok := slices.BinarySearch(d.sharers, id)
	return ok
}

func (d *dirEntry) addSharer(id int) {
	if i, ok := slices.BinarySearch(d.sharers, id); !ok {
		d.sharers = slices.Insert(d.sharers, i, id)
	}
}

func (d *dirEntry) removeSharer(id int) {
	if i, ok := slices.BinarySearch(d.sharers, id); ok {
		d.sharers = slices.Delete(d.sharers, i, i+1)
	}
}

func (d *dirEntry) hasPrivateCopies() bool {
	return d.owner >= 0 || len(d.sharers) > 0
}

// appendCopies appends every private holder of the line to dst.
func (d *dirEntry) appendCopies(dst []int) []int {
	if d.owner >= 0 {
		return append(dst, d.owner)
	}
	return d.appendSharers(dst, -1)
}

// appendSharers appends the S-state holders other than skip to dst in
// cache-ID order, the order invalidations go out in.
func (d *dirEntry) appendSharers(dst []int, skip int) []int {
	for _, id := range d.sharers {
		if id != skip {
			dst = append(dst, id)
		}
	}
	return dst
}

// lineCtx serializes home-side work per line. A line has one only while
// it has work in flight: an idle context goes back to the home's free list
// (Home.idle), so contexts are per busy line, not per line ever touched.
//
// The line's transactions run as a callback state machine, one phase per
// wait point of the home's RTL flow (see phase); the context holds the
// transaction in flight and the state its phases hand on.
type lineCtx struct {
	home *Home
	line uint64
	busy bool
	jobs sim.Queue[homeJob] // queued requests still to run

	// The transaction in flight: its request, the phase its wake resumes,
	// and the line's one pre-built wake record.
	req  *ReqMsg
	tx   *sim.TX
	next phase
	wake sim.Event

	way   *cache.Way // the line's resident L3 way
	dir   *dirEntry  // and its directory entry
	owner int        // a forwarded load's previous owner
	resp  *RespMsg   // an AMO's response, built before its last charge

	// ensureResident's L3 fill: the way to fill, the context of the
	// victim line being evicted from it, whether the line's data has
	// been fetched, and the phase to go on with.
	victim   *cache.Way
	evictee  *lineCtx
	fetched  bool
	resident phase

	// An ack wait: the context collecting the acks (this line's, or an
	// evictee's), how many, and the phase to go on with.
	ackCtx    *lineCtx
	needAcks  int
	afterAcks phase

	// Ack collection for the flow currently holding the line.
	acks    []*AckMsg
	ackCond *sim.Cond
}

// A phase is one step of a line's transaction between two waits. It runs
// when the previous wait ends and returns the phase to run next at once,
// or nil once it has queued its own continuation: a timed wake (until) or
// an ack wait (awaitAcks). A continuation is queued exactly where the
// flow waits — a timed wake at its instant, an ack wait re-registered
// after every wake — so the phases keep the event order of the
// straight-line flow.
type phase func(h *Home, c *lineCtx) phase

// resumeLine is the trampoline behind every line's wake events.
func resumeLine(a any) {
	c := a.(*lineCtx)
	c.home.run(c, c.next)
}

// run runs c's phases from p until one waits.
func (h *Home) run(c *lineCtx, p phase) {
	for p != nil {
		p = p(h, c)
	}
}

// homeJob is one queued request for a line's transactions. Jobs are value
// records rather than closures. The request is on loan from the domain's
// message pool: the line returns it there as soon as its transaction has
// run, so no job may keep req past that point (see msgPool).
type homeJob struct {
	req *ReqMsg
	tx  *sim.TX
}

// Home is one L3 shard plus its slice of the distributed directory. Lines
// map to shards by address interleaving (see Domain). The L3 is inclusive:
// a line with private copies is always present in the shard, and evicting
// an L3 victim first invalidates all private copies.
type Home struct {
	eng  *sim.Engine
	clk  *sim.Clock
	mesh *noc.Mesh
	tile int

	dram *mem.Memory
	arr  *cache.Array
	dir  map[uint64]*dirEntry
	ctxs map[uint64]*lineCtx // lines with work in flight
	pool *msgPool

	freeCtx []*lineCtx // idle line contexts

	freeDir []*dirEntry // entries of lines evicted from the shard

	// targets lists the caches an invalidation round goes to. Every
	// line shares it: it is filled and consumed (invalidate) within one
	// phase.
	targets []int

	// cacheTile maps cache IDs to their NoC tiles for forwards.
	cacheTile map[int]int
}

// newHome creates an L3 shard at the given tile, drawing its messages from
// pool.
func newHome(eng *sim.Engine, clk *sim.Clock, mesh *noc.Mesh, tile int, dram *mem.Memory, pool *msgPool) *Home {
	h := &Home{
		eng:       eng,
		clk:       clk,
		mesh:      mesh,
		tile:      tile,
		dram:      dram,
		arr:       cache.NewArray(params.L3ShardBytes, params.L3Ways),
		dir:       make(map[uint64]*dirEntry),
		ctxs:      make(map[uint64]*lineCtx),
		pool:      pool,
		cacheTile: make(map[int]int),
	}
	mesh.Register(tile, noc.VNReq, h.onReq)
	mesh.Register(tile, noc.VNData, h.onAck)
	return h
}

// AddCache registers a private cache's tile so forwards can be routed.
func (h *Home) AddCache(cacheID, tile int) { h.cacheTile[cacheID] = tile }

func (h *Home) ctx(line uint64) *lineCtx {
	c := h.ctxs[line]
	if c == nil {
		if n := len(h.freeCtx); n > 0 {
			c = h.freeCtx[n-1]
			h.freeCtx = h.freeCtx[:n-1]
		} else {
			c = &lineCtx{home: h, ackCond: sim.NewCond(h.eng)}
			c.wake = sim.Event{Fn: resumeLine, Arg: c}
		}
		c.line = line
		h.ctxs[line] = c
	}
	return c
}

// idle releases an idle line's context: no job queued or running, no ack
// outstanding and no wake pending.
func (h *Home) idle(c *lineCtx) {
	c.busy = false
	delete(h.ctxs, c.line)
	h.freeCtx = append(h.freeCtx, c)
}

// enqueue adds a request to the line's serial queue, starting the line's
// transactions if none is active.
func (h *Home) enqueue(line uint64, job homeJob) {
	c := h.ctx(line)
	c.jobs.Push(job)
	if !c.busy {
		c.busy = true
		h.start(c)
	}
}

// start runs c's queued requests from an event at the current instant.
func (h *Home) start(c *lineCtx) {
	c.next = (*Home).nextJob
	h.eng.AtEvent(h.eng.Now(), &c.wake)
}

// nextJob starts the line's next queued request, or releases the line
// once none is left.
func (h *Home) nextJob(c *lineCtx) phase {
	if c.jobs.Len() == 0 {
		if len(c.acks) > 0 {
			panic("home: unconsumed acks at line quiesce")
		}
		h.idle(c)
		return nil
	}
	j := c.jobs.Pop()
	c.req, c.tx = j.req, j.tx
	return h.charge(c, params.DirLookupCycles, (*Home).dispatch)
}

// done ends the transaction, returning its request to the pool, and goes
// on with the line's next one.
func (h *Home) done(c *lineCtx) phase {
	h.pool.reqs.Put(c.req)
	c.req, c.tx, c.way, c.dir = nil, nil, nil, nil
	return (*Home).nextJob
}

func (h *Home) onReq(m *noc.Msg) {
	req := m.Payload.(*ReqMsg)
	h.enqueue(req.Line, homeJob{req: req, tx: m.TX})
}

func (h *Home) onAck(m *noc.Msg) {
	ack := m.Payload.(*AckMsg)
	c := h.ctx(ack.Line)
	c.acks = append(c.acks, ack)
	c.ackCond.Broadcast()
}

// until continues c's transaction at tm with next: in place when the
// engine runs on to tm, else from c's wake event.
func (h *Home) until(c *lineCtx, tm sim.Time, next phase) phase {
	if h.eng.RunOn(tm) {
		return next
	}
	c.next = next
	h.eng.AtEvent(tm, &c.wake)
	return nil
}

// charge spends n fast cycles of home logic on c's transaction,
// attributes them, and continues with next.
func (h *Home) charge(c *lineCtx, n int64, next phase) phase {
	now := h.eng.Now()
	tm := h.clk.EdgesAfter(now, n)
	c.tx.Add(sim.CatFast, tm-now)
	return h.until(c, tm, next)
}

// awaitAcks continues c's transaction with next once n acks (n may be
// 0) have arrived at ac (c itself, or the context of a line c evicts).
// The acks stay ac's until the transaction, having read them, hands them
// back with releaseAcks; the slice is reused for the line's next round.
func (h *Home) awaitAcks(c, ac *lineCtx, n int, next phase) phase {
	c.ackCtx, c.needAcks, c.afterAcks = ac, n, next
	return (*Home).acksIn
}

// acksIn is an ack wait's test, re-run at every wake.
func (h *Home) acksIn(c *lineCtx) phase {
	ac := c.ackCtx
	if len(ac.acks) < c.needAcks {
		c.next = (*Home).acksIn
		ac.ackCond.Await(&c.wake)
		return nil
	}
	if len(ac.acks) != c.needAcks {
		panic(fmt.Sprintf("home: expected %d acks, got %d", c.needAcks, len(ac.acks)))
	}
	c.ackCtx = nil
	return c.afterAcks
}

// releaseAcks returns c's collected acks to the domain's pool. It is the
// ownership point for acks: call it only once nothing reads them.
func (h *Home) releaseAcks(c *lineCtx) {
	for i, a := range c.acks {
		h.pool.acks.Put(a)
		c.acks[i] = nil
	}
	c.acks = c.acks[:0]
}

// newResp returns a pooled response; respond sends it.
func (h *Home) newResp(kind RespKind, line uint64, grant int, data mem.Line) *RespMsg {
	r := h.pool.resps.Get()
	r.Kind, r.Line, r.Grant, r.Data = kind, line, grant, data
	return r
}

func (h *Home) respond(cacheID int, r *RespMsg, tx *sim.TX) {
	r.To = cacheID
	r.msg = noc.Msg{Src: h.tile, Dst: h.cacheTile[cacheID], VN: noc.VNFwd, Bytes: RespBytes(r), Payload: r, TX: tx}
	h.mesh.Send(&r.msg)
}

// forward sends a pooled forward of type typ for line to cacheID.
func (h *Home) forward(cacheID int, typ FwdType, line uint64, tx *sim.TX) {
	f := h.pool.fwds.Get()
	f.Type, f.Line, f.To = typ, line, cacheID
	f.msg = noc.Msg{Src: h.tile, Dst: h.cacheTile[cacheID], VN: noc.VNFwd, Bytes: FwdBytes, Payload: f, TX: tx}
	h.mesh.Send(&f.msg)
}

// invalidate sends FwdInv for line to every cache in h.targets and
// returns how many acks to collect.
func (h *Home) invalidate(line uint64, tx *sim.TX) int {
	for _, id := range h.targets {
		h.forward(id, FwdInv, line, tx)
	}
	return len(h.targets)
}

// ensureResident makes c's line present in the L3 array, fetching from
// DRAM (and evicting an L3 victim, including back-invalidation of its
// private copies) as needed, then continues with next with c.way and
// c.dir set.
func (h *Home) ensureResident(c *lineCtx, next phase) phase {
	if w := h.arr.Lookup(c.line); w != nil {
		c.way, c.dir = w, h.dir[c.line]
		return next
	}
	c.resident = next
	return (*Home).pickVictim
}

// pickVictim chooses a victim way whose line is not mid-transaction and
// evicts its line, if any.
func (h *Home) pickVictim(c *lineCtx) phase {
	v := h.arr.Victim(c.line)
	c.victim = v
	if !v.Valid {
		return (*Home).fetch
	}
	if vc, ok := h.ctxs[v.Tag]; ok && vc.busy {
		// Rare: the LRU victim is busy; wait a cycle and retry.
		return h.until(c, h.clk.EdgesAfter(h.eng.Now(), 1), (*Home).pickVictim)
	}
	// Hold the victim line busy for the duration of the eviction so a
	// concurrent request for it queues instead of starting.
	vc := h.ctx(v.Tag)
	vc.busy = true
	c.evictee = vc
	if d := h.dir[v.Tag]; d != nil && d.hasPrivateCopies() {
		h.targets = d.appendCopies(h.targets[:0])
		return h.awaitAcks(c, vc, h.invalidate(v.Tag, c.tx), (*Home).evicted)
	}
	return (*Home).evicted
}

// evicted folds the back-invalidated copies' dirty data into the victim
// way, writes the victim line back to DRAM, drops it from the shard,
// restarts any request that queued for it meanwhile, and fetches c's
// line.
func (h *Home) evicted(c *lineCtx) phase {
	v, vc := c.victim, c.evictee
	for _, a := range vc.acks {
		if a.Present && a.Dirty {
			v.Data = a.Data
			v.Dirty = true
		}
	}
	h.releaseAcks(vc)
	line := v.Tag
	h.dram.WriteLine(line, v.Data)
	if d := h.dir[line]; d != nil {
		delete(h.dir, line)
		d.owner, d.sharers = -1, d.sharers[:0]
		h.freeDir = append(h.freeDir, d)
	}
	h.arr.Invalidate(v)
	c.evictee = nil
	if vc.jobs.Len() > 0 {
		h.start(vc)
	} else {
		h.idle(vc)
	}
	return (*Home).fetch
}

// fetch reads c's line from DRAM.
func (h *Home) fetch(c *lineCtx) phase {
	if c.fetched {
		return (*Home).install
	}
	c.tx.Add(sim.CatFast, params.DRAMLatency)
	return h.until(c, h.eng.Now()+params.DRAMLatency, (*Home).install)
}

// install fills the victim way with the fetched line. A concurrent fill
// of another line of the set may have taken the way during the fetch
// (both picked the same invalid way): the fetched line then picks a
// victim again.
func (h *Home) install(c *lineCtx) phase {
	if c.victim.Valid {
		c.fetched = true
		return (*Home).pickVictim
	}
	c.fetched = false
	data := h.dram.ReadLine(c.line)
	c.way = h.arr.Install(c.victim, c.line, data, 0)
	c.dir = h.newDirEntry()
	h.dir[c.line] = c.dir
	c.victim = nil
	return c.resident
}

// newDirEntry returns an empty directory entry, reusing one freed by an
// L3 eviction when it can.
func (h *Home) newDirEntry() *dirEntry {
	if n := len(h.freeDir); n > 0 {
		d := h.freeDir[n-1]
		h.freeDir = h.freeDir[:n-1]
		return d
	}
	return &dirEntry{owner: -1}
}

// dispatch runs c's request once the directory lookup is charged.
func (h *Home) dispatch(c *lineCtx) phase {
	switch c.req.Type {
	case ReqLoad:
		return h.ensureResident(c, (*Home).load)
	case ReqStore:
		return h.ensureResident(c, (*Home).store)
	case ReqWB:
		return h.writeBack(c)
	case ReqAmo:
		return h.ensureResident(c, (*Home).amo)
	case ReqWT:
		return h.ensureResident(c, (*Home).writeThrough)
	default:
		panic("home: unknown request type")
	}
}

// absorbDirty copies the dirty data of c's collected acks, if any, into
// its L3 way and releases the acks.
func (h *Home) absorbDirty(c *lineCtx) {
	for _, a := range c.acks {
		if a.Present && a.Dirty {
			c.way.Data = a.Data
		}
	}
	h.releaseAcks(c)
}

// load serves a load miss.
func (h *Home) load(c *lineCtx) phase {
	req, d := c.req, c.dir
	if d.owner == req.CacheID || d.isSharer(req.CacheID) {
		panic(fmt.Sprintf("home: load from cache %d already holding %#x", req.CacheID, req.Line))
	}
	if d.owner >= 0 {
		// Fetch from the owner; this is the "secondary write-back" path
		// measured in Fig. 9.
		c.owner = d.owner
		h.forward(c.owner, FwdDowngrade, req.Line, c.tx)
		return h.awaitAcks(c, c, 1, (*Home).loadDowngraded)
	}
	return h.charge(c, params.L3DataCycles+params.HomeRespCycles, (*Home).loadGrant)
}

func (h *Home) loadDowngraded(c *lineCtx) phase {
	return h.charge(c, params.L3DataCycles, (*Home).loadFromOwner)
}

func (h *Home) loadFromOwner(c *lineCtx) phase {
	req, d := c.req, c.dir
	a := c.acks[0]
	if a.Present && a.Dirty {
		c.way.Data = a.Data
	}
	d.owner = -1
	if a.Present && !a.FromWB {
		d.addSharer(c.owner)
	}
	h.releaseAcks(c)
	d.addSharer(req.CacheID)
	return h.charge(c, params.HomeRespCycles, (*Home).loadShared)
}

func (h *Home) loadShared(c *lineCtx) phase {
	h.respond(c.req.CacheID, h.newResp(RespData, c.line, StateS, c.way.Data), c.tx)
	return (*Home).done
}

func (h *Home) loadGrant(c *lineCtx) phase {
	req, d := c.req, c.dir
	if len(d.sharers) == 0 {
		// Sole copy: grant Exclusive.
		d.owner = req.CacheID
		h.respond(req.CacheID, h.newResp(RespData, req.Line, StateE, c.way.Data), c.tx)
		return (*Home).done
	}
	d.addSharer(req.CacheID)
	h.respond(req.CacheID, h.newResp(RespData, req.Line, StateS, c.way.Data), c.tx)
	return (*Home).done
}

// store serves a store miss or upgrade: every other copy is invalidated.
func (h *Home) store(c *lineCtx) phase {
	req, d := c.req, c.dir
	if d.owner == req.CacheID {
		panic(fmt.Sprintf("home: store from owner %d for %#x", req.CacheID, req.Line))
	}
	if d.owner >= 0 {
		h.targets = append(h.targets[:0], d.owner)
	} else {
		h.targets = d.appendSharers(h.targets[:0], req.CacheID)
	}
	return h.awaitAcks(c, c, h.invalidate(req.Line, c.tx), (*Home).storeGrant)
}

func (h *Home) storeGrant(c *lineCtx) phase {
	h.absorbDirty(c)
	c.dir.owner = c.req.CacheID
	c.dir.sharers = c.dir.sharers[:0]
	return h.charge(c, params.L3DataCycles+params.HomeRespCycles, (*Home).storeRespond)
}

func (h *Home) storeRespond(c *lineCtx) phase {
	h.respond(c.req.CacheID, h.newResp(RespData, c.line, StateM, c.way.Data), c.tx)
	return (*Home).done
}

// writeBack serves a private cache's write-back.
func (h *Home) writeBack(c *lineCtx) phase {
	req := c.req
	d := h.dir[req.Line]
	inDir := d != nil && (d.owner == req.CacheID || d.isSharer(req.CacheID))
	if !inDir {
		// The line was surrendered to a forward while the WB was in
		// flight: the data already reached the home via the ack path.
		return h.charge(c, params.HomeRespCycles, (*Home).writeBackStale)
	}
	w := h.arr.Lookup(req.Line)
	if w == nil {
		panic("home: directory entry for a line absent from inclusive L3")
	}
	if d.owner == req.CacheID {
		d.owner = -1
		if req.Dirty {
			w.Data = req.Data
			w.Dirty = true
		}
	} else {
		d.removeSharer(req.CacheID)
	}
	return h.charge(c, params.L3DataCycles+params.HomeRespCycles, (*Home).writeBackAck)
}

func (h *Home) writeBackStale(c *lineCtx) phase {
	h.respond(c.req.CacheID, h.newResp(RespWBStale, c.line, 0, mem.Line{}), c.tx)
	return (*Home).done
}

func (h *Home) writeBackAck(c *lineCtx) phase {
	h.respond(c.req.CacheID, h.newResp(RespWBAck, c.line, 0, mem.Line{}), c.tx)
	return (*Home).done
}

// amo runs an atomic at the home: every private copy, the requester's
// included, is invalidated first.
func (h *Home) amo(c *lineCtx) phase {
	h.targets = c.dir.appendCopies(h.targets[:0])
	return h.awaitAcks(c, c, h.invalidate(c.line, c.tx), (*Home).amoExec)
}

func (h *Home) amoExec(c *lineCtx) phase {
	h.absorbDirty(c)
	c.dir.owner = -1
	c.dir.sharers = c.dir.sharers[:0]
	return h.charge(c, params.L3DataCycles, (*Home).amoApply)
}

// amoApply executes the operation on the L3 copy.
func (h *Home) amoApply(c *lineCtx) phase {
	req, w := c.req, c.way
	off := mem.Offset(req.Addr)
	old, updated := applyAmo(w.Data, off, req.Size, req.Op, req.Operand, req.Operand2)
	w.Data = updated
	w.Dirty = true
	c.resp = h.newResp(RespAmo, req.Line, 0, mem.Line{})
	binary.LittleEndian.PutUint64(c.resp.Old[:], old)
	return h.charge(c, params.HomeRespCycles, (*Home).amoRespond)
}

func (h *Home) amoRespond(c *lineCtx) phase {
	h.respond(c.req.CacheID, c.resp, c.tx)
	c.resp = nil
	return (*Home).done
}

// writeThrough serves a write-no-allocate store: every copy except the
// requester's S copy (refreshed by the WTAck payload) is invalidated.
func (h *Home) writeThrough(c *lineCtx) phase {
	req, d := c.req, c.dir
	if d.owner >= 0 && d.owner != req.CacheID {
		h.targets = append(h.targets[:0], d.owner)
	} else {
		h.targets = d.appendSharers(h.targets[:0], req.CacheID)
	}
	return h.awaitAcks(c, c, h.invalidate(req.Line, c.tx), (*Home).writeThroughExec)
}

func (h *Home) writeThroughExec(c *lineCtx) phase {
	h.absorbDirty(c)
	if d := c.dir; d.owner >= 0 && d.owner != c.req.CacheID {
		d.owner = -1
	}
	return h.charge(c, params.L3DataCycles, (*Home).writeThroughApply)
}

func (h *Home) writeThroughApply(c *lineCtx) phase {
	req, w := c.req, c.way
	off := mem.Offset(req.Addr)
	copy(w.Data[off:off+len(req.Bytes)], req.Bytes)
	w.Dirty = true
	return h.charge(c, params.HomeRespCycles, (*Home).writeThroughRespond)
}

func (h *Home) writeThroughRespond(c *lineCtx) phase {
	h.respond(c.req.CacheID, h.newResp(RespWTAck, c.line, 0, c.way.Data), c.tx)
	return (*Home).done
}

// applyAmo runs op on the size-byte little-endian value at off and
// returns that value's old contents with the updated line.
func applyAmo(line mem.Line, off, size int, op AmoOp, operand, operand2 uint64) (old uint64, updated mem.Line) {
	updated = line
	for i := 0; i < size; i++ {
		old |= uint64(line[off+i]) << (8 * i)
	}
	write := func(v uint64) {
		for i := 0; i < size; i++ {
			updated[off+i] = byte(v >> (8 * i))
		}
	}
	switch op {
	case AmoSwap:
		write(operand)
	case AmoAdd:
		write(old + operand)
	case AmoAnd:
		write(old & operand)
	case AmoOr:
		write(old | operand)
	case AmoCAS:
		if old == operand {
			write(operand2)
		}
	default:
		panic("home: unknown AMO")
	}
	return old, updated
}

// SnapshotLine returns the home's current view of a line (L3 if resident,
// else DRAM) plus directory state; used by tests and the checker.
func (h *Home) SnapshotLine(line uint64) (data mem.Line, owner int, sharers []int) {
	data, owner = h.lineData(line), -1
	if d, ok := h.dir[line]; ok {
		owner = d.owner
		sharers = d.appendSharers(nil, -1)
	}
	return data, owner, sharers
}

// lineData returns the home's copy of a line: its L3 copy if resident,
// else DRAM's.
func (h *Home) lineData(line uint64) mem.Line {
	if w := h.arr.Peek(line); w != nil {
		return w.Data
	}
	return h.dram.ReadLine(line)
}

// Busy reports whether any line transaction is in flight at this home.
func (h *Home) Busy() bool {
	for _, c := range h.ctxs {
		if c.busy || c.jobs.Len() > 0 {
			return true
		}
	}
	return false
}
