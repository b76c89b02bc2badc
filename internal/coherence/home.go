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
type lineCtx struct {
	line uint64
	busy bool
	jobs []homeJob // queued requests; jobs[head:] are still to run
	head int

	// The context's serial worker: one thread record and one function,
	// restarted for every busy period (sim.Engine.Respawn).
	worker *sim.Thread
	work   func(*sim.Thread)

	// Ack collection for the flow currently holding the line's thread.
	acks    []*AckMsg
	ackCond *sim.Cond
}

func (c *lineCtx) queued() bool { return c.head < len(c.jobs) }

// homeJob is one queued request for a line's serial worker. Jobs are value
// records rather than closures. The request is on loan from the domain's
// message pool: the worker returns it there as soon as process has run
// its transaction, so no job may keep req past that point (see msgPool).
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
	name string // worker-thread name, built once (not per transaction)

	dram *mem.Memory
	arr  *cache.Array
	dir  map[uint64]*dirEntry
	ctxs map[uint64]*lineCtx // lines with work in flight
	pool *msgPool

	freeCtx []*lineCtx // idle line contexts

	freeDir []*dirEntry // entries of lines evicted from the shard

	// targets lists the caches an invalidation round goes to. Every
	// line's worker shares it: it is filled and consumed (invalidate)
	// before the worker can block.
	targets []int

	// cacheTile maps cache IDs to their NoC tiles for forwards.
	cacheTile map[int]int

	// Stats.
	Reqs, Fwds, DRAMFills, Writebacks uint64
}

// newHome creates an L3 shard at the given tile, drawing its messages from
// pool.
func newHome(eng *sim.Engine, clk *sim.Clock, mesh *noc.Mesh, tile int, dram *mem.Memory, pool *msgPool) *Home {
	h := &Home{
		eng:       eng,
		clk:       clk,
		mesh:      mesh,
		tile:      tile,
		name:      fmt.Sprintf("home%d", tile),
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
			c = &lineCtx{ackCond: sim.NewCond(h.eng)}
			c.work = func(t *sim.Thread) { h.work(t, c) }
		}
		c.line = line
		h.ctxs[line] = c
	}
	return c
}

// idle releases an idle line's context: no job queued or running and no
// ack outstanding. Its worker thread must be finished or about to finish
// without running anything else first.
func (h *Home) idle(c *lineCtx) {
	c.busy = false
	delete(h.ctxs, c.line)
	h.freeCtx = append(h.freeCtx, c)
}

// enqueue adds a request to the line's serial queue, starting a worker
// thread if none is active.
func (h *Home) enqueue(line uint64, job homeJob) {
	c := h.ctx(line)
	c.jobs = append(c.jobs, job)
	if !c.busy {
		c.busy = true
		h.startWorker(c)
	}
}

func (h *Home) startWorker(c *lineCtx) {
	if c.worker == nil {
		c.worker = h.eng.Go(h.name, c.work)
	} else {
		h.eng.Respawn(c.worker, c.work)
	}
}

// work runs the line's queued requests to completion, returning each
// request to the pool once processed.
func (h *Home) work(t *sim.Thread, c *lineCtx) {
	for c.queued() {
		j := c.jobs[c.head]
		c.jobs[c.head] = homeJob{}
		c.head++
		h.process(t, j.req, j.tx)
		h.pool.reqs.Put(j.req)
	}
	c.jobs, c.head = c.jobs[:0], 0
	if len(c.acks) > 0 {
		panic("home: unconsumed acks at line quiesce")
	}
	h.idle(c) // last: the thread ends right after
}

func (h *Home) onReq(m *noc.Msg) {
	req := m.Payload.(*ReqMsg)
	h.Reqs++
	h.enqueue(req.Line, homeJob{req: req, tx: m.TX})
}

func (h *Home) onAck(m *noc.Msg) {
	ack := m.Payload.(*AckMsg)
	c := h.ctx(ack.Line)
	c.acks = append(c.acks, ack)
	c.ackCond.Broadcast()
}

// charge advances the worker thread n fast cycles and attributes them.
func (h *Home) charge(t *sim.Thread, tx *sim.TX, n int64) {
	before := h.eng.Now()
	t.SleepCycles(h.clk, n)
	tx.Add(sim.CatFast, h.eng.Now()-before)
}

// collectAcks waits until n acks for line have arrived and returns them.
// The acks stay the line's until the caller, having read them, hands them
// back with releaseAcks; the slice is reused for the line's next round.
func (h *Home) collectAcks(t *sim.Thread, line uint64, n int) []*AckMsg {
	c := h.ctx(line)
	for len(c.acks) < n {
		c.ackCond.Wait(t)
	}
	if len(c.acks) != n {
		panic(fmt.Sprintf("home: expected %d acks, got %d", n, len(c.acks)))
	}
	return c.acks
}

// releaseAcks returns line's collected acks to the domain's pool. It is
// the ownership point for acks: call it only once nothing reads them.
func (h *Home) releaseAcks(line uint64) {
	c := h.ctx(line)
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
	h.Fwds++
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

// ensureResident makes the line present in the L3 array, fetching from
// DRAM (and evicting an L3 victim, including back-invalidation of its
// private copies) as needed. It returns the resident way.
func (h *Home) ensureResident(t *sim.Thread, line uint64, tx *sim.TX) *cache.Way {
	if w := h.arr.Lookup(line); w != nil {
		return w
	}
	// Choose a victim way whose line is not mid-transaction.
	var victim *cache.Way
	for {
		victim = h.arr.Victim(line)
		if !victim.Valid {
			break
		}
		if c, ok := h.ctxs[victim.Tag]; ok && c.busy {
			// Rare: the LRU victim is busy; wait a cycle and retry.
			t.SleepCycles(h.clk, 1)
			continue
		}
		break
	}
	if victim.Valid {
		// Hold the victim line busy for the duration of the eviction so a
		// concurrent request for it cannot start a second worker.
		vc := h.ctx(victim.Tag)
		vc.busy = true
		h.evictL3(t, victim, tx)
		if vc.queued() {
			h.startWorker(vc)
		} else {
			h.idle(vc)
		}
	}
	// Fetch from DRAM.
	before := h.eng.Now()
	t.Sleep(params.DRAMLatency)
	tx.Add(sim.CatFast, h.eng.Now()-before)
	h.DRAMFills++
	data := h.dram.ReadLine(line)
	w := h.arr.Install(victim, line, data, 0)
	h.dir[line] = h.newDirEntry()
	return w
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

// evictL3 removes a victim line from the shard: invalidates all private
// copies (collecting dirty data) and writes the final data back to DRAM.
// Runs inline on the caller's thread; the victim line's own job queue is
// used to serialize against concurrent transactions (caller verified the
// line is idle).
func (h *Home) evictL3(t *sim.Thread, victim *cache.Way, tx *sim.TX) {
	line := victim.Tag
	d := h.dir[line]
	if d != nil && d.hasPrivateCopies() {
		h.targets = d.appendCopies(h.targets[:0])
		n := h.invalidate(line, tx)
		for _, a := range h.collectAcks(t, line, n) {
			if a.Present && a.Dirty {
				victim.Data = a.Data
				victim.Dirty = true
			}
		}
		h.releaseAcks(line)
	}
	h.dram.WriteLine(line, victim.Data)
	if d != nil {
		delete(h.dir, line)
		d.owner, d.sharers = -1, d.sharers[:0]
		h.freeDir = append(h.freeDir, d)
	}
	h.arr.Invalidate(victim)
}

// process runs one request transaction to completion on the line's worker
// thread.
func (h *Home) process(t *sim.Thread, req *ReqMsg, tx *sim.TX) {
	h.charge(t, tx, params.DirLookupCycles)
	switch req.Type {
	case ReqLoad:
		h.processLoad(t, req, tx)
	case ReqStore:
		h.processStore(t, req, tx)
	case ReqWB:
		h.processWB(t, req, tx)
	case ReqAmo:
		h.processAmo(t, req, tx)
	case ReqWT:
		h.processWT(t, req, tx)
	default:
		panic("home: unknown request type")
	}
}

func (h *Home) processLoad(t *sim.Thread, req *ReqMsg, tx *sim.TX) {
	w := h.ensureResident(t, req.Line, tx)
	d := h.dir[req.Line]
	if d.owner == req.CacheID || d.isSharer(req.CacheID) {
		panic(fmt.Sprintf("home: load from cache %d already holding %#x", req.CacheID, req.Line))
	}
	if d.owner >= 0 {
		// Fetch from the owner; this is the "secondary write-back" path
		// measured in Fig. 9.
		owner := d.owner
		h.forward(owner, FwdDowngrade, req.Line, tx)
		a := h.collectAcks(t, req.Line, 1)[0]
		h.charge(t, tx, params.L3DataCycles)
		if a.Present && a.Dirty {
			w.Data = a.Data
			h.Writebacks++
		}
		d.owner = -1
		if a.Present && !a.FromWB {
			d.addSharer(owner)
		}
		h.releaseAcks(req.Line)
		d.addSharer(req.CacheID)
		h.charge(t, tx, params.HomeRespCycles)
		h.respond(req.CacheID, h.newResp(RespData, req.Line, StateS, w.Data), tx)
		return
	}
	h.charge(t, tx, params.L3DataCycles+params.HomeRespCycles)
	if len(d.sharers) == 0 {
		// Sole copy: grant Exclusive.
		d.owner = req.CacheID
		h.respond(req.CacheID, h.newResp(RespData, req.Line, StateE, w.Data), tx)
		return
	}
	d.addSharer(req.CacheID)
	h.respond(req.CacheID, h.newResp(RespData, req.Line, StateS, w.Data), tx)
}

func (h *Home) processStore(t *sim.Thread, req *ReqMsg, tx *sim.TX) {
	w := h.ensureResident(t, req.Line, tx)
	d := h.dir[req.Line]
	if d.owner == req.CacheID {
		panic(fmt.Sprintf("home: store from owner %d for %#x", req.CacheID, req.Line))
	}
	// Invalidate every other copy.
	if d.owner >= 0 {
		h.targets = append(h.targets[:0], d.owner)
	} else {
		h.targets = d.appendSharers(h.targets[:0], req.CacheID)
	}
	if n := h.invalidate(req.Line, tx); n > 0 {
		for _, a := range h.collectAcks(t, req.Line, n) {
			if a.Present && a.Dirty {
				w.Data = a.Data
				h.Writebacks++
			}
		}
		h.releaseAcks(req.Line)
	}
	d.owner = req.CacheID
	d.sharers = d.sharers[:0]
	h.charge(t, tx, params.L3DataCycles+params.HomeRespCycles)
	h.respond(req.CacheID, h.newResp(RespData, req.Line, StateM, w.Data), tx)
}

func (h *Home) processWB(t *sim.Thread, req *ReqMsg, tx *sim.TX) {
	d := h.dir[req.Line]
	inDir := d != nil && (d.owner == req.CacheID || d.isSharer(req.CacheID))
	if !inDir {
		// The line was surrendered to a forward while the WB was in
		// flight: the data already reached the home via the ack path.
		h.charge(t, tx, params.HomeRespCycles)
		h.respond(req.CacheID, h.newResp(RespWBStale, req.Line, 0, mem.Line{}), tx)
		return
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
			h.Writebacks++
		}
	} else {
		d.removeSharer(req.CacheID)
	}
	h.charge(t, tx, params.L3DataCycles+params.HomeRespCycles)
	h.respond(req.CacheID, h.newResp(RespWBAck, req.Line, 0, mem.Line{}), tx)
}

func (h *Home) processAmo(t *sim.Thread, req *ReqMsg, tx *sim.TX) {
	w := h.ensureResident(t, req.Line, tx)
	d := h.dir[req.Line]
	// Invalidate ALL private copies, including the requester's.
	h.targets = d.appendCopies(h.targets[:0])
	if n := h.invalidate(req.Line, tx); n > 0 {
		for _, a := range h.collectAcks(t, req.Line, n) {
			if a.Present && a.Dirty {
				w.Data = a.Data
			}
		}
		h.releaseAcks(req.Line)
	}
	d.owner = -1
	d.sharers = d.sharers[:0]
	// Execute the operation on the L3 copy.
	h.charge(t, tx, params.L3DataCycles)
	off := mem.Offset(req.Addr)
	old, updated := applyAmo(w.Data, off, req.Size, req.Op, req.Operand, req.Operand2)
	w.Data = updated
	w.Dirty = true
	resp := h.newResp(RespAmo, req.Line, 0, mem.Line{})
	binary.LittleEndian.PutUint64(resp.Old[:], old)
	h.charge(t, tx, params.HomeRespCycles)
	h.respond(req.CacheID, resp, tx)
}

func (h *Home) processWT(t *sim.Thread, req *ReqMsg, tx *sim.TX) {
	w := h.ensureResident(t, req.Line, tx)
	d := h.dir[req.Line]
	// Invalidate every copy except the requester's S copy (which is
	// refreshed by the WTAck payload).
	if d.owner >= 0 && d.owner != req.CacheID {
		h.targets = append(h.targets[:0], d.owner)
	} else {
		h.targets = d.appendSharers(h.targets[:0], req.CacheID)
	}
	if n := h.invalidate(req.Line, tx); n > 0 {
		for _, a := range h.collectAcks(t, req.Line, n) {
			if a.Present && a.Dirty {
				w.Data = a.Data
			}
		}
		h.releaseAcks(req.Line)
	}
	if d.owner >= 0 && d.owner != req.CacheID {
		d.owner = -1
	}
	h.charge(t, tx, params.L3DataCycles)
	off := mem.Offset(req.Addr)
	copy(w.Data[off:off+len(req.Bytes)], req.Bytes)
	w.Dirty = true
	h.charge(t, tx, params.HomeRespCycles)
	h.respond(req.CacheID, h.newResp(RespWTAck, req.Line, 0, w.Data), tx)
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
	owner = -1
	if w := h.arr.Peek(line); w != nil {
		data = w.Data
	} else {
		data = h.dram.ReadLine(line)
	}
	if d, ok := h.dir[line]; ok {
		owner = d.owner
		sharers = d.appendSharers(nil, -1)
	}
	return data, owner, sharers
}

// Busy reports whether any line transaction is in flight at this home.
func (h *Home) Busy() bool {
	for _, c := range h.ctxs {
		if c.busy || c.queued() {
			return true
		}
	}
	return false
}
