package coherence

import (
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
// is empty); otherwise sharers lists the caches holding it in S.
type dirEntry struct {
	owner   int
	sharers map[int]bool
}

func newDirEntry() *dirEntry {
	return &dirEntry{owner: -1, sharers: make(map[int]bool)}
}

func (d *dirEntry) hasPrivateCopies() bool {
	return d.owner >= 0 || len(d.sharers) > 0
}

func (d *dirEntry) copies() []int {
	if d.owner >= 0 {
		return []int{d.owner}
	}
	return d.sharersExcept(-1)
}

// sharersExcept lists the S-state holders other than skip in cache-ID
// order. Invalidations go out in this order, so it must not depend on
// map iteration: runs stay byte-identical per seed.
func (d *dirEntry) sharersExcept(skip int) []int {
	out := make([]int, 0, len(d.sharers))
	for id := range d.sharers {
		if id != skip {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// lineCtx serializes home-side work per line.
type lineCtx struct {
	busy bool
	jobs []homeJob

	// Ack collection for the flow currently holding the line's thread.
	acks    []*AckMsg
	ackCond *sim.Cond
}

// homeJob is one queued request for a line's serial worker. Jobs are value
// records rather than closures so the request hot path allocates nothing
// beyond the messages themselves.
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
	ctxs map[uint64]*lineCtx

	// cacheTile maps cache IDs to their NoC tiles for forwards.
	cacheTile map[int]int

	// Stats.
	Reqs, Fwds, DRAMFills, Writebacks uint64
}

// NewHome creates an L3 shard at the given tile.
func NewHome(eng *sim.Engine, clk *sim.Clock, mesh *noc.Mesh, tile int, dram *mem.Memory) *Home {
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
		cacheTile: make(map[int]int),
	}
	mesh.Register(tile, noc.VNReq, h.onReq)
	mesh.Register(tile, noc.VNData, h.onAck)
	return h
}

// Tile reports the home's NoC tile.
func (h *Home) Tile() int { return h.tile }

// AddCache registers a private cache's tile so forwards can be routed.
func (h *Home) AddCache(cacheID, tile int) { h.cacheTile[cacheID] = tile }

func (h *Home) ctx(line uint64) *lineCtx {
	c := h.ctxs[line]
	if c == nil {
		c = &lineCtx{ackCond: sim.NewCond(h.eng)}
		h.ctxs[line] = c
	}
	return c
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
	h.eng.Go(h.name, func(t *sim.Thread) {
		for len(c.jobs) > 0 {
			j := c.jobs[0]
			c.jobs[0] = homeJob{}
			c.jobs = c.jobs[1:]
			h.process(t, j.req, j.tx)
		}
		c.busy = false
		if len(c.acks) > 0 {
			panic("home: unconsumed acks at line quiesce")
		}
	})
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
func (h *Home) collectAcks(t *sim.Thread, line uint64, n int) []*AckMsg {
	c := h.ctx(line)
	for len(c.acks) < n {
		c.ackCond.Wait(t)
	}
	acks := c.acks
	c.acks = nil
	if len(acks) != n {
		panic(fmt.Sprintf("home: expected %d acks, got %d", n, len(acks)))
	}
	return acks
}

func (h *Home) send(dst int, vn noc.VN, bytes int, payload interface{}, tx *sim.TX) {
	h.mesh.Send(&noc.Msg{Src: h.tile, Dst: dst, VN: vn, Bytes: bytes, Payload: payload, TX: tx})
}

func (h *Home) respond(cacheID int, resp *RespMsg, tx *sim.TX) {
	resp.To = cacheID
	h.send(h.cacheTile[cacheID], noc.VNFwd, RespBytes(resp), resp, tx)
}

func (h *Home) forward(cacheID int, fwd *FwdMsg, tx *sim.TX) {
	fwd.To = cacheID
	h.Fwds++
	h.send(h.cacheTile[cacheID], noc.VNFwd, FwdBytes, fwd, tx)
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
		if len(vc.jobs) > 0 {
			h.startWorker(vc)
		} else {
			vc.busy = false
		}
	}
	// Fetch from DRAM.
	before := h.eng.Now()
	t.Sleep(params.DRAMLatency)
	tx.Add(sim.CatFast, h.eng.Now()-before)
	h.DRAMFills++
	data := h.dram.ReadLine(line)
	w := h.arr.Install(victim, line, data, 0)
	h.dir[line] = newDirEntry()
	return w
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
		targets := d.copies()
		for _, id := range targets {
			h.forward(id, &FwdMsg{Type: FwdInv, Line: line}, tx)
		}
		acks := h.collectAcks(t, line, len(targets))
		for _, a := range acks {
			if a.Present && a.Dirty {
				victim.Data = a.Data
				victim.Dirty = true
			}
		}
	}
	h.dram.WriteLine(line, victim.Data)
	delete(h.dir, line)
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
	if d.owner == req.CacheID || d.sharers[req.CacheID] {
		panic(fmt.Sprintf("home: load from cache %d already holding %#x", req.CacheID, req.Line))
	}
	if d.owner >= 0 {
		// Fetch from the owner; this is the "secondary write-back" path
		// measured in Fig. 9.
		owner := d.owner
		h.forward(owner, &FwdMsg{Type: FwdDowngrade, Line: req.Line}, tx)
		acks := h.collectAcks(t, req.Line, 1)
		a := acks[0]
		h.charge(t, tx, params.L3DataCycles)
		if a.Present && a.Dirty {
			w.Data = a.Data
			h.Writebacks++
		}
		d.owner = -1
		if a.Present && !a.FromWB {
			d.sharers[owner] = true
		}
		d.sharers[req.CacheID] = true
		h.charge(t, tx, params.HomeRespCycles)
		h.respond(req.CacheID, &RespMsg{Kind: RespData, Line: req.Line, Grant: StateS, Data: w.Data}, tx)
		return
	}
	h.charge(t, tx, params.L3DataCycles+params.HomeRespCycles)
	if len(d.sharers) == 0 {
		// Sole copy: grant Exclusive.
		d.owner = req.CacheID
		h.respond(req.CacheID, &RespMsg{Kind: RespData, Line: req.Line, Grant: StateE, Data: w.Data}, tx)
		return
	}
	d.sharers[req.CacheID] = true
	h.respond(req.CacheID, &RespMsg{Kind: RespData, Line: req.Line, Grant: StateS, Data: w.Data}, tx)
}

func (h *Home) processStore(t *sim.Thread, req *ReqMsg, tx *sim.TX) {
	w := h.ensureResident(t, req.Line, tx)
	d := h.dir[req.Line]
	if d.owner == req.CacheID {
		panic(fmt.Sprintf("home: store from owner %d for %#x", req.CacheID, req.Line))
	}
	// Invalidate every other copy.
	var targets []int
	if d.owner >= 0 {
		targets = []int{d.owner}
	} else {
		targets = d.sharersExcept(req.CacheID)
	}
	for _, id := range targets {
		h.forward(id, &FwdMsg{Type: FwdInv, Line: req.Line}, tx)
	}
	if len(targets) > 0 {
		acks := h.collectAcks(t, req.Line, len(targets))
		for _, a := range acks {
			if a.Present && a.Dirty {
				w.Data = a.Data
				h.Writebacks++
			}
		}
	}
	d.owner = req.CacheID
	d.sharers = make(map[int]bool)
	h.charge(t, tx, params.L3DataCycles+params.HomeRespCycles)
	h.respond(req.CacheID, &RespMsg{Kind: RespData, Line: req.Line, Grant: StateM, Data: w.Data}, tx)
}

func (h *Home) processWB(t *sim.Thread, req *ReqMsg, tx *sim.TX) {
	d := h.dir[req.Line]
	inDir := d != nil && (d.owner == req.CacheID || d.sharers[req.CacheID])
	if !inDir {
		// The line was surrendered to a forward while the WB was in
		// flight: the data already reached the home via the ack path.
		h.charge(t, tx, params.HomeRespCycles)
		h.respond(req.CacheID, &RespMsg{Kind: RespWBStale, Line: req.Line}, tx)
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
		delete(d.sharers, req.CacheID)
	}
	h.charge(t, tx, params.L3DataCycles+params.HomeRespCycles)
	h.respond(req.CacheID, &RespMsg{Kind: RespWBAck, Line: req.Line}, tx)
}

func (h *Home) processAmo(t *sim.Thread, req *ReqMsg, tx *sim.TX) {
	w := h.ensureResident(t, req.Line, tx)
	d := h.dir[req.Line]
	// Invalidate ALL private copies, including the requester's.
	targets := d.copies()
	for _, id := range targets {
		h.forward(id, &FwdMsg{Type: FwdInv, Line: req.Line}, tx)
	}
	if len(targets) > 0 {
		acks := h.collectAcks(t, req.Line, len(targets))
		for _, a := range acks {
			if a.Present && a.Dirty {
				w.Data = a.Data
			}
		}
	}
	d.owner = -1
	d.sharers = make(map[int]bool)
	// Execute the operation on the L3 copy.
	h.charge(t, tx, params.L3DataCycles)
	off := mem.Offset(req.Addr)
	old, updated := applyAmo(w.Data, off, req.Size, req.Op, req.Operand, req.Operand2)
	w.Data = updated
	w.Dirty = true
	resp := &RespMsg{Kind: RespAmo, Line: req.Line}
	copy(resp.Old[:], old)
	h.charge(t, tx, params.HomeRespCycles)
	h.respond(req.CacheID, resp, tx)
}

func (h *Home) processWT(t *sim.Thread, req *ReqMsg, tx *sim.TX) {
	w := h.ensureResident(t, req.Line, tx)
	d := h.dir[req.Line]
	// Invalidate every copy except the requester's S copy (which is
	// refreshed by the WTAck payload).
	var targets []int
	if d.owner >= 0 && d.owner != req.CacheID {
		targets = []int{d.owner}
	} else {
		targets = d.sharersExcept(req.CacheID)
	}
	for _, id := range targets {
		h.forward(id, &FwdMsg{Type: FwdInv, Line: req.Line}, tx)
	}
	if len(targets) > 0 {
		acks := h.collectAcks(t, req.Line, len(targets))
		for _, a := range acks {
			if a.Present && a.Dirty {
				w.Data = a.Data
			}
		}
	}
	if d.owner >= 0 && d.owner != req.CacheID {
		d.owner = -1
	}
	h.charge(t, tx, params.L3DataCycles)
	off := mem.Offset(req.Addr)
	copy(w.Data[off:off+len(req.Bytes)], req.Bytes)
	w.Dirty = true
	h.charge(t, tx, params.HomeRespCycles)
	h.respond(req.CacheID, &RespMsg{Kind: RespWTAck, Line: req.Line, Data: w.Data}, tx)
}

func applyAmo(line mem.Line, off, size int, op AmoOp, operand, operand2 uint64) (old []byte, updated mem.Line) {
	updated = line
	read := func() uint64 {
		var v uint64
		for i := 0; i < size; i++ {
			v |= uint64(line[off+i]) << (8 * i)
		}
		return v
	}
	write := func(v uint64) {
		for i := 0; i < size; i++ {
			updated[off+i] = byte(v >> (8 * i))
		}
	}
	cur := read()
	switch op {
	case AmoSwap:
		write(operand)
	case AmoAdd:
		write(cur + operand)
	case AmoAnd:
		write(cur & operand)
	case AmoOr:
		write(cur | operand)
	case AmoCAS:
		if cur == operand {
			write(operand2)
		}
	default:
		panic("home: unknown AMO")
	}
	old = make([]byte, size)
	for i := 0; i < size; i++ {
		old[i] = byte(cur >> (8 * i))
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
		sharers = d.sharersExcept(-1)
	}
	return data, owner, sharers
}

// Busy reports whether any line transaction is in flight at this home.
func (h *Home) Busy() bool {
	for _, c := range h.ctxs {
		if c.busy || len(c.jobs) > 0 {
			return true
		}
	}
	return false
}
