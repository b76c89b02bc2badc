// Package softcache implements the eFPGA-emulated soft cache of paper
// §II-C: a write-through cache built from fabric resources, tightly
// integrated into accelerator datapaths, kept coherent by the Proxy
// Cache's ordered invalidation stream (which it consumes without ever
// acknowledging). A bounded write buffer with optional read-after-write
// forwarding is provided, exactly the knobs the paper leaves to the
// accelerator designer.
package softcache

import (
	"fmt"
	"slices"

	"duet/internal/cache"
	"duet/internal/efpga"
	"duet/internal/mem"
	"duet/internal/mmu"
	"duet/internal/params"
	"duet/internal/sim"
)

// Config describes a soft cache instance.
type Config struct {
	SizeBytes int
	Ways      int
	// WriteBufferDepth bounds outstanding write-through stores (default 4).
	WriteBufferDepth int
	// RAWForwarding lets loads hit pending write-buffer entries; the
	// accelerator designer must confirm this is compatible with the
	// application's consistency assumptions (paper §II-C).
	RAWForwarding bool
	// VIVT indexes the cache by virtual address (the hub must run in
	// virtual mode; invalidations are reverse-mapped through the VPN the
	// Proxy Cache stores per line).
	VIVT bool
	// HitCycles is the per-hit cost in fabric cycles; 0 selects
	// params.SoftCacheHitCycles. A negative value makes hits free, for
	// fully pipelined datapaths that account for the access in their own
	// initiation interval; it also drops the one-cycle issue cost of
	// stores and atomics.
	HitCycles int64
}

// wbufEntry is one buffered write-through store. Its retire event waits
// on the port, through MemIntf.Done, until the hub completes the store;
// then the entry leaves the buffer and is recycled.
type wbufEntry struct {
	c      *Cache
	va     uint64
	handle uint64
	n      int // store width in bytes
	data   [params.HubStoreBytes]byte
	retire sim.Event
}

// Cache is one soft cache bound to a Memory Hub port.
type Cache struct {
	cfg   Config
	eng   *sim.Engine
	clk   *sim.Clock
	under efpga.MemIntf
	arr   *cache.Array

	// wbuf holds the pending write-throughs, oldest first.
	wbuf     []*wbufEntry
	wbufCond *sim.Cond
	entries  sim.FreeList[wbufEntry]
}

// New builds a soft cache over a hub port and registers it as the hub's
// invalidation sink. It must be created after the accelerator environment
// is available (fabric clock known).
func New(env *efpga.Env, under efpga.MemIntf, cfg Config) *Cache {
	if cfg.SizeBytes == 0 {
		cfg.SizeBytes = 2 * 1024
	}
	if cfg.Ways == 0 {
		cfg.Ways = 2
	}
	if cfg.WriteBufferDepth == 0 {
		cfg.WriteBufferDepth = 4
	}
	if cfg.HitCycles == 0 {
		cfg.HitCycles = params.SoftCacheHitCycles
	}
	c := &Cache{
		cfg:      cfg,
		eng:      env.Eng,
		clk:      env.Clk,
		under:    under,
		arr:      cache.NewArray(cfg.SizeBytes, cfg.Ways),
		wbufCond: sim.NewCond(env.Eng),
	}
	under.SetInvSink(c.onInvalidate)
	return c
}

// onInvalidate consumes the Proxy Cache's ordered invalidation stream.
// No acknowledgement is ever sent (the Proxy Cache novelty).
func (c *Cache) onInvalidate(pa, vpnTag uint64) {
	addr := pa
	if c.cfg.VIVT {
		if vpnTag == 0 {
			return // untagged line: cannot reverse-map; nothing cached
		}
		addr = (vpnTag-1)*mmu.PageSize + pa%mmu.PageSize
	}
	if w := c.arr.Peek(mem.LineAddr(addr)); w != nil {
		c.arr.Invalidate(w)
	}
}

// Load reads size bytes at va through the soft cache.
func (c *Cache) Load(t *sim.Thread, va uint64, size int) ([]byte, error) {
	// Write-buffer lookup (RAW forwarding).
	if c.cfg.RAWForwarding {
		for i := len(c.wbuf) - 1; i >= 0; i-- {
			e := c.wbuf[i]
			if e.va == va && e.n == size {
				// Copy before the forwarding cycle: the entry may retire
				// and be recycled during it.
				out := make([]byte, size)
				copy(out, e.data[:size])
				t.SleepCycles(c.clk, 1)
				return out, nil
			}
		}
	}
	line := mem.LineAddr(va)
	if c.cfg.HitCycles > 0 {
		t.SleepCycles(c.clk, c.cfg.HitCycles)
	}
	if w := c.arr.Lookup(line); w != nil {
		off := mem.Offset(va)
		out := make([]byte, size)
		copy(out, w.Data[off:off+size])
		return out, nil
	}
	b, err := c.under.LoadLine(t, line)
	if err != nil {
		return nil, err
	}
	var data mem.Line
	copy(data[:], b)
	c.install(line, data)
	off := mem.Offset(va)
	out := make([]byte, size)
	copy(out, data[off:off+size])
	return out, nil
}

// Load64 reads a uint64 through the soft cache.
func (c *Cache) Load64(t *sim.Thread, va uint64) (uint64, error) {
	b, err := c.Load(t, va, 8)
	if err != nil {
		return 0, err
	}
	return le64(b), nil
}

// Load32 reads a uint32 through the soft cache.
func (c *Cache) Load32(t *sim.Thread, va uint64) (uint32, error) {
	b, err := c.Load(t, va, 4)
	if err != nil {
		return 0, err
	}
	return uint32(le64(b)), nil
}

func (c *Cache) install(line uint64, data mem.Line) {
	w := c.arr.Victim(line)
	if w.Valid {
		// Write-through cache: lines are always clean; silent eviction.
		c.arr.Invalidate(w)
	}
	c.arr.Install(w, line, data, 1)
}

// Store writes data at va: the local copy (if any) is updated and the
// store is written through the hub via the bounded write buffer.
func (c *Cache) Store(t *sim.Thread, va uint64, data []byte) error {
	if len(data) > params.HubStoreBytes {
		return fmt.Errorf("softcache: store wider than %d bytes", params.HubStoreBytes)
	}
	for len(c.wbuf) >= c.cfg.WriteBufferDepth {
		c.wbufCond.Wait(t)
	}
	if c.cfg.HitCycles > 0 {
		t.SleepCycles(c.clk, 1)
	}
	if w := c.arr.Peek(mem.LineAddr(va)); w != nil {
		off := mem.Offset(va)
		copy(w.Data[off:off+len(data)], data)
	}
	e := c.entries.Get()
	e.c, e.va, e.n = c, va, copy(e.data[:], data)
	e.retire = sim.Event{Fn: retire, Arg: e}
	c.wbuf = append(c.wbuf, e)
	e.handle = c.under.StoreAsync(t, va, e.data[:e.n])
	c.eng.AtEvent(c.eng.Now(), &e.retire) // first check at this instant
	return nil
}

// retire waits, through the port's completion condition, until the
// entry's write-through completes, then frees its buffer slot.
func retire(a any) {
	e := a.(*wbufEntry)
	c := e.c
	if !c.under.Done(e.handle, &e.retire) {
		return
	}
	i := slices.Index(c.wbuf, e)
	c.wbuf = slices.Delete(c.wbuf, i, i+1)
	c.entries.Put(e)
	c.wbufCond.Broadcast()
}

// Store64 writes a uint64 through the soft cache.
func (c *Cache) Store64(t *sim.Thread, va uint64, v uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return c.Store(t, va, b[:])
}

// Store32 writes a uint32 through the soft cache.
func (c *Cache) Store32(t *sim.Thread, va uint64, v uint32) error {
	var b [4]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return c.Store(t, va, b[:])
}

// Amo forwards an atomic operation to the hub ("incrementally more
// message types" when the Proxy Cache's atomics switch is on, §II-C).
// The local copy of the line is dropped first: atomics execute at the
// home, so a cached copy would go stale, and the write buffer must not
// hold writes to the same line across the atomic.
func (c *Cache) Amo(t *sim.Thread, op int, va uint64, size int, operand, operand2 uint64) (uint64, error) {
	c.Drain(t) // order the atomic behind buffered write-throughs
	if w := c.arr.Peek(mem.LineAddr(va)); w != nil {
		c.arr.Invalidate(w)
	}
	if c.cfg.HitCycles > 0 {
		t.SleepCycles(c.clk, 1)
	}
	return c.under.Amo(t, op, va, size, operand, operand2)
}

// Drain blocks until all buffered writes have committed.
func (c *Cache) Drain(t *sim.Thread) {
	for len(c.wbuf) > 0 {
		c.wbufCond.Wait(t)
	}
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 0; i < len(b); i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
