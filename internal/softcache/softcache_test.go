package softcache

import (
	"testing"

	"duet/internal/efpga"
	"duet/internal/sim"
)

// fakePort is a deterministic in-test Memory Hub port: line loads and
// stores against a backing map with a fixed latency. storeLat, when set,
// gives the i-th store its own latency, so write-throughs can complete
// out of order.
type fakePort struct {
	eng      *sim.Engine
	clk      *sim.Clock
	backing  map[uint64][]byte
	invSink  func(pa, vpn uint64)
	seq      uint64
	done     map[uint64][]byte
	cond     *sim.Cond
	storeLat []sim.Time

	loads, stores, amos int
	lastStoreDone       sim.Time // when the latest write-through completed
	amoAt               []sim.Time
}

func newFakePort(eng *sim.Engine, clk *sim.Clock) *fakePort {
	return &fakePort{
		eng: eng, clk: clk,
		backing: make(map[uint64][]byte),
		done:    make(map[uint64][]byte),
		cond:    sim.NewCond(eng),
	}
}

const fakeLatency = 50 * sim.NS

func (p *fakePort) line(va uint64) []byte {
	l := va &^ 15
	if p.backing[l] == nil {
		p.backing[l] = make([]byte, 16)
	}
	return p.backing[l]
}

func (p *fakePort) LoadAsync(t *sim.Thread, va uint64, size int) uint64 {
	p.loads++
	p.seq++
	h := p.seq
	off := int(va & 15)
	p.eng.After(fakeLatency, func() {
		out := make([]byte, size)
		copy(out, p.line(va)[off:off+size])
		p.done[h] = out
		p.cond.Broadcast()
	})
	return h
}

func (p *fakePort) StoreAsync(t *sim.Thread, va uint64, data []byte) uint64 {
	lat := fakeLatency
	if p.stores < len(p.storeLat) {
		lat = p.storeLat[p.stores]
	}
	p.stores++
	p.seq++
	h := p.seq
	cp := append([]byte(nil), data...)
	p.eng.After(lat, func() {
		copy(p.line(va)[va&15:], cp)
		p.done[h] = []byte{}
		p.lastStoreDone = p.eng.Now()
		p.cond.Broadcast()
	})
	return h
}

func (p *fakePort) Await(t *sim.Thread, h uint64) ([]byte, error) {
	for p.done[h] == nil {
		p.cond.Wait(t)
	}
	out := p.done[h]
	delete(p.done, h)
	return out, nil
}

func (p *fakePort) Done(h uint64, ev *sim.Event) bool {
	if p.done[h] == nil {
		p.cond.Await(ev)
		return false
	}
	delete(p.done, h)
	return true
}

func (p *fakePort) Load(t *sim.Thread, va uint64, size int) ([]byte, error) {
	return p.Await(t, p.LoadAsync(t, va, size))
}

func (p *fakePort) LoadLine(t *sim.Thread, va uint64) ([]byte, error) {
	return p.Load(t, va&^15, 16)
}

func (p *fakePort) Store(t *sim.Thread, va uint64, data []byte) error {
	_, err := p.Await(t, p.StoreAsync(t, va, data))
	return err
}

func (p *fakePort) Amo(t *sim.Thread, op int, va uint64, size int, a, b uint64) (uint64, error) {
	p.amos++
	p.amoAt = append(p.amoAt, p.eng.Now())
	t.Sleep(fakeLatency)
	line := p.line(va)
	off := va & 15
	var old uint64
	for i := 0; i < size; i++ {
		old |= uint64(line[off+uint64(i)]) << (8 * i)
	}
	nv := old + a // add semantics suffice for the test
	for i := 0; i < size; i++ {
		line[off+uint64(i)] = byte(nv >> (8 * i))
	}
	return old, nil
}

func (p *fakePort) SetInvSink(fn func(pa, vpn uint64)) { p.invSink = fn }

var _ efpga.MemIntf = (*fakePort)(nil)

func rig() (*sim.Engine, *efpga.Env, *fakePort) {
	eng := sim.NewEngine()
	clk := sim.ClockMHz("efpga", 100)
	port := newFakePort(eng, clk)
	env := &efpga.Env{Eng: eng, Clk: clk}
	return eng, env, port
}

func TestSoftCacheHitAvoidsPort(t *testing.T) {
	eng, env, port := rig()
	port.line(0x100)[0] = 42
	c := New(env, port, Config{SizeBytes: 512, Ways: 2})
	var v1, v2 uint64
	eng.Go("acc", func(th *sim.Thread) {
		v1, _ = c.Load64(th, 0x100)
		v2, _ = c.Load64(th, 0x100)
	})
	eng.Run(0)
	if v1 != 42 || v2 != 42 {
		t.Fatalf("loads = %d, %d", v1, v2)
	}
	if port.loads != 1 {
		t.Fatalf("port loads = %d, want 1 (second access must hit)", port.loads)
	}
}

func TestSoftCacheWriteThrough(t *testing.T) {
	eng, env, port := rig()
	c := New(env, port, Config{SizeBytes: 512, Ways: 2})
	eng.Go("acc", func(th *sim.Thread) {
		c.Load64(th, 0x200) // allocate
		c.Store64(th, 0x200, 77)
		c.Drain(th)
	})
	eng.Run(0)
	if port.stores != 1 {
		t.Fatalf("stores = %d (not written through)", port.stores)
	}
	if got := port.line(0x200)[0]; got != 77 {
		t.Fatalf("backing = %d", got)
	}
	// Local copy updated too.
	var v uint64
	eng.Go("check", func(th *sim.Thread) { v, _ = c.Load64(th, 0x200) })
	eng.Run(0)
	if v != 77 {
		t.Fatalf("local copy = %d", v)
	}
}

// A RAW-forwarded load takes one fabric cycle. Here the write-through it
// forwards from completes, and its entry is recycled, inside that cycle:
// the load must still return the stored value.
func TestSoftCacheRAWForwarding(t *testing.T) {
	eng, env, port := rig()
	port.storeLat = []sim.Time{3 * sim.NS}
	cFwd := New(env, port, Config{SizeBytes: 512, Ways: 2, RAWForwarding: true})
	var got uint64
	var start, end sim.Time
	eng.Go("acc", func(th *sim.Thread) {
		cFwd.Store64(th, 0x300, 11)
		start = th.Now()
		got, _ = cFwd.Load64(th, 0x300) // must forward from the write buffer
		end = th.Now()
	})
	eng.Run(0)
	if got != 11 {
		t.Fatalf("RAW value = %d", got)
	}
	if port.loads != 0 {
		t.Fatalf("port loads = %d, want 0 (load must forward from the write buffer)", port.loads)
	}
	if at := end - start; at > 20*sim.NS {
		t.Fatalf("RAW forward took %v (went to the port?)", at)
	}
	if done := port.lastStoreDone; done <= start || done >= end {
		t.Fatalf("write-through completed at %v, want inside the forwarding cycle (%v, %v)", done, start, end)
	}
}

// The write buffer never holds more than WriteBufferDepth stores, and a
// stalled store resumes when any entry retires, not only the oldest.
func TestSoftCacheWriteBufferBackpressure(t *testing.T) {
	eng, env, port := rig()
	port.storeLat = []sim.Time{500 * sim.NS, 30 * sim.NS, 500 * sim.NS, 500 * sim.NS}
	c := New(env, port, Config{SizeBytes: 512, Ways: 2, WriteBufferDepth: 2})
	var issued []sim.Time
	peak := 0
	eng.Go("acc", func(th *sim.Thread) {
		for i := 0; i < 4; i++ {
			c.Store64(th, uint64(0x400+i*16), uint64(i))
			issued = append(issued, th.Now())
			peak = max(peak, len(c.wbuf))
		}
		c.Drain(th)
	})
	eng.Run(0)
	if peak > 2 {
		t.Fatalf("write buffer reached %d entries, depth is 2", peak)
	}
	// The third store stalls until the 30ns second store retires.
	if d := issued[2] - issued[1]; d < 30*sim.NS || d > 100*sim.NS {
		t.Fatalf("third store issued %v after the second, want once the 30ns store retires", d)
	}
	if d := issued[3] - issued[2]; d < 300*sim.NS {
		t.Fatalf("fourth store issued %v after the third, want a stall until the first retires", d)
	}
	if port.stores != 4 {
		t.Fatalf("stores = %d", port.stores)
	}
}

func TestSoftCacheInvalidationStream(t *testing.T) {
	eng, env, port := rig()
	port.line(0x500)[0] = 1
	c := New(env, port, Config{SizeBytes: 512, Ways: 2})
	var v1, v2 uint64
	eng.Go("acc", func(th *sim.Thread) {
		v1, _ = c.Load64(th, 0x500)
		th.Sleep(200 * sim.NS)
		v2, _ = c.Load64(th, 0x500) // after inv: must refetch
	})
	eng.At(100*sim.NS, func() {
		port.line(0x500)[0] = 2
		port.invSink(0x500, 0) // proxy pushes an invalidation
	})
	eng.Run(0)
	if v1 != 1 || v2 != 2 {
		t.Fatalf("loads = %d, %d; invalidation not applied", v1, v2)
	}
	if port.loads != 2 {
		t.Fatalf("port loads = %d (stale hit after inv?)", port.loads)
	}
}

func TestSoftCacheAmoPassthrough(t *testing.T) {
	eng, env, port := rig()
	port.line(0x600)[0] = 10
	c := New(env, port, Config{SizeBytes: 512, Ways: 2})
	var old, reread uint64
	eng.Go("acc", func(th *sim.Thread) {
		c.Load64(th, 0x600)                   // cache the line
		c.Store64(th, 0x600+8, 1)             // leave a buffered write
		old, _ = c.Amo(th, 0, 0x600, 8, 5, 0) // must drain + invalidate + execute at home
		reread, _ = c.Load64(th, 0x600)       // refetch: sees the atomic's result
	})
	eng.Run(0)
	if port.amos != 1 {
		t.Fatalf("amos = %d", port.amos)
	}
	if old != 10 || reread != 15 {
		t.Fatalf("amo old=%d reread=%d, want 10, 15", old, reread)
	}
}

// With two pending stores to one address, a load forwards from the newer.
// The line is not cached, so only the write buffer holds either value.
func TestSoftCacheRAWForwardsNewest(t *testing.T) {
	eng, env, port := rig()
	port.storeLat = []sim.Time{500 * sim.NS, 400 * sim.NS}
	c := New(env, port, Config{SizeBytes: 512, Ways: 2, RAWForwarding: true})
	var got uint64
	eng.Go("acc", func(th *sim.Thread) {
		c.Store64(th, 0x300, 1)
		c.Store64(th, 0x300, 2)
		got, _ = c.Load64(th, 0x300)
		c.Drain(th)
	})
	eng.Run(0)
	if got != 2 || port.loads != 0 {
		t.Fatalf("load = %d (port loads %d), want 2 forwarded from the newer store", got, port.loads)
	}
}

// Write-throughs that complete out of order free their own buffer slots:
// a retired younger store no longer forwards, a pending older one still
// does.
func TestSoftCacheOutOfOrderRetire(t *testing.T) {
	eng, env, port := rig()
	port.storeLat = []sim.Time{300 * sim.NS, 20 * sim.NS}
	c := New(env, port, Config{SizeBytes: 512, Ways: 2, RAWForwarding: true})
	var a, b uint64
	var forwardLoads int
	eng.Go("acc", func(th *sim.Thread) {
		c.Store64(th, 0x100, 11) // slow
		c.Store64(th, 0x200, 22) // fast
		th.Sleep(100 * sim.NS)   // the younger store has retired
		if n := len(c.wbuf); n != 1 || c.wbuf[0].va != 0x100 {
			t.Errorf("write buffer holds %d entries after the younger retired, want only 0x100", n)
		}
		a, _ = c.Load64(th, 0x100) // forwarded
		forwardLoads = port.loads
		b, _ = c.Load64(th, 0x200) // from the port
		c.Drain(th)
	})
	eng.Run(0)
	if a != 11 || b != 22 || forwardLoads != 0 || port.loads != 1 {
		t.Fatalf("loads = %d, %d with %d port loads after the forward and %d in all; want 11, 22, 0, 1", a, b, forwardLoads, port.loads)
	}
}

// Drain and Amo return only once every pending write-through has
// completed, however the completions are ordered.
func TestSoftCacheDrainAndAmoWaitForAll(t *testing.T) {
	eng, env, port := rig()
	port.storeLat = []sim.Time{400 * sim.NS, 50 * sim.NS, 200 * sim.NS, 600 * sim.NS, 100 * sim.NS}
	c := New(env, port, Config{SizeBytes: 512, Ways: 2, WriteBufferDepth: 4})
	var drained sim.Time
	var pendingAtDrain, pendingAtAmo int
	eng.Go("acc", func(th *sim.Thread) {
		c.Store64(th, 0x100, 1)
		c.Store64(th, 0x110, 2)
		c.Drain(th)
		drained, pendingAtDrain = th.Now(), len(c.wbuf)
		c.Store64(th, 0x120, 3)
		c.Store64(th, 0x130, 4)
		c.Store64(th, 0x140, 5)
		c.Amo(th, 0, 0x150, 8, 1, 0)
		pendingAtAmo = len(c.wbuf)
	})
	eng.Run(0)
	if pendingAtDrain != 0 || pendingAtAmo != 0 {
		t.Fatalf("pending writes after Drain %d, after Amo %d; want 0", pendingAtDrain, pendingAtAmo)
	}
	if drained < 400*sim.NS {
		t.Fatalf("Drain returned at %v, before the 400ns store completed", drained)
	}
	if len(port.amoAt) != 1 || port.amoAt[0] < port.lastStoreDone || port.lastStoreDone < drained+600*sim.NS {
		t.Fatalf("atomic issued at %v, last write-through completed at %v; want the atomic after every store", port.amoAt, port.lastStoreDone)
	}
	for i := uint64(0); i < 5; i++ {
		if got := port.line(0x100 + 16*i)[0]; got != byte(i+1) {
			t.Fatalf("backing at %#x = %d, want %d", 0x100+16*i, got, i+1)
		}
	}
}
