package coherence

import (
	"fmt"
	"slices"

	"duet/internal/cdc"
	"duet/internal/mem"
	"duet/internal/noc"
	"duet/internal/params"
	"duet/internal/sim"
)

// Domain wires together the distributed L3 homes and the private caches of
// one coherent system: address-interleaved home mapping, per-tile VN2
// dispatch (a tile can host more than one cache), and optional CDC bridges
// for caches whose logic runs in a slow clock domain.
//
// Each cache has a slot, its position in attach order. Cache IDs must
// ascend in that order, so slot order is ID order, and a domain holds at
// most MaxCaches caches, so a line's holders fit one directory mask.
// Protocol messages and the directory name caches by slot; cache IDs
// appear only in names, error text and Home.SnapshotLine.
type Domain struct {
	Eng   *sim.Engine
	Mesh  *noc.Mesh
	DRAM  *mem.Memory
	Homes []*Home

	pool   msgPool   // every protocol message of the domain
	caches []*PCache // by slot; every home routes through it
}

// MaxCaches is the most caches one domain holds: one bit each in a
// directory entry's holder mask.
const MaxCaches = 64

// NewDomain creates homes at homeTiles (one L3 shard + directory slice
// each) over a fresh DRAM.
func NewDomain(eng *sim.Engine, mesh *noc.Mesh, homeTiles []int) *Domain {
	if len(homeTiles) == 0 {
		panic("coherence: domain needs at least one home tile")
	}
	d := &Domain{Eng: eng, Mesh: mesh, DRAM: mem.New()}
	for _, t := range homeTiles {
		d.Homes = append(d.Homes, newHome(d, t))
	}
	return d
}

// HomeOf maps a line address to its home tile (address interleaving).
func (d *Domain) HomeOf(line uint64) int { return d.HomeFor(line).tile }

// HomeFor returns the Home shard owning line.
func (d *Domain) HomeFor(line uint64) *Home {
	return d.Homes[(line/params.LineBytes)%uint64(len(d.Homes))]
}

// NewCache creates and attaches a fast-domain private cache.
func (d *Domain) NewCache(cfg PCacheConfig) *PCache {
	c := newPCache(d.Eng, d.Mesh, cfg, d.HomeOf, nil, &d.pool)
	d.attach(c)
	return c
}

// NewSlowCache creates a private cache whose logic runs on slowClk and
// whose NoC ports cross clock domains through async FIFOs — the
// "soft/slow cache" organization of commodity FPSoCs (paper Fig. 4/5).
func (d *Domain) NewSlowCache(cfg PCacheConfig, slowClk *sim.Clock) *PCache {
	br := newBridge(d.Eng, d.Mesh, cfg.Tile, d.Mesh.Clock(), slowClk)
	cfg.Clk = slowClk
	cfg.Cat = sim.CatSlow
	c := newPCache(d.Eng, d.Mesh, cfg, d.HomeOf, br, &d.pool)
	br.cache = c
	d.attach(c)
	return c
}

// attach gives c the next slot. It panics unless c's ID ascends past
// every attached cache's and the domain has room for it.
func (d *Domain) attach(c *PCache) {
	n := len(d.caches)
	if n == MaxCaches {
		panic(fmt.Sprintf("coherence: cache %d would be cache %d of a domain that holds %d", c.ID(), n+1, MaxCaches))
	}
	if n > 0 && c.ID() <= d.caches[n-1].ID() {
		panic(fmt.Sprintf("coherence: cache ID %d attached after cache ID %d; IDs must ascend", c.ID(), d.caches[n-1].ID()))
	}
	tile := c.Tile()
	if !slices.ContainsFunc(d.caches, func(o *PCache) bool { return o.Tile() == tile }) {
		d.Mesh.Register(tile, noc.VNFwd, func(m *noc.Msg) { d.dispatchVN2(tile, m) })
	}
	c.slot = n
	d.caches = append(d.caches, c)
}

func (d *Domain) dispatchVN2(tile int, m *noc.Msg) {
	var to int
	switch p := m.Payload.(type) {
	case *RespMsg:
		to = p.To
	case *FwdMsg:
		to = p.To
	default:
		panic("coherence: unknown VN2 payload")
	}
	if to < 0 || to >= len(d.caches) || d.caches[to].Tile() != tile {
		panic(fmt.Sprintf("coherence: VN2 message for cache slot %d, not hosted at tile %d", to, tile))
	}
	c := d.caches[to]
	if br, ok := c.port.(*cdcBridge); ok {
		br.in.Push(m.Payload, m.TX) // toward the slow domain, in order
		return
	}
	deliver(c, m.Payload, m.TX)
}

func deliver(c *PCache, payload any, tx *sim.TX) {
	switch p := payload.(type) {
	case *RespMsg:
		c.DeliverResp(p, tx)
	case *FwdMsg:
		c.DeliverFwd(p, tx)
	}
}

// DebugReadLine returns the current coherent value of a line for test and
// benchmark result checking: a dirty private copy wins over the home's.
// Only meaningful at quiescence.
func (d *Domain) DebugReadLine(line uint64) mem.Line {
	for _, c := range d.caches {
		if w := c.arr.Peek(line); w != nil && w.State == StateM {
			return w.Data
		}
	}
	return d.HomeFor(line).lineData(line)
}

// Quiet reports whether no coherence activity is in flight anywhere.
func (d *Domain) Quiet() bool {
	for _, h := range d.Homes {
		if h.Busy() {
			return false
		}
	}
	for _, c := range d.caches {
		if !c.Quiet() {
			return false
		}
	}
	return true
}

// cdcBridge carries a slow-domain cache's NoC traffic across clock
// domains: inbound mesh messages cross fast→slow before the cache sees
// them; outbound messages cross slow→fast before entering the mesh.
type cdcBridge struct {
	mesh  *noc.Mesh
	cache *PCache

	in  *cdc.Fifo[any]      // fast -> slow (toward cache): VN2 payloads
	out *cdc.Fifo[*noc.Msg] // slow -> fast (toward mesh)
}

func newBridge(eng *sim.Engine, mesh *noc.Mesh, tile int, fastClk, slowClk *sim.Clock) *cdcBridge {
	b := &cdcBridge{
		mesh: mesh,
		in:   cdc.NewFifo[any](eng, fmt.Sprintf("bridge%d.in", tile), fastClk, slowClk, params.FifoDepth, params.SyncStages),
		out:  cdc.NewFifo[*noc.Msg](eng, fmt.Sprintf("bridge%d.out", tile), slowClk, fastClk, params.FifoDepth, params.SyncStages),
	}
	b.in.Drain(b.toCache)
	b.out.Drain(b.toMesh)
	return b
}

// toCache hands an inbound message to the cache once it has crossed.
func (b *cdcBridge) toCache(v any, tx *sim.TX) { deliver(b.cache, v, tx) }

// toMesh injects an outbound message once it has crossed.
func (b *cdcBridge) toMesh(m *noc.Msg, tx *sim.TX) {
	m.TX = tx
	b.mesh.Send(m)
}

// Send implements OutPort for the slow cache: outbound messages cross into
// the fast domain first, in order even under FIFO backpressure.
func (b *cdcBridge) Send(m *noc.Msg) {
	b.out.Push(m, m.TX)
}
