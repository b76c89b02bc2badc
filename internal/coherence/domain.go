package coherence

import (
	"fmt"

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
type Domain struct {
	Eng   *sim.Engine
	Mesh  *noc.Mesh
	DRAM  *mem.Memory
	Homes []*Home

	homeTiles []int
	pool      msgPool                // every protocol message of the domain
	caches    map[int]*PCache        // cache ID -> cache
	tileRx    map[int]func(*noc.Msg) // VN2 receivers per tile (after dispatch)
	byTile    map[int]map[int]bool   // tile -> cache IDs
}

// NewDomain creates homes at homeTiles (one L3 shard + directory slice
// each) over a fresh DRAM.
func NewDomain(eng *sim.Engine, mesh *noc.Mesh, homeTiles []int) *Domain {
	if len(homeTiles) == 0 {
		panic("coherence: domain needs at least one home tile")
	}
	d := &Domain{
		Eng:       eng,
		Mesh:      mesh,
		DRAM:      mem.New(),
		homeTiles: homeTiles,
		caches:    make(map[int]*PCache),
		tileRx:    make(map[int]func(*noc.Msg)),
		byTile:    make(map[int]map[int]bool),
	}
	for _, t := range homeTiles {
		d.Homes = append(d.Homes, newHome(eng, mesh.Clock(), mesh, t, d.DRAM, &d.pool))
	}
	return d
}

// HomeOf maps a line address to its home tile (address interleaving).
func (d *Domain) HomeOf(line uint64) int {
	idx := (line / params.LineBytes) % uint64(len(d.homeTiles))
	return d.homeTiles[idx]
}

// HomeFor returns the Home shard owning line.
func (d *Domain) HomeFor(line uint64) *Home {
	idx := (line / params.LineBytes) % uint64(len(d.homeTiles))
	return d.Homes[idx]
}

// NewCache creates and attaches a fast-domain private cache.
func (d *Domain) NewCache(cfg PCacheConfig) *PCache {
	c := newPCache(d.Eng, d.Mesh, cfg, d.HomeOf, nil, &d.pool)
	d.attach(c, nil)
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
	d.attach(c, br)
	return c
}

func (d *Domain) attach(c *PCache, br *cdcBridge) {
	if _, dup := d.caches[c.ID()]; dup {
		panic(fmt.Sprintf("coherence: duplicate cache ID %d", c.ID()))
	}
	d.caches[c.ID()] = c
	for _, h := range d.Homes {
		h.AddCache(c.ID(), c.Tile())
	}
	tile := c.Tile()
	if d.byTile[tile] == nil {
		d.byTile[tile] = make(map[int]bool)
		d.Mesh.Register(tile, noc.VNFwd, func(m *noc.Msg) { d.dispatchVN2(tile, m) })
	}
	d.byTile[tile][c.ID()] = true
	if br != nil {
		d.tileRxSet(c.ID(), br.receiveFromNoC)
	} else {
		d.tileRxSet(c.ID(), func(m *noc.Msg) { deliver(c, m.Payload, m.TX) })
	}
}

func (d *Domain) tileRxSet(cacheID int, fn func(*noc.Msg)) {
	d.tileRx[cacheID] = fn
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
	rx := d.tileRx[to]
	if rx == nil || !d.byTile[tile][to] {
		panic(fmt.Sprintf("coherence: VN2 message for unknown cache %d at tile %d", to, tile))
	}
	rx(m)
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
		if data, state, ok := c.peekState(line); ok && state == StateM {
			return data
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
	eng   *sim.Engine
	mesh  *noc.Mesh
	cache *PCache

	in  *cdc.Fifo[any]      // fast -> slow (toward cache): VN2 payloads
	out *cdc.Fifo[*noc.Msg] // slow -> fast (toward mesh)
}

func newBridge(eng *sim.Engine, mesh *noc.Mesh, tile int, fastClk, slowClk *sim.Clock) *cdcBridge {
	b := &cdcBridge{
		eng:  eng,
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

// receiveFromNoC enqueues an inbound VN2 message toward the slow domain,
// in order even under FIFO backpressure.
func (b *cdcBridge) receiveFromNoC(m *noc.Msg) {
	b.in.Push(m.Payload, m.TX)
}

// Send implements OutPort for the slow cache: outbound messages cross into
// the fast domain first, in order even under FIFO backpressure.
func (b *cdcBridge) Send(m *noc.Msg) {
	b.out.Push(m, m.TX)
}
