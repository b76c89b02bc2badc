// Package noc models the network-on-chip: a 2D mesh with XY dimension-order
// routing, 16-byte links, per-link serialization, and point-to-point ordered
// delivery per (source, destination, virtual network) — the ordering
// guarantee Dolly inherits from OpenPiton P-Mesh and that the Proxy Cache
// protocol relies on (paper §II-C).
//
// Three virtual networks carry the coherence protocol in the P-Mesh style
// (VN1 cache→home requests, VN2 home→cache grants and forwards, VN3
// cache→home data returns and acks); two more carry memory-mapped I/O.
// Sharing grants and forwards on VN2 is what makes home→cache traffic
// ordered, which the private-cache protocol requires.
package noc

import (
	"fmt"

	"duet/internal/params"
	"duet/internal/sim"
)

// VN identifies a virtual network.
type VN int

// Virtual networks.
const (
	VNReq      VN = iota // cache -> home: coherence requests
	VNFwd                // home -> cache: grants, forwards, acks
	VNData               // cache -> home: data returns, inv acks
	VNMMIOReq            // core -> device: MMIO requests
	VNMMIOResp           // device -> core: MMIO responses
	NumVNs
)

func (v VN) String() string {
	switch v {
	case VNReq:
		return "VN1.req"
	case VNFwd:
		return "VN2.fwd"
	case VNData:
		return "VN3.data"
	case VNMMIOReq:
		return "VN4.mmio-req"
	case VNMMIOResp:
		return "VN5.mmio-resp"
	}
	return "VN?"
}

// Msg is one network message. Bytes is the payload size used for link
// serialization (a header flit is always added).
type Msg struct {
	Src, Dst int
	VN       VN
	Bytes    int
	Payload  interface{}
	TX       *sim.TX
}

// Handler consumes delivered messages. Handlers run in engine context at
// the delivery time.
type Handler func(*Msg)

// Output directions of a router, indexing the link table.
const (
	dirEast = iota
	dirWest
	dirSouth
	dirNorth
	numDirs
)

// Mesh is the 2D-mesh network fabric.
type Mesh struct {
	eng  *sim.Engine
	clk  *sim.Clock
	W, H int

	// handlers[tile][vn] consumes vn traffic delivered to tile.
	handlers [][NumVNs]Handler
	// linkFree[link(tile, dir, vn)] is when the output link of tile toward
	// dir next accepts a vn flit; 0 until first used. It is built at the
	// first Send: a serving replica's mesh may never carry a message.
	linkFree []sim.Time

	// deliverFn is the one delivery callback for the whole mesh; Send
	// schedules it with the message as the event argument, so injecting a
	// message allocates no per-message closure.
	deliverFn func(any)
}

// NewMesh builds a W x H mesh clocked by clk (the fast clock).
func NewMesh(eng *sim.Engine, clk *sim.Clock, w, h int) *Mesh {
	if w <= 0 || h <= 0 {
		panic("noc: bad mesh dimensions")
	}
	m := &Mesh{
		eng:      eng,
		clk:      clk,
		W:        w,
		H:        h,
		handlers: make([][NumVNs]Handler, w*h),
	}
	m.deliverFn = func(a any) { m.deliver(a.(*Msg)) }
	return m
}

// Tiles reports the number of tiles.
func (m *Mesh) Tiles() int { return m.W * m.H }

// Clock reports the mesh clock.
func (m *Mesh) Clock() *sim.Clock { return m.clk }

// XY reports the coordinates of tile id.
func (m *Mesh) XY(id int) (x, y int) { return id % m.W, id / m.W }

// TileAt reports the tile id at coordinates (x, y).
func (m *Mesh) TileAt(x, y int) int { return y*m.W + x }

// Register installs h as the consumer for vn traffic delivered to tile.
// Registering twice replaces the previous handler.
func (m *Mesh) Register(tile int, vn VN, h Handler) {
	if tile < 0 || tile >= m.Tiles() {
		panic(fmt.Sprintf("noc: register on bad tile %d", tile))
	}
	m.handlers[tile][vn] = h
}

// link indexes the link table: tile's output link toward dir, on vn.
func link(tile, dir int, vn VN) int { return (tile*numDirs+dir)*int(NumVNs) + int(vn) }

// flits reports the number of link flits for a payload of n bytes
// (one header flit plus payload flits).
func flits(n int) int64 {
	f := int64(1)
	f += int64((n + params.FlitBytes - 1) / params.FlitBytes)
	return f
}

// Send injects msg at the current time. Delivery is scheduled at the
// arrival time computed from the route, per-link serialization, and flit
// count. Messages between the same (src, dst, vn) never reorder.
func (m *Mesh) Send(msg *Msg) {
	if msg.Src < 0 || msg.Src >= m.Tiles() || msg.Dst < 0 || msg.Dst >= m.Tiles() {
		panic(fmt.Sprintf("noc: send %d->%d outside %dx%d mesh", msg.Src, msg.Dst, m.W, m.H))
	}
	if m.linkFree == nil {
		m.linkFree = make([]sim.Time, m.Tiles()*numDirs*int(NumVNs))
	}

	start := m.clk.NextEdge(m.eng.Now())
	t := start
	nf := flits(msg.Bytes)
	cur := msg.Src
	// Walk the XY route hop by hop without materializing the path: Send
	// is the per-message hot path.
	hop := func(dir, next int) {
		// Router pipeline at the current node.
		t += m.clk.Cycles(params.RouterCycles)
		// Acquire the outgoing link; serialize behind earlier traffic.
		lk := link(cur, dir, msg.VN)
		dep := max(t, m.linkFree[lk])
		m.linkFree[lk] = dep + m.clk.Cycles(nf*params.LinkCycles)
		// Head flit reaches the next node after one link traversal.
		t = dep + m.clk.Cycles(params.LinkCycles)
		cur = next
	}
	x, y := m.XY(msg.Src)
	dx, dy := m.XY(msg.Dst)
	for x != dx {
		if x < dx {
			x++
			hop(dirEast, m.TileAt(x, y))
		} else {
			x--
			hop(dirWest, m.TileAt(x, y))
		}
	}
	for y != dy {
		if y < dy {
			y++
			hop(dirSouth, m.TileAt(x, y))
		} else {
			y--
			hop(dirNorth, m.TileAt(x, y))
		}
	}
	if msg.Src == msg.Dst {
		// Local delivery still pays router + ejection.
		t += m.clk.Cycles(params.RouterCycles)
	} else {
		// The message is usable only once its tail flit arrives.
		t += m.clk.Cycles((nf - 1) * params.LinkCycles)
	}
	t += m.clk.Cycles(params.EjectCycles)

	msg.TX.Add(sim.CatNoC, t-start)
	m.eng.AtArg(t, m.deliverFn, msg)
}

func (m *Mesh) deliver(msg *Msg) {
	h := m.handlers[msg.Dst][msg.VN]
	if h == nil {
		panic(fmt.Sprintf("noc: no handler for %v at tile %d (msg from %d)", msg.VN, msg.Dst, msg.Src))
	}
	h(msg)
}
