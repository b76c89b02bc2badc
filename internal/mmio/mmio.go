// Package mmio defines the memory-mapped I/O messages exchanged between
// processor cores and on-chip devices (the Duet Control Hubs, TLB windows,
// and feature-switch registers) over the NoC's MMIO virtual networks.
//
// Each MMIO operation blocks its core until the response arrives — the
// strict I/O ordering model whose cost the Shadow Registers attack (paper
// §II-F). A core has more than one operation outstanding only when an
// interrupt handler issues MMIO while the core is stalled on its own.
package mmio

import (
	"duet/internal/noc"
	"duet/internal/sim"
)

// Req is a core→device MMIO request.
type Req struct {
	Addr    uint64
	Write   bool
	Size    int // 4 or 8
	Data    uint64
	SrcTile int
}

// Resp is a device→core MMIO response.
type Resp struct {
	Data uint64
	Err  bool // device deactivated / bad address: bogus data returned
}

// Msg is one MMIO round trip in one record: the core fills Req and sends
// Env to the device, and the device fills Resp and sends the same Env
// back (Reply). The issuing core owns the record: it recycles it once it
// has read the response, so a device must not keep the record after
// replying.
type Msg struct {
	Req  Req
	Resp Resp
	Done bool // the response has reached the core

	Env noc.Msg // the network envelope, carrying the record itself
}

// Request addresses m's envelope to the device at tile dst.
func (m *Msg) Request(dst int, tx *sim.TX) *noc.Msg {
	m.Env = noc.Msg{Src: m.Req.SrcTile, Dst: dst, VN: noc.VNMMIOReq, Bytes: ReqBytes, Payload: m, TX: tx}
	return &m.Env
}

// Reply fills m's response and readdresses its envelope from the device at
// tile src back to the requesting core, keeping the request's TX tag.
func (m *Msg) Reply(src int, data uint64, err bool) *noc.Msg {
	m.Resp = Resp{Data: data, Err: err}
	m.Env = noc.Msg{Src: src, Dst: m.Req.SrcTile, VN: noc.VNMMIOResp, Bytes: RespBytes, Payload: m, TX: m.Env.TX}
	return &m.Env
}

// Payload sizes for NoC serialization.
const (
	ReqBytes  = 16
	RespBytes = 12
)

// Router maps an MMIO address to the NoC tile of the owning device. The
// boolean reports whether any device claims the address.
type Router func(addr uint64) (tile int, ok bool)
