// Package coherence implements the directory-based MESI cache-coherence
// system modelled after OpenPiton's P-Mesh (paper §IV): private write-back
// caches (used for the CPU L2, the Duet Proxy Cache, and the slow-cache
// baselines) and distributed, inclusive L3 home shards that serialize
// transactions per line.
//
// Protocol summary:
//
//   - VN1 carries cache→home requests (ReqLoad, ReqStore, ReqWB, ReqAmo,
//     ReqWT). The home processes one transaction per line at a time;
//     conflicting requests queue at the home.
//   - VN2 carries home→cache grants, forwards (FwdInv, FwdDowngrade) and
//     write-back acks. Sharing one ordered channel for grants and forwards
//     gives each cache a consistent view of home decisions.
//   - VN3 carries cache→home data returns and invalidation acks.
//
// Evictions are transactional (ReqWB / WBAck) so the directory stays
// exact; the classic forward-during-writeback race is resolved by serving
// forwards from the write-back buffer and letting the home reject the
// stale write-back (WBStale).
package coherence

import (
	"duet/internal/mem"
	"duet/internal/noc"
	"duet/internal/sim"
)

// Private-cache line states (MESI).
const (
	StateI = iota
	StateS
	StateE
	StateM
)

// StateName returns a short name for a MESI state.
func StateName(s int) string {
	switch s {
	case StateI:
		return "I"
	case StateS:
		return "S"
	case StateE:
		return "E"
	case StateM:
		return "M"
	}
	return "?"
}

// ReqType enumerates cache→home request types.
type ReqType int

// Request types.
const (
	ReqLoad  ReqType = iota // read miss: wants S (or E if sole)
	ReqStore                // write miss or upgrade: wants M
	ReqWB                   // eviction write-back (also for clean/S lines)
	ReqAmo                  // atomic operation, executed at the home
	ReqWT                   // write-through store (write-no-allocate mode)
)

func (r ReqType) String() string {
	return [...]string{"Load", "Store", "WB", "Amo", "WT"}[r]
}

// AmoOp enumerates home-side atomic operations.
type AmoOp int

// Atomic operations (modelled after RISC-V AMOs plus CAS for convenience).
const (
	AmoSwap AmoOp = iota
	AmoAdd
	AmoAnd
	AmoOr
	AmoCAS // Operand = expected, Operand2 = desired
)

func (o AmoOp) String() string {
	return [...]string{"swap", "add", "and", "or", "cas"}[o]
}

// ReqMsg is a cache→home request (VN1).
type ReqMsg struct {
	Type    ReqType
	Line    uint64 // line-aligned physical address
	CacheID int

	// Write-back payload.
	Data  mem.Line
	Dirty bool

	// Amo / WT payload.
	Addr     uint64 // full address within Line
	Size     int    // 4 or 8
	Bytes    []byte // WT store data
	Operand  uint64
	Operand2 uint64
	Op       AmoOp

	msg noc.Msg // the network envelope carrying this request
}

// FwdType enumerates home→cache forward types.
type FwdType int

// Forward types.
const (
	FwdInv       FwdType = iota // invalidate; return data if dirty
	FwdDowngrade                // M/E -> S; return data
)

func (f FwdType) String() string {
	if f == FwdInv {
		return "Inv"
	}
	return "Downgrade"
}

// FwdMsg is a home→cache forward (VN2). To identifies the target cache
// for tiles hosting more than one cache.
type FwdMsg struct {
	Type FwdType
	Line uint64
	To   int

	msg noc.Msg // the network envelope; its TX travels to the handler
}

// RespKind enumerates home→cache response kinds.
type RespKind int

// Response kinds.
const (
	RespData    RespKind = iota // grant for Load/Store with line data
	RespWBAck                   // write-back accepted
	RespWBStale                 // write-back rejected (requester no longer in directory)
	RespAmo                     // atomic result (old value)
	RespWTAck                   // write-through accepted (with updated line)
)

func (k RespKind) String() string {
	return [...]string{"Data", "WBAck", "WBStale", "Amo", "WTAck"}[k]
}

// RespMsg is a home→cache response (VN2). To identifies the target cache.
type RespMsg struct {
	Kind  RespKind
	Line  uint64
	Grant int // granted MESI state for RespData
	Data  mem.Line
	Old   [8]byte // AMO old value (little-endian, Size bytes valid)
	To    int

	msg noc.Msg // the network envelope; its TX travels to the handler
}

// AckMsg is a cache→home forward acknowledgement (VN3).
type AckMsg struct {
	Line    uint64
	CacheID int
	Present bool // the cache (or its WB buffer) held the line
	Dirty   bool // Data carries modified content
	FromWB  bool // served from the write-back buffer: drop sender from directory
	Data    mem.Line

	msg noc.Msg // the network envelope carrying this ack
}

// msgPool recycles one Domain's protocol messages. Every message embeds
// the noc.Msg that carries it, so a recycled message costs no allocation
// at all. A message goes back to its list at the one point where its last
// reader is done with it, and nothing may keep its pointer past that
// point (Put zeroes the record, so a late reader sees line 0 and no data):
//
//   - a ReqMsg in Home.done, once its transaction ends;
//   - an AckMsg in Home.releaseAcks, once the phase its awaitAcks wait
//     goes on with has read it;
//   - a RespMsg or FwdMsg once its PCache handler is finished with it.
type msgPool struct {
	reqs  sim.FreeList[ReqMsg]
	resps sim.FreeList[RespMsg]
	fwds  sim.FreeList[FwdMsg]
	acks  sim.FreeList[AckMsg]
}

// Message payload sizes in bytes, used for NoC serialization.
const (
	reqHdrBytes  = 8
	respHdrBytes = 8
	lineBytes    = mem.LineBytes
)

// ReqBytes reports the NoC payload size of a request.
func ReqBytes(r *ReqMsg) int {
	switch r.Type {
	case ReqWB:
		if r.Dirty {
			return reqHdrBytes + lineBytes
		}
		return reqHdrBytes
	case ReqWT:
		return reqHdrBytes + len(r.Bytes)
	case ReqAmo:
		return reqHdrBytes + 16
	default:
		return reqHdrBytes
	}
}

// RespBytes reports the NoC payload size of a response.
func RespBytes(m *RespMsg) int {
	switch m.Kind {
	case RespData, RespWTAck:
		return respHdrBytes + lineBytes
	case RespAmo:
		return respHdrBytes + 8
	default:
		return respHdrBytes
	}
}

// AckBytes reports the NoC payload size of an ack.
func AckBytes(a *AckMsg) int {
	if a.Present && (a.Dirty || a.FromWB) {
		return respHdrBytes + lineBytes
	}
	return respHdrBytes
}

// FwdBytes is the NoC payload size of a forward.
const FwdBytes = 8
