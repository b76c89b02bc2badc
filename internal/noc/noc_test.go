package noc

import (
	"testing"
	"testing/quick"

	"duet/internal/params"
	"duet/internal/sim"
)

func mesh(w, h int) (*sim.Engine, *Mesh) {
	eng := sim.NewEngine()
	clk := sim.NewClock("fast", params.CPUClockPS)
	return eng, NewMesh(eng, clk, w, h)
}

func TestRouteXY(t *testing.T) {
	_, m := mesh(4, 4)
	// From (0,0)=0 to (2,1)=6: X first -> 1, 2, then Y -> 6.
	path := m.route(0, 6)
	want := []int{1, 2, 6}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if m.Hops(0, 6) != 3 {
		t.Fatalf("hops = %d", m.Hops(0, 6))
	}
	if m.Hops(5, 5) != 0 {
		t.Fatal("self hops != 0")
	}
}

func TestDeliveryLatency(t *testing.T) {
	eng, m := mesh(2, 1)
	var at sim.Time
	m.Register(1, VNReq, func(msg *Msg) { at = eng.Now() })
	eng.At(0, func() {
		m.Send(&Msg{Src: 0, Dst: 1, VN: VNReq, Bytes: 8})
	})
	eng.Run(0)
	// 1 hop, 8B payload = 2 flits: router(2) + link(1) + tail(1) + eject(1)
	// = 5 cycles = 5ns.
	want := sim.Time(5 * params.CPUClockPS)
	if at != want {
		t.Fatalf("1-hop latency = %v, want %v", at, want)
	}
}

func TestLocalDelivery(t *testing.T) {
	eng, m := mesh(2, 2)
	var at sim.Time
	m.Register(0, VNFwd, func(msg *Msg) { at = eng.Now() })
	eng.At(0, func() { m.Send(&Msg{Src: 0, Dst: 0, VN: VNFwd, Bytes: 8}) })
	eng.Run(0)
	want := sim.Time((params.RouterCycles + params.EjectCycles) * params.CPUClockPS)
	if at != want {
		t.Fatalf("local latency = %v, want %v", at, want)
	}
}

func TestPointToPointOrdering(t *testing.T) {
	eng, m := mesh(4, 1)
	var got []int
	m.Register(3, VNFwd, func(msg *Msg) { got = append(got, msg.Payload.(int)) })
	eng.At(0, func() {
		for i := 0; i < 10; i++ {
			m.Send(&Msg{Src: 0, Dst: 3, VN: VNFwd, Bytes: 24, Payload: i})
		}
	})
	eng.Run(0)
	if len(got) != 10 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered: %v", got)
		}
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	// Two messages injected at the same time over the same link must be
	// serialized; a big payload delays the second message.
	eng, m := mesh(2, 1)
	var times []sim.Time
	m.Register(1, VNData, func(msg *Msg) { times = append(times, eng.Now()) })
	eng.At(0, func() {
		m.Send(&Msg{Src: 0, Dst: 1, VN: VNData, Bytes: 64}) // 1+4 flits
		m.Send(&Msg{Src: 0, Dst: 1, VN: VNData, Bytes: 8})
	})
	eng.Run(0)
	if len(times) != 2 {
		t.Fatal("lost message")
	}
	if times[1] <= times[0] {
		t.Fatalf("no serialization: %v", times)
	}
	// First (64B = 5 flits) delivered at 2+1+4+1 = 8ns; second (8B = 2
	// flits) waits for the link until 7ns, delivered at 7+1+1+1 = 10ns.
	if d := times[1] - times[0]; d != 2*params.CPUClockPS {
		t.Fatalf("serialization gap = %v, want 2ns", d)
	}
}

func TestVNsDoNotInterfere(t *testing.T) {
	eng, m := mesh(2, 1)
	var reqAt, fwdAt sim.Time
	m.Register(1, VNReq, func(msg *Msg) { reqAt = eng.Now() })
	m.Register(1, VNFwd, func(msg *Msg) { fwdAt = eng.Now() })
	eng.At(0, func() {
		m.Send(&Msg{Src: 0, Dst: 1, VN: VNReq, Bytes: 512}) // hog VNReq link
		m.Send(&Msg{Src: 0, Dst: 1, VN: VNFwd, Bytes: 8})
	})
	eng.Run(0)
	if fwdAt >= reqAt {
		t.Fatalf("VNFwd blocked behind VNReq: req=%v fwd=%v", reqAt, fwdAt)
	}
}

func TestTXAttribution(t *testing.T) {
	eng, m := mesh(4, 1)
	tx := new(sim.TX)
	m.Register(3, VNReq, func(msg *Msg) {})
	eng.At(0, func() { m.Send(&Msg{Src: 0, Dst: 3, VN: VNReq, Bytes: 8, TX: tx}) })
	eng.Run(0)
	// 3 hops * (2+1) + tail 1 + eject 1 = 11 cycles.
	if tx.Parts[sim.CatNoC] != 11*params.CPUClockPS {
		t.Fatalf("NoC attribution = %v", tx.Parts[sim.CatNoC])
	}
}

// Property: XY routing visits Hops(src,dst) tiles and delivery latency is
// monotone in hop count for equal payloads; ordering holds per (src,dst,vn)
// for random message streams.
func TestPropertyOrderingRandomStreams(t *testing.T) {
	f := func(seed uint8) bool {
		eng, m := mesh(4, 4)
		type key struct{ src, dst int }
		got := map[key][]int{}
		for d := 0; d < 16; d++ {
			d := d
			m.Register(d, VNReq, func(msg *Msg) {
				k := key{msg.Src, d}
				got[k] = append(got[k], msg.Payload.(int))
			})
		}
		// Deterministic pseudo-random streams from a seed.
		x := uint32(seed) + 1
		next := func(mod int) int {
			x = x*1664525 + 1013904223
			return int(x>>16) % mod
		}
		// Sequence numbers are assigned at send time, so per-key sequences
		// are injected in increasing order regardless of event scheduling.
		sent := map[key]int{}
		for i := 0; i < 200; i++ {
			src, dst := next(16), next(16)
			at := sim.Time(next(50)) * sim.NS
			bytes := 8 + next(32)
			eng.At(at, func() {
				k := key{src, dst}
				seqv := sent[k]
				sent[k]++
				m.Send(&Msg{Src: src, Dst: dst, VN: VNReq, Bytes: bytes, Payload: seqv})
			})
		}
		eng.Run(0)
		for k, vs := range got {
			if len(vs) != sent[k] {
				return false
			}
			for i, v := range vs {
				if v != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
