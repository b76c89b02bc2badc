package noc

import "testing"

// BenchmarkNoCDelivery measures one message crossing a 4×4 mesh corner
// to corner (six hops) to the handler registered at its destination: the
// route walk, per-link serialization, the delivery event and the handler
// call. The message record is reused, as the coherence layer's pools do,
// so the acceptance bar is 0 allocs/op.
func BenchmarkNoCDelivery(b *testing.B) {
	eng, m := mesh(4, 4)
	delivered := 0
	m.Register(15, VNData, func(*Msg) { delivered++ })
	msg := &Msg{Src: 0, Dst: 15, VN: VNData, Bytes: 64}
	send := func() {
		m.Send(msg)
		eng.Run(0)
	}
	send() // build the link table before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
	}
	b.StopTimer()
	if delivered != b.N+1 {
		b.Fatalf("delivered %d of %d messages", delivered, b.N+1)
	}
}
