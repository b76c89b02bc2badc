package mem

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestLineAddrOffset(t *testing.T) {
	if LineAddr(0x1237) != 0x1230 {
		t.Fatalf("LineAddr = %#x", LineAddr(0x1237))
	}
	if Offset(0x1237) != 7 {
		t.Fatalf("Offset = %d", Offset(0x1237))
	}
}

func TestReadWrite64(t *testing.T) {
	m := New()
	m.Write64(0x1000, 0xdeadbeefcafef00d)
	if v := binary.LittleEndian.Uint64(m.Read(0x1000, 8)); v != 0xdeadbeefcafef00d {
		t.Fatalf("Read(8) = %#x", v)
	}
	if v := binary.LittleEndian.Uint64(m.Read(0x1008, 8)); v != 0 {
		t.Fatalf("unwritten read = %#x", v)
	}
	m.Write32(0x2004, 0x12345678)
	if v := binary.LittleEndian.Uint32(m.Read(0x2004, 4)); v != 0x12345678 {
		t.Fatalf("Read(4) = %#x", v)
	}
}

func TestLineRoundTrip(t *testing.T) {
	m := New()
	var l Line
	for i := range l {
		l[i] = byte(i * 3)
	}
	m.WriteLine(0x40, l)
	got := m.ReadLine(0x4f) // any address within the line
	if got != l {
		t.Fatalf("line mismatch: %v vs %v", got, l)
	}
}

func TestPartialWriteMergesIntoLine(t *testing.T) {
	m := New()
	m.Write64(0x100, 0x1111111111111111)
	m.Write64(0x108, 0x2222222222222222)
	m.Write(0x104, []byte{0xaa, 0xbb})
	l := m.ReadLine(0x100)
	if l[4] != 0xaa || l[5] != 0xbb || l[0] != 0x11 || l[8] != 0x22 {
		t.Fatalf("merge failed: %v", l)
	}
}

func TestCrossLinePanics(t *testing.T) {
	m := New()
	defer func() {
		if recover() == nil {
			t.Fatal("line-crossing access did not panic")
		}
	}()
	m.Read(0x10a, 8) // crosses 0x110
}

func TestPropertyWriteReadBack(t *testing.T) {
	m := New()
	f := func(addrRaw uint32, v uint64) bool {
		addr := uint64(addrRaw) &^ 7 // 8-byte aligned
		m.Write64(addr, v)
		return binary.LittleEndian.Uint64(m.Read(addr, 8)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
