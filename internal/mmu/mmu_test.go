package mmu

import (
	"testing"
	"testing/quick"
)

func TestPageTableTranslate(t *testing.T) {
	pt := NewPageTable()
	pt.Map(0x10123, 0x80456) // both addresses truncate to their page
	if ppn, ok := pt.Lookup(VPN(0x10000)); !ok || ppn != 0x80 {
		t.Fatalf("lookup = %#x, %v", ppn, ok)
	}
	if _, ok := pt.Lookup(VPN(0x20000)); ok {
		t.Fatal("unmapped page translated")
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4)
	if _, ok := tlb.Lookup(0x5000); ok {
		t.Fatal("hit in empty TLB")
	}
	tlb.Insert(VPN(0x5000), 0x99)
	pa, ok := tlb.Lookup(0x5678)
	if !ok || pa != 0x99*PageSize+0x678 {
		t.Fatalf("lookup = %#x, %v", pa, ok)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1, 11)
	tlb.Insert(2, 22)
	tlb.Lookup(1 * PageSize) // touch 1; 2 becomes LRU
	tlb.Insert(3, 33)
	if _, ok := tlb.Lookup(2 * PageSize); ok {
		t.Fatal("LRU entry survived")
	}
	if _, ok := tlb.Lookup(1 * PageSize); !ok {
		t.Fatal("MRU entry evicted")
	}
}

func TestTLBInvalidateFlush(t *testing.T) {
	tlb := NewTLB(8)
	tlb.Insert(7, 70)
	tlb.Insert(8, 80)
	tlb.Invalidate(7)
	if _, ok := tlb.Lookup(7 * PageSize); ok {
		t.Fatal("invalidate failed")
	}
	tlb.Flush()
	if tlb.Len() != 0 {
		t.Fatal("flush failed")
	}
}

func TestTLBUpdateInPlace(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(5, 50)
	tlb.Insert(5, 51)
	if tlb.Len() != 1 {
		t.Fatalf("duplicate vpn entries: %d", tlb.Len())
	}
	pa, _ := tlb.Lookup(5 * PageSize)
	if pa != 51*PageSize {
		t.Fatalf("stale ppn after update: %#x", pa)
	}
}

// Property: TLB agrees with the page table for every address whose page
// was inserted and not evicted.
func TestTLBConsistencyProperty(t *testing.T) {
	f := func(vpns []uint16) bool {
		pt := NewPageTable()
		tlb := NewTLB(64)
		for i, v := range vpns {
			if i >= 64 {
				break
			}
			va := uint64(v) * PageSize
			pa := uint64(i+1) * PageSize
			pt.Map(va, pa)
			ppn, _ := pt.Lookup(VPN(va))
			tlb.Insert(VPN(va), ppn)
		}
		for i, v := range vpns {
			if i >= 64 {
				break
			}
			va := uint64(v)*PageSize + 42
			ppn, ok1 := pt.Lookup(VPN(va))
			got, ok2 := tlb.Lookup(va)
			if ok1 != ok2 || (ok1 && ppn*PageSize+PageOff(va) != got) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
