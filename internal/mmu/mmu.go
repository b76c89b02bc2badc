// Package mmu provides memory protection and virtualization for the Duet
// Memory Hubs (paper §II-D): a software-managed page table and the
// per-hub TLB. Application-specific fine-grained accelerators are
// restricted to virtual addresses; a TLB miss interrupts a processor,
// whose kernel handler either installs the translation over MMIO or kills
// the accelerator.
package mmu

// PageSize is the virtual memory page size.
const PageSize = 4096

// VPN returns the virtual page number of va.
func VPN(va uint64) uint64 { return va / PageSize }

// PageOff returns the offset of va within its page.
func PageOff(va uint64) uint64 { return va % PageSize }

// PageTable is the kernel's software page table (VPN -> PPN).
type PageTable struct {
	pages map[uint64]uint64
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable {
	return &PageTable{pages: make(map[uint64]uint64)}
}

// Map installs a translation for the page containing va to the page
// containing pa.
func (pt *PageTable) Map(va, pa uint64) {
	pt.pages[VPN(va)] = pa / PageSize
}

// Lookup returns the PPN for a VPN, if mapped.
func (pt *PageTable) Lookup(vpn uint64) (uint64, bool) {
	ppn, ok := pt.pages[vpn]
	return ppn, ok
}

type tlbEntry struct {
	vpn, ppn uint64
	stamp    uint64
}

// TLB is a small, fully-associative, LRU translation look-aside buffer.
type TLB struct {
	capacity int
	entries  []tlbEntry
	stamp    uint64
}

// NewTLB returns a TLB holding up to capacity translations.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		capacity = 16
	}
	return &TLB{capacity: capacity}
}

// Lookup translates va; ok reports a hit.
func (t *TLB) Lookup(va uint64) (pa uint64, ok bool) {
	vpn := VPN(va)
	for i := range t.entries {
		if t.entries[i].vpn == vpn {
			t.stamp++
			t.entries[i].stamp = t.stamp
			return t.entries[i].ppn*PageSize + PageOff(va), true
		}
	}
	return 0, false
}

// Insert installs a translation, evicting the LRU entry if full.
func (t *TLB) Insert(vpn, ppn uint64) {
	t.stamp++
	for i := range t.entries {
		if t.entries[i].vpn == vpn {
			t.entries[i].ppn = ppn
			t.entries[i].stamp = t.stamp
			return
		}
	}
	if len(t.entries) < t.capacity {
		t.entries = append(t.entries, tlbEntry{vpn, ppn, t.stamp})
		return
	}
	lru := 0
	for i := range t.entries {
		if t.entries[i].stamp < t.entries[lru].stamp {
			lru = i
		}
	}
	t.entries[lru] = tlbEntry{vpn, ppn, t.stamp}
}

// Invalidate removes the translation for vpn, if present.
func (t *TLB) Invalidate(vpn uint64) {
	for i := range t.entries {
		if t.entries[i].vpn == vpn {
			t.entries[i] = t.entries[len(t.entries)-1]
			t.entries = t.entries[:len(t.entries)-1]
			return
		}
	}
}

// Flush removes all translations.
func (t *TLB) Flush() { t.entries = t.entries[:0] }

// Len reports the number of live entries.
func (t *TLB) Len() int { return len(t.entries) }
