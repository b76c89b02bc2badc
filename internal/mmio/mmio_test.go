// Tests for the MMIO address map contracts: the System router that
// steers requests to the owning adapter's control-hub tile, the
// "device driver" address helpers (SoftRegAddrOn, HubSwitchAddrOn,
// MgrRegAddrOn, TLBRegAddr), the disjointness of the per-adapter
// sub-windows, and the device-side decode of in-range, out-of-range and
// unknown addresses.
package mmio_test

import (
	"testing"

	"duet"
	"duet/internal/core"
	"duet/internal/cpu"
	"duet/internal/params"
)

// TestRouterSteersToOwningAdapter: every helper-produced address of
// adapter a must route to adapter a's control-hub tile, and addresses
// outside every window must be unclaimed.
func TestRouterSteersToOwningAdapter(t *testing.T) {
	sys := duet.New(duet.Config{Cores: 2, MemHubs: 2, EFPGAs: 2, Style: duet.StyleDuet})
	route := sys.MMIORouter()
	if route == nil {
		t.Fatal("no router on an eFPGA system")
	}
	inWindow := func(a int, addr uint64) bool {
		return addr >= core.BaseAddr(a) && addr < core.BaseAddr(a)+core.AdapterStride
	}
	for a, ad := range sys.Adapters {
		want := ad.CtrlTile()
		addrs := map[string]uint64{
			"soft reg":   duet.SoftRegAddrOn(a, 5),
			"hub switch": duet.HubSwitchAddrOn(a, 1, core.SwAtomics),
			"mgr reg":    duet.MgrRegAddrOn(a, core.RegStatus),
			"base":       core.BaseAddr(a),
		}
		for what, addr := range addrs {
			tile, ok := route(addr)
			if !ok || tile != want {
				t.Fatalf("adapter %d %s %#x routed to (%d,%v), want tile %d", a, what, addr, tile, ok, want)
			}
			if !inWindow(a, addr) {
				t.Fatalf("adapter %d's %s address %#x is outside its window", a, what, addr)
			}
			if inWindow(1-a, addr) {
				t.Fatalf("adapter %d's window holds adapter %d's %s address %#x", 1-a, a, what, addr)
			}
		}
	}
	// TLBRegAddr is the adapter-0 helper.
	if tile, ok := route(duet.TLBRegAddr(1, core.TLBVPN)); !ok || tile != sys.Adapters[0].CtrlTile() {
		t.Fatalf("TLB window routed to (%d,%v)", tile, ok)
	}

	// Out of range: below the MMIO base, address zero, and one adapter
	// past the last configured window.
	for _, addr := range []uint64{0, params.MMIOBase - 8, core.BaseAddr(2)} {
		if tile, ok := route(addr); ok {
			t.Fatalf("unclaimed address %#x routed to tile %d", addr, tile)
		}
	}

	// CPU-only systems expose no MMIO devices at all.
	if r := duet.New(duet.Config{Cores: 1, Style: duet.StyleCPUOnly}).MMIORouter(); r != nil {
		t.Fatal("CPU-only system has a router")
	}
}

// TestWindowLayoutDisjoint: the manager, feature-switch, TLB and soft
// register sub-windows must tile the adapter window without overlap for
// every in-range index, and the helper arithmetic must stay inside the
// adapter stride (no silent bleed into the next adapter's window).
func TestWindowLayoutDisjoint(t *testing.T) {
	switchBase := duet.HubSwitchAddrOn(0, 0, 0) - core.BaseAddr(0) // 0x1000
	tlbBase := duet.TLBRegAddr(0, 0) - core.BaseAddr(0)            // 0x4000
	softBase := duet.SoftRegAddrOn(0, 0) - core.BaseAddr(0)        // 0x8000
	if switchBase != 0x1000 || tlbBase != 0x4000 || softBase != 0x8000 {
		t.Fatalf("window bases = %#x %#x %#x", switchBase, tlbBase, softBase)
	}

	// Manager registers live below the switch window.
	for _, reg := range []uint64{core.RegCtrl, core.RegClkKHz, core.RegProgram, core.RegStatus, core.RegTimeout} {
		if off := duet.MgrRegAddrOn(0, reg) - core.BaseAddr(0); off >= switchBase {
			t.Fatalf("mgr reg %#x lands at %#x inside the switch window", reg, off)
		}
	}

	// Feature switches: 0x100 per hub; hubs 0..47 stay below the TLB
	// window. Hub 48 is the documented aliasing boundary: its switch
	// address IS the TLB window base, which is why the decoder bounds the
	// hub index against the configured hub count.
	for hub := 0; hub < 48; hub++ {
		if a := duet.HubSwitchAddrOn(0, hub, core.SwWriteAlloc); a >= duet.TLBRegAddr(0, 0) {
			t.Fatalf("hub %d switch window reaches the TLB window (%#x)", hub, a)
		}
	}
	if duet.HubSwitchAddrOn(0, 48, 0) != duet.TLBRegAddr(0, 0) {
		t.Fatal("hub-48 switch address no longer marks the TLB window boundary")
	}

	// TLB windows: hubs 0..63 stay below the soft registers; hub 64 is
	// that boundary's alias.
	for hub := 0; hub < 64; hub++ {
		if a := duet.TLBRegAddr(hub, core.TLBFlush); a >= duet.SoftRegAddr(0) {
			t.Fatalf("hub %d TLB window reaches the soft registers (%#x)", hub, a)
		}
	}
	if duet.TLBRegAddr(64, 0) != duet.SoftRegAddr(0) {
		t.Fatal("hub-64 TLB address no longer marks the soft-register boundary")
	}

	// Soft registers fill the rest of the stride; the largest in-window
	// index must not reach adapter 1's base.
	maxReg := int((core.AdapterStride - softBase) / 8)
	if a := duet.SoftRegAddrOn(0, maxReg-1); a >= core.BaseAddr(1) {
		t.Fatalf("soft reg %d bleeds into adapter 1 (%#x)", maxReg-1, a)
	}
	if a := duet.SoftRegAddrOn(0, maxReg); a != core.BaseAddr(1) {
		t.Fatalf("soft reg %d = %#x, want adapter 1's base (boundary shifted)", maxReg, a)
	}
}

// TestDecodeRoundTrips: in-range device registers must read back what
// was written, through the full core -> NoC -> control-hub decode path.
func TestDecodeRoundTrips(t *testing.T) {
	sys := duet.New(duet.Config{Cores: 1, MemHubs: 1, Style: duet.StyleDuet})
	type rt struct {
		name        string
		addr        uint64
		write, want uint64
	}
	var got []uint64
	cases := []rt{
		{"RegTimeout", duet.MgrRegAddrOn(0, core.RegTimeout), 7777, 7777},
		{"RegClkKHz", duet.MgrRegAddrOn(0, core.RegClkKHz), 250000, 250000},
		{"SwAtomics", duet.HubSwitchAddrOn(0, 0, core.SwAtomics), 1, 1},
		{"SwVirtMode", duet.HubSwitchAddrOn(0, 0, core.SwVirtMode), 1, 1},
		{"SwEnable", duet.HubSwitchAddrOn(0, 0, core.SwEnable), 1, 1},
		{"TLBVPN", duet.TLBRegAddr(0, core.TLBVPN), 0x123, 0x123},
		{"TLBPPN", duet.TLBRegAddr(0, core.TLBPPN), 0x456, 0x456},
	}
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		for _, c := range cases {
			p.MMIOWrite64(c.addr, c.write)
			got = append(got, p.MMIORead64(c.addr))
		}
	})
	sys.Run()
	for i, c := range cases {
		if got[i] != c.want {
			t.Fatalf("%s round trip = %d, want %d", c.name, got[i], c.want)
		}
	}
	if mhz := sys.Fabric.Clock().FreqMHz(); mhz != 250 {
		t.Fatalf("RegClkKHz write left the fabric at %v MHz, want 250", mhz)
	}
}

// TestDecodeOutOfRange: reads of unknown offsets, write-only registers,
// and hub indices past the configured hub count must complete with bogus
// data (the paper's never-halt-the-processor rule) without latching an
// exception or wedging the control hub.
func TestDecodeOutOfRange(t *testing.T) {
	sys := duet.New(duet.Config{Cores: 1, MemHubs: 1, Style: duet.StyleDuet})
	probes := []struct {
		name string
		addr uint64
	}{
		{"switch on absent hub 1", duet.HubSwitchAddrOn(0, 1, core.SwEnable)},
		{"TLB on absent hub 1", duet.TLBRegAddr(1, core.TLBVPN)},
		{"unknown switch offset", duet.HubSwitchAddrOn(0, 0, 0x28)},
		{"unknown TLB offset", duet.TLBRegAddr(0, 0x38)},
		{"unknown mgr offset", duet.MgrRegAddrOn(0, 0x28)},
		{"read of RegProgram", duet.MgrRegAddrOn(0, core.RegProgram)},
	}
	results := map[string]uint64{}
	var after uint64
	done := false
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		for _, pr := range probes {
			results[pr.name] = p.MMIORead64(pr.addr)
		}
		// The control hub must still decode real registers afterwards.
		p.MMIOWrite64(duet.MgrRegAddrOn(0, core.RegTimeout), 4242)
		after = p.MMIORead64(duet.MgrRegAddrOn(0, core.RegTimeout))
		done = true
	})
	sys.Run()
	if !done {
		t.Fatal("host wedged on an out-of-range access")
	}
	for name, v := range results {
		if v != 0 {
			t.Fatalf("%s returned %#x, want bogus 0", name, v)
		}
	}
	if after != 4242 {
		t.Fatalf("control hub broken after bad accesses: timeout reads %d", after)
	}
	if code := sys.Adapter.ErrCode(); code != core.ErrNone {
		t.Fatalf("bad addresses latched error %d; decode errors are not device exceptions", code)
	}
}
