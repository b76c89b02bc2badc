// Tests for the MMIO address map contracts: the disjointness of the
// per-adapter sub-windows that core's encoders (core.SoftRegAddr,
// core.HubSwitchAddr, core.TLBRegAddr) produce, and the device-side
// decode of in-range, out-of-range and unknown addresses. The System
// router that steers requests to the owning adapter's control-hub tile
// is tested in the root package (TestRouterSteersToOwningAdapter).
package mmio_test

import (
	"testing"

	"duet"
	"duet/internal/core"
	"duet/internal/cpu"
)

// TestWindowLayoutDisjoint: the manager, feature-switch, TLB and soft
// register sub-windows must tile the adapter window without overlap for
// every in-range index, and the helper arithmetic must stay inside the
// adapter stride (no silent bleed into the next adapter's window).
func TestWindowLayoutDisjoint(t *testing.T) {
	switchBase := core.HubSwitchAddr(0, 0, 0) - core.BaseAddr(0) // 0x1000
	tlbBase := core.TLBRegAddr(0, 0, 0) - core.BaseAddr(0)       // 0x4000
	softBase := core.SoftRegAddr(0, 0) - core.BaseAddr(0)        // 0x8000
	if switchBase != 0x1000 || tlbBase != 0x4000 || softBase != 0x8000 {
		t.Fatalf("window bases = %#x %#x %#x", switchBase, tlbBase, softBase)
	}

	// Manager registers live below the switch window.
	for _, reg := range []uint64{core.RegCtrl, core.RegClkKHz, core.RegProgram, core.RegStatus, core.RegTimeout} {
		if off := duet.MgrRegAddr(reg) - core.BaseAddr(0); off >= switchBase {
			t.Fatalf("mgr reg %#x lands at %#x inside the switch window", reg, off)
		}
	}

	// Feature switches: 0x100 per hub; hubs 0..47 stay below the TLB
	// window. Hub 48 is the documented aliasing boundary: its switch
	// address IS the TLB window base, which is why the decoder bounds the
	// hub index against the configured hub count.
	for hub := 0; hub < 48; hub++ {
		if a := core.HubSwitchAddr(0, hub, core.SwWriteAlloc); a >= core.TLBRegAddr(0, 0, 0) {
			t.Fatalf("hub %d switch window reaches the TLB window (%#x)", hub, a)
		}
	}
	if core.HubSwitchAddr(0, 48, 0) != core.TLBRegAddr(0, 0, 0) {
		t.Fatal("hub-48 switch address no longer marks the TLB window boundary")
	}

	// TLB windows: hubs 0..63 stay below the soft registers; hub 64 is
	// that boundary's alias.
	for hub := 0; hub < 64; hub++ {
		if a := core.TLBRegAddr(0, hub, core.TLBFlush); a >= core.SoftRegAddr(0, 0) {
			t.Fatalf("hub %d TLB window reaches the soft registers (%#x)", hub, a)
		}
	}
	if core.TLBRegAddr(0, 64, 0) != core.SoftRegAddr(0, 0) {
		t.Fatal("hub-64 TLB address no longer marks the soft-register boundary")
	}

	// Soft registers fill the rest of the stride; the largest in-window
	// index must not reach adapter 1's base.
	maxReg := int((core.AdapterStride - softBase) / 8)
	if a := core.SoftRegAddr(0, maxReg-1); a >= core.BaseAddr(1) {
		t.Fatalf("soft reg %d bleeds into adapter 1 (%#x)", maxReg-1, a)
	}
	if a := core.SoftRegAddr(0, maxReg); a != core.BaseAddr(1) {
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
		{"RegTimeout", duet.MgrRegAddr(core.RegTimeout), 7777, 7777},
		{"RegClkKHz", duet.MgrRegAddr(core.RegClkKHz), 250000, 250000},
		{"SwAtomics", core.HubSwitchAddr(0, 0, core.SwAtomics), 1, 1},
		{"SwVirtMode", core.HubSwitchAddr(0, 0, core.SwVirtMode), 1, 1},
		{"SwEnable", core.HubSwitchAddr(0, 0, core.SwEnable), 1, 1},
		{"TLBVPN", core.TLBRegAddr(0, 0, core.TLBVPN), 0x123, 0x123},
		{"TLBPPN", core.TLBRegAddr(0, 0, core.TLBPPN), 0x456, 0x456},
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
		{"switch on absent hub 1", core.HubSwitchAddr(0, 1, core.SwEnable)},
		{"TLB on absent hub 1", core.TLBRegAddr(0, 1, core.TLBVPN)},
		{"unknown switch offset", core.HubSwitchAddr(0, 0, 0x28)},
		{"unknown TLB offset", core.TLBRegAddr(0, 0, 0x38)},
		{"unknown mgr offset", duet.MgrRegAddr(0x28)},
		{"read of RegProgram", duet.MgrRegAddr(core.RegProgram)},
	}
	results := map[string]uint64{}
	var after uint64
	done := false
	sys.Cores[0].Run("host", func(p cpu.Proc) {
		for _, pr := range probes {
			results[pr.name] = p.MMIORead64(pr.addr)
		}
		// The control hub must still decode real registers afterwards.
		p.MMIOWrite64(duet.MgrRegAddr(core.RegTimeout), 4242)
		after = p.MMIORead64(duet.MgrRegAddr(core.RegTimeout))
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
