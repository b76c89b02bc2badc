package coherence

import (
	"fmt"
	"strings"
	"testing"

	"duet/internal/noc"
)

// mustPanic runs fn and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one naming %q", msg, want)
		}
	}()
	fn()
}

// TestAttachContract: a domain takes caches in strictly ascending ID
// order, at most MaxCaches of them, so slot order is ID order and every
// slot has a directory bit.
func TestAttachContract(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  []int
		want string
	}{
		{"duplicate ID", []int{0, 3, 3}, "cache ID 3 attached after cache ID 3"},
		{"descending ID", []int{0, 1000, 7}, "cache ID 7 attached after cache ID 1000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mustPanic(t, tc.want, func() { newRigLayout(t, tc.ids, tc.ids) })
		})
	}
	t.Run("too many caches", func(t *testing.T) {
		ids := make([]int, MaxCaches+1)
		for i := range ids {
			ids[i] = 10 * i
		}
		r := newRigLayout(t, ids[:MaxCaches], ids)
		if n := len(r.dom.caches); n != MaxCaches {
			t.Fatalf("attached %d caches, want %d", n, MaxCaches)
		}
		mustPanic(t, "cache 640 would be cache 65 of a domain that holds 64", func() { newRigLayout(t, ids, ids) })
	})
}

// TestVN2ForeignSlotPanics: a response or forward reaching a tile that
// does not host its target slot is a routing bug, not a message to drop.
func TestVN2ForeignSlotPanics(t *testing.T) {
	r := newRigLayout(t, []int{0, 7, 1000}, []int{0, 3, 3})
	for _, tc := range []struct{ tile, slot int }{{0, 1}, {3, 0}, {3, 3}, {1, -1}} {
		want := fmt.Sprintf("VN2 message for cache slot %d, not hosted at tile %d", tc.slot, tc.tile)
		mustPanic(t, want, func() { r.dom.dispatchVN2(tc.tile, &noc.Msg{Payload: &FwdMsg{To: tc.slot}}) })
		mustPanic(t, want, func() { r.dom.dispatchVN2(tc.tile, &noc.Msg{Payload: &RespMsg{To: tc.slot}}) })
	}
}
