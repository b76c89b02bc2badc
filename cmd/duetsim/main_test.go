package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSamePath covers the -in/-out overlap guard: `-out F report -in F`
// must be rejected before os.Create truncates the input (the historical
// failure mode), in every spelling of "the same file".
func TestSamePath(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "series.json")
	if err := os.WriteFile(f, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}

	if !samePath(f, f) {
		t.Fatal("identical paths not detected")
	}
	// Different spellings of the same file.
	dotted := filepath.Join(dir, ".", "series.json")
	if !samePath(f, dotted) {
		t.Fatalf("cleaned spelling %q not matched to %q", dotted, f)
	}
	link := filepath.Join(dir, "link.json")
	if err := os.Symlink(f, link); err == nil {
		if !samePath(f, link) {
			t.Fatal("symlinked spelling not matched")
		}
	}

	other := filepath.Join(dir, "other.json")
	if err := os.WriteFile(other, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if samePath(f, other) {
		t.Fatal("distinct files reported as same")
	}
	// A not-yet-existing output never aliases an existing input.
	if samePath(filepath.Join(dir, "new.json"), f) {
		t.Fatal("nonexistent output matched existing input")
	}
}

// TestCheckPoolFlags covers the pool-size guard: values the commands
// used to replace silently with a default are refused up front.
func TestCheckPoolFlags(t *testing.T) {
	for _, ok := range [][3]int{{2, 4, 0}, {1, 1, 0}, {1, 1, 3}} {
		if err := checkPoolFlags(ok[0], ok[1], ok[2]); err != nil {
			t.Fatalf("efpgas/shards/softcpus %v rejected: %v", ok, err)
		}
	}
	for _, bad := range [][3]int{{0, 4, 0}, {-1, 4, 0}, {2, 0, 0}, {2, -3, 0}, {2, 4, -1}} {
		if err := checkPoolFlags(bad[0], bad[1], bad[2]); err == nil {
			t.Fatalf("efpgas/shards/softcpus %v accepted", bad)
		}
	}
}
