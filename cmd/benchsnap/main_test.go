package main

import (
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
BenchmarkServeStream1M-2   	       1	 520000000 ns/op	  490000 B/op	    1900 allocs/op
BenchmarkServeStream1M-2   	       1	 510000000 ns/op	  490100 B/op	    1903 allocs/op
BenchmarkFig9-2            	       1	   4000000 ns/op	       812.0 latency-ns	     120 B/op	       3 allocs/op
PASS
`

// TestParse: repeated names keep the fastest ns/op and the largest
// allocs/op; custom metric columns do not hide the -benchmem pair; a
// result line without it is an error.
func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if s := got["BenchmarkServeStream1M"]; s.NsPerOp != 510000000 || s.AllocsPerOp != 1903 {
		t.Fatalf("Stream1M = %+v, want 510000000 ns/op and 1903 allocs/op", s)
	}
	if f := got["BenchmarkFig9"]; f.AllocsPerOp != 3 {
		t.Fatalf("Fig9 allocs = %d, want 3", f.AllocsPerOp)
	}
	if _, err := parse(strings.NewReader("BenchmarkEngineSchedule-2  200000  5891 ns/op\n")); err == nil {
		t.Fatal("a result line without -benchmem columns parsed")
	}
}

// TestCheckAllocGate: allocs/op fail past 16 objects above the snapshot,
// and ns/op past the tolerance.
func TestCheckAllocGate(t *testing.T) {
	snap := Snapshot{Benchmarks: map[string]Entry{
		"BenchmarkSmall": {NsPerOp: 100, AllocsPerOp: 100},
		"BenchmarkLarge": {NsPerOp: 100, AllocsPerOp: 2000},
	}}
	for _, c := range []struct {
		name         string
		small, large int64
		ns           float64
		want         bool
	}{
		{"within slack", 116, 2016, 100, true},
		{"small past 16", 117, 2000, 100, false},
		{"large past 16", 100, 2017, 100, false},
		{"ns/op past 30%", 100, 2000, 131, false},
	} {
		got := map[string]Entry{
			"BenchmarkSmall": {NsPerOp: c.ns, AllocsPerOp: c.small},
			"BenchmarkLarge": {NsPerOp: 100, AllocsPerOp: c.large},
		}
		if ok := check(io.Discard, snap, got, 0.30); ok != c.want {
			t.Errorf("%s: check = %v, want %v", c.name, ok, c.want)
		}
	}
}
