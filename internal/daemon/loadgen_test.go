package daemon

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"duet/internal/workload"
)

func TestParseTenants(t *testing.T) {
	got, err := ParseTenants("alpha:3, beta:1,gamma")
	if err != nil {
		t.Fatal(err)
	}
	want := []TenantShare{{"alpha", 3}, {"beta", 1}, {"gamma", 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseTenants = %+v, want %+v", got, want)
	}
	if got, err := ParseTenants("  "); err != nil || got != nil {
		t.Fatalf("blank spec = %+v, %v", got, err)
	}
	for _, bad := range []string{":3", "a:0", "a:x", "a:-1", ","} {
		if _, err := ParseTenants(bad); err == nil {
			t.Fatalf("ParseTenants(%q) did not fail", bad)
		}
	}
}

// FuzzParseTenants: an accepted spec has named, positively weighted
// shares, and formatting them back as "name:weight,..." parses to the
// same shares.
func FuzzParseTenants(f *testing.F) {
	for _, s := range []string{"alpha:3, beta:1,gamma", "  ", "a", ":3", "a:0", "a:x", "a:-1", ",", "a :+2", "a:b:c", "a:99999999999999999999"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		got, err := ParseTenants(spec)
		if err != nil || got == nil {
			return
		}
		parts := make([]string, len(got))
		for i, ts := range got {
			if ts.Name == "" || ts.Weight <= 0 {
				t.Fatalf("ParseTenants(%q) accepted %+v", spec, ts)
			}
			parts[i] = ts.Name + ":" + strconv.Itoa(ts.Weight)
		}
		again, err := ParseTenants(strings.Join(parts, ","))
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("ParseTenants(%q) = %+v, but its formatting parses to %+v, %v", spec, got, again, err)
		}
	})
}

// newLiveServer boots a wall-clock daemon with a running ticker — the
// configuration the loadgen actually benchmarks.
func newLiveServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := NewServer(Config{Backend: workload.BackendModel, EFPGAs: 2})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	go s.RunTicker(time.Millisecond, stop)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		close(stop)
	})
	return ts
}

// TestLoadgenClosed: a short closed-loop run against a live daemon
// completes jobs with no errors and reports coherent numbers.
func TestLoadgenClosed(t *testing.T) {
	ts := newLiveServer(t)
	rep, err := RunLoadgen(context.Background(), LoadgenConfig{
		Target:      ts.URL,
		Mode:        "closed",
		Concurrency: 4,
		Duration:    300 * time.Millisecond,
		Tenants:     []TenantShare{{"alpha", 3}, {"beta", 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatalf("closed loop completed nothing: %+v", rep)
	}
	if rep.OtherErrors != 0 || rep.Failed != 0 {
		t.Fatalf("closed loop hit errors: %+v", rep)
	}
	if rep.Completed > rep.Sent {
		t.Fatalf("completed %d > sent %d", rep.Completed, rep.Sent)
	}
	if rep.WallP50 <= 0 || rep.WallP99 < rep.WallP50 {
		t.Fatalf("incoherent latency aggregates: %+v", rep)
	}
}

// TestLoadgenOpen: the open-loop pacer submits on its own schedule and
// the Jobs cap stops it early.
func TestLoadgenOpen(t *testing.T) {
	ts := newLiveServer(t)
	rep, err := RunLoadgen(context.Background(), LoadgenConfig{
		Target:      ts.URL,
		Mode:        "open",
		Concurrency: 8,
		RateHz:      2000,
		Duration:    2 * time.Second,
		Jobs:        25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != 25 {
		t.Fatalf("open loop sent %d, want the 25-job cap", rep.Sent)
	}
	if rep.Completed == 0 {
		t.Fatalf("open loop completed nothing: %+v", rep)
	}
}

// TestRetryDelay pins the Retry-After handling: the server's hint wins
// (capped), and missing or malformed headers fall back to the
// deterministic per-attempt ramp.
func TestRetryDelay(t *testing.T) {
	cases := []struct {
		header  string
		attempt int
		want    time.Duration
	}{
		{"1", 0, time.Second},
		{" 1 ", 0, time.Second},
		{"0", 0, 0},
		{"30", 0, loadgenRetryCap},
		{"", 0, 50 * time.Millisecond},
		{"", 1, 100 * time.Millisecond},
		{"", 100, loadgenRetryCap},
		{"soon", 0, 50 * time.Millisecond},
		{"-2", 2, 150 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := retryDelay(tc.header, tc.attempt); got != tc.want {
			t.Errorf("retryDelay(%q, %d) = %v, want %v", tc.header, tc.attempt, got, tc.want)
		}
	}
}

// TestLoadgenRetriesBackpressure: a server that bounces every first
// attempt with 429 + Retry-After sees the generator resubmit within
// its budget — every job retries exactly once, completes on the second
// try, and nothing is filed as rejected.
func TestLoadgenRetriesBackpressure(t *testing.T) {
	var submits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if submits.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "admission queue full", http.StatusTooManyRequests)
			return
		}
		_ = json.NewEncoder(w).Encode(Result{Status: "ok"})
	}))
	t.Cleanup(ts.Close)
	rep, err := RunLoadgen(context.Background(), LoadgenConfig{
		Target:      ts.URL,
		Mode:        "closed",
		Concurrency: 1,
		Duration:    5 * time.Second,
		Jobs:        10,
		Apps:        []string{"Tangent"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retried != 10 || rep.Completed != 10 || rep.Rejected429 != 0 {
		t.Fatalf("want 10 retried / 10 completed / 0 rejected, got %+v", rep)
	}
}

// TestLoadgenRetryBudgetExhausts: a server that always bounces burns
// the full budget (maxAttempts-1 retries per job) and files the final
// 429 as rejected.
func TestLoadgenRetryBudgetExhausts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		http.Error(w, "admission queue full", http.StatusTooManyRequests)
	}))
	t.Cleanup(ts.Close)
	rep, err := RunLoadgen(context.Background(), LoadgenConfig{
		Target:      ts.URL,
		Mode:        "closed",
		Concurrency: 1,
		Duration:    5 * time.Second,
		Jobs:        4,
		Apps:        []string{"Tangent"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRetried := 4 * (loadgenMaxAttempts - 1)
	if rep.Retried != wantRetried || rep.Rejected429 != 4 || rep.Completed != 0 {
		t.Fatalf("want %d retried / 4 rejected / 0 completed, got %+v", wantRetried, rep)
	}
}

// TestLoadgenRejectsBadConfig: mode and target validation fail fast.
func TestLoadgenRejectsBadConfig(t *testing.T) {
	if _, err := RunLoadgen(context.Background(), LoadgenConfig{Target: "http://x", Mode: "sideways"}); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := RunLoadgen(context.Background(), LoadgenConfig{}); err == nil {
		t.Fatal("missing target accepted")
	}
}

// TestLoadgenPercentilesNearestRank: the wall-latency percentiles are
// nearest-rank, sorted[ceil(p/100*n)-1]. Over 1..100 ms P50 is the 50th
// sample, P95 the 95th and P99 the 99th, not the next one up.
func TestLoadgenPercentilesNearestRank(t *testing.T) {
	g := &loadgen{}
	for i := 100; i >= 1; i-- {
		g.lat = append(g.lat, time.Duration(i)*time.Millisecond)
	}
	g.finish()
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"P50", g.rep.WallP50, 50 * time.Millisecond},
		{"P95", g.rep.WallP95, 95 * time.Millisecond},
		{"P99", g.rep.WallP99, 99 * time.Millisecond},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
