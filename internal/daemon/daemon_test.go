package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"duet/internal/cluster"
	"duet/internal/sim"
	"duet/internal/workload"
)

// newTestServer builds a model-backend server on a fake clock. The
// returned server only advances simulated time on Tick/Submit/Lookup
// calls, so every test below is deterministic — no sleeps, no races.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, *FakeClock) {
	t.Helper()
	clock := &FakeClock{}
	cfg := Config{Backend: workload.BackendModel, EFPGAs: 1, Clock: clock}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, clock
}

func postJob(t *testing.T, url string, req JobRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestRoundTrip: async admit → pending → advance the clock → completed,
// with sane simulated latencies — the whole ingest path over real HTTP.
func TestRoundTrip(t *testing.T) {
	s, clock := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJob(t, ts.URL, JobRequest{App: "Tangent", InputSize: 64, Tenant: "alpha", Wait: false})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	acc := decodeJSON[map[string]any](t, resp)
	id := uint64(acc["id"].(float64))

	get := func() Result {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lookup status %d, want 200", resp.StatusCode)
		}
		return decodeJSON[Result](t, resp)
	}
	if res := get(); res.Status != "pending" {
		t.Fatalf("before any clock advance: status %q, want pending", res.Status)
	}

	clock.Advance(time.Second)
	s.Tick()
	res := get()
	if res.Status != "ok" {
		t.Fatalf("after advance: status %q (%s), want ok", res.Status, res.Error)
	}
	if res.Tenant != "alpha" || res.App != "Tangent" {
		t.Fatalf("result lost identity: %+v", res)
	}
	if res.SojournUS <= 0 || res.ServiceUS <= 0 || res.SojournUS < res.ServiceUS {
		t.Fatalf("implausible latencies: %+v", res)
	}

	// Unknown ids are 404, bad ids 400.
	if resp, _ := http.Get(ts.URL + "/v1/jobs/999999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status %d, want 404", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/zzz"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status %d, want 400", resp.StatusCode)
	}
}

// TestSyncWait: a wait=true submission blocks until the simulated
// timeline reaches the job's finish, then delivers the final Result.
func TestSyncWait(t *testing.T) {
	s, clock := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan Result, 1)
	go func() {
		resp := postJob(t, ts.URL, JobRequest{App: "Popcount", InputSize: 32, Wait: true})
		done <- decodeJSON[Result](t, resp)
	}()

	// The job cannot finish while the clock stands still: keep nudging
	// the clock so that, once the submission lands, the next Tick
	// retires it and unblocks the waiter.
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case res := <-done:
			if res.Status != "ok" {
				t.Fatalf("sync result %+v", res)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("sync submission never completed")
		}
		clock.Advance(10 * time.Millisecond)
		s.Tick()
		time.Sleep(time.Millisecond)
	}
}

// TestQueueFull: with one worker and a 2-deep queue, the 4th concurrent
// submission bounces with 429 and a Retry-After hint, and the reject
// shows up in the telemetry counters.
func TestQueueFull(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.QueueCap = 2
		c.MaxOutstanding = 100
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// No clock advance between submissions: the first occupies the lone
	// worker, the next two fill the queue.
	for i := 0; i < 3; i++ {
		resp := postJob(t, ts.URL, JobRequest{App: "Tangent", InputSize: 8, Wait: false})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := postJob(t, ts.URL, JobRequest{App: "Tangent", InputSize: 8, Wait: false})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap submission: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 without a usable Retry-After (%q)", ra)
	}
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "duetsim_rejects_total 1\n") {
		t.Fatalf("queue bounce missing from metrics:\n%s", buf.String())
	}
}

// TestOverload: the outstanding-job bound turns submissions away with
// 503 before the scheduler sees them.
func TestOverload(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.QueueCap = 64
		c.MaxOutstanding = 2
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp := postJob(t, ts.URL, JobRequest{App: "BFS", InputSize: 8, Wait: false})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := postJob(t, ts.URL, JobRequest{App: "BFS", InputSize: 8, Wait: false})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-bound submission: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestUnknownApp: submission failures surface as 400 with the
// scheduler's error, and count as failures, not completions.
func TestUnknownApp(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJob(t, ts.URL, JobRequest{App: "nope", Wait: true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown app: status %d, want 400", resp.StatusCode)
	}
	body := decodeJSON[map[string]string](t, resp)
	if !strings.Contains(body["error"], "unknown app") || !strings.Contains(body["error"], `"nope"`) {
		t.Fatalf("unknown app error %q does not name the app", body["error"])
	}
	if st := s.Stats(); st.Failed != 1 || st.Completed != 0 {
		t.Fatalf("stats after failed submit: %+v", st)
	}
	if res, ok := s.Lookup(1); !ok || res.Status != "failed" || res.App != "nope" {
		t.Fatalf("failed submission not queryable: ok=%v %+v", ok, res)
	}
}

// TestHostileJobFields: a negative or oversized input_size and a
// negative or clock-overflowing deadline_us are refused with a 400 that
// names the field, count as failed, and leave the pool serving — on the
// cycle backend (the daemon's default, where a negative size once
// scheduled service in the past) and on the model backend.
func TestHostileJobFields(t *testing.T) {
	bad := []struct {
		field string
		req   JobRequest
	}{
		{"input_size", JobRequest{App: "Tangent", InputSize: -3683363949}},
		{"input_size", JobRequest{App: "Tangent", InputSize: maxInputSize + 1}},
		{"deadline_us", JobRequest{App: "Tangent", InputSize: 8, DeadlineUS: math.MaxInt64}},
		{"deadline_us", JobRequest{App: "Tangent", InputSize: 8, DeadlineUS: -1}},
	}
	for _, backend := range []workload.BackendMode{workload.BackendModel, workload.BackendCycle} {
		t.Run(backend.String(), func(t *testing.T) {
			s, clock := newTestServer(t, func(c *Config) { c.Backend = backend })
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for i, b := range bad {
				resp := postJob(t, ts.URL, b.req)
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("%+v: status %d, want 400", b.req, resp.StatusCode)
				}
				body := decodeJSON[map[string]string](t, resp)
				if !strings.Contains(body["error"], b.field) {
					t.Fatalf("%+v: error %q does not name %s", b.req, body["error"], b.field)
				}
				if st := s.Stats(); st.Failed != i+1 || st.Completed != 0 {
					t.Fatalf("after %d hostile requests: %d failed, %d completed", i+1, st.Failed, st.Completed)
				}
			}
			resp := postJob(t, ts.URL, JobRequest{App: "Tangent", InputSize: 64, DeadlineUS: 1e6, Wait: false})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("valid job after hostile ones: status %d, want 202", resp.StatusCode)
			}
			id := uint64(decodeJSON[map[string]any](t, resp)["id"].(float64))
			clock.Advance(time.Second)
			s.Tick()
			if res, ok := s.Lookup(id); !ok || res.Status != "ok" || res.ServiceUS <= 0 {
				t.Fatalf("valid job after hostile ones: ok=%v %+v", ok, res)
			}
			if st := s.Stats(); st.Failed != len(bad) || st.Completed != 1 {
				t.Fatalf("final stats: %d failed, %d completed; want %d/1", st.Failed, st.Completed, len(bad))
			}
		})
	}
}

// TestGracefulDrain: Drain retires every admitted job (sync waiters
// included), refuses new work with 503, and lands the telemetry horizon
// on the end of the drained timeline — on every backend.
func TestGracefulDrain(t *testing.T) {
	for m := workload.BackendMode(0); m < workload.NumBackendModes; m++ {
		t.Run(m.String(), func(t *testing.T) { testGracefulDrain(t, m) })
	}
}

func testGracefulDrain(t *testing.T, backend workload.BackendMode) {
	s, _ := newTestServer(t, func(c *Config) { c.Backend, c.QueueCap = backend, 64 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []uint64
	for i := 0; i < 8; i++ {
		resp := postJob(t, ts.URL, JobRequest{App: "Dijkstra", InputSize: 16, Wait: false})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want 202", i, resp.StatusCode)
		}
		acc := decodeJSON[map[string]any](t, resp)
		ids = append(ids, uint64(acc["id"].(float64)))
	}
	syncDone := make(chan Result, 1)
	go func() {
		resp := postJob(t, ts.URL, JobRequest{App: "Tangent", InputSize: 8, Wait: true})
		syncDone <- decodeJSON[Result](t, resp)
	}()
	// Ensure the sync submission is in before draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var buf bytes.Buffer
		_ = s.WriteMetrics(&buf)
		if strings.Contains(buf.String(), "duetsim_arrivals_total 9\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sync submission never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	s.Drain()
	for _, id := range ids {
		res, ok := s.Lookup(id)
		if !ok || res.Status != "ok" {
			t.Fatalf("job %d after drain: ok=%v res=%+v", id, ok, res)
		}
	}
	select {
	case res := <-syncDone:
		if res.Status != "ok" {
			t.Fatalf("sync waiter after drain: %+v", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sync waiter did not unblock on drain")
	}
	resp := postJob(t, ts.URL, JobRequest{App: "Tangent", Wait: false})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submission: status %d, want 503", resp.StatusCode)
	}
	if st := s.Stats(); st.Completed != 9 {
		t.Fatalf("completed %d after drain, want 9", st.Completed)
	}
}

// TestSameInstantTie: on every backend a submission landing exactly on
// a completion instant precedes that completion, the rule batch serving
// plays by (cluster.Pool). One fabric and a 1-deep queue: A runs, B
// waits, B2 bounces. At A's finish instant A still reads back pending,
// so B is still queued and C bounces too.
func TestSameInstantTie(t *testing.T) {
	type outcome struct {
		codes   [4]AdmitCode // A, B, B2, C
		aStatus string       // Lookup(A) at A's finish instant
	}
	want := outcome{codes: [4]AdmitCode{Admitted, Admitted, QueueFull, QueueFull}, aStatus: "pending"}
	for _, c := range []struct {
		name     string
		backend  workload.BackendMode
		softCPUs int
	}{
		{"model", workload.BackendModel, 0},
		{"cycle", workload.BackendCycle, 0},
		{"model+cpu", workload.BackendModel, 1},
		{"hybrid", workload.BackendHybrid, 1},
	} {
		build := func() (*Server, *FakeClock) {
			// Timescale 0.001: one fake-clock ns is one simulated ps.
			return newTestServer(t, func(cfg *Config) {
				cfg.Backend, cfg.SoftCPUs, cfg.QueueCap, cfg.Timescale = c.backend, c.softCPUs, 1, 0.001
			})
		}
		req := JobRequest{App: "Tangent", InputSize: 8}
		probe, _ := build()
		a := probe.Submit(req)
		if err := probe.Drain(); err != nil {
			t.Fatalf("%s: probe drain: %v", c.name, err)
		}
		finish := probe.byID[a.ID].job.Finish

		s, clock := build()
		var got outcome
		var aID uint64
		for i := 0; i < 3; i++ {
			out := s.Submit(req)
			got.codes[i] = out.Code
			if i == 0 {
				aID = out.ID
			}
		}
		clock.Advance(time.Duration(finish))
		if now := s.simNow(); now != finish {
			t.Fatalf("%s: clock bridge landed at %v, not A's finish %v", c.name, now, finish)
		}
		res, _ := s.Lookup(aID)
		got.aStatus = res.Status
		got.codes[3] = s.Submit(req).Code
		if got != want {
			t.Errorf("%s: got %+v, want %+v", c.name, got, want)
		}
		if err := s.Drain(); err != nil {
			t.Errorf("%s: drain: %v", c.name, err)
		}
	}
}

// TestUnknownBackend: NewServer refuses a backend mode the shared pool
// builder does not know.
func TestUnknownBackend(t *testing.T) {
	_, err := NewServer(Config{Backend: workload.NumBackendModes, Clock: &FakeClock{}})
	if err == nil || !strings.Contains(err.Error(), "unknown backend mode") {
		t.Fatalf("err %v, want unknown backend mode", err)
	}
}

// TestMetricsScrape: a fixed fake-clock scenario yields a deterministic
// exposition — the counter and gauge lines match exactly, and two
// scrapes at the same instant are byte-identical.
func TestMetricsScrape(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) { c.WindowWidth = 250 * sim.MS })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp := postJob(t, ts.URL, JobRequest{App: "Popcount", InputSize: 64, Wait: false})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
		clock.Advance(250 * time.Millisecond)
		s.Tick()
	}
	clock.Advance(250 * time.Millisecond)
	s.Tick()

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("metrics content type %q", ct)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	got := scrape()
	for _, want := range []string{
		"duetsim_arrivals_total 3\n",
		"duetsim_completions_total 3\n",
		"duetsim_failures_total 0\n",
		"duetsim_rejects_total 0\n",
		"duetsim_spills_total 0\n",
		"duetsim_horizon_seconds 1\n", // 4 x 250ms wall at timescale 1
		"duetsim_windows 4\n",
		"duetsim_admitted_total 3\n",
		"duetsim_outstanding_jobs 0\n",
		"duetsim_queue_len 0\n",
		"duetsim_draining 0\n",
		`duetsim_window_sojourn_seconds{quantile="0.5"}`,
		`duetsim_worker_busy_seconds_total{worker="0",kind="model"}`,
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("metrics missing %q:\n%s", want, got)
		}
	}
	if again := scrape(); again != got {
		t.Fatalf("scrape not deterministic at a fixed instant:\n--- first ---\n%s--- second ---\n%s", got, again)
	}
}

// TestTimescale: the clock bridge multiplies wall time by the timescale
// — 2x means one wall second covers two simulated seconds of windows.
func TestTimescale(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) {
		c.Timescale = 2
		c.WindowWidth = 250 * sim.MS
	})
	clock.Advance(time.Second)
	s.Tick()
	rows := s.Series()
	if len(rows) == 0 {
		t.Fatal("no windows after advancing the clock")
	}
	if end := rows[len(rows)-1].End; end != 2000*sim.MS {
		t.Fatalf("horizon after 1s wall at 2x = %v, want 2s simulated", end)
	}
}

// TestDrainIdempotent: draining an idle server twice is safe.
func TestDrainIdempotent(t *testing.T) {
	s, _ := newTestServer(t, nil)
	s.Drain()
	s.Drain()
	if !s.Draining() {
		t.Fatal("server not draining after Drain")
	}
}

// failingPool is a pool whose end-of-run check fails.
type failingPool struct{ cluster.Pool }

func (p failingPool) Drain() error {
	p.Pool.Drain()
	return errors.New("coherence check failed")
}

// TestDrainReportsPoolError: Drain hands back the pool's end-of-run error
// instead of dropping it, and the server is drained all the same.
func TestDrainReportsPoolError(t *testing.T) {
	s, _ := newTestServer(t, nil)
	s.pool = failingPool{s.pool}
	if err := s.Drain(); err == nil || !strings.Contains(err.Error(), "coherence check failed") {
		t.Fatalf("Drain error %v, want the pool's", err)
	}
	if !s.Draining() {
		t.Fatal("server not draining after a failed Drain")
	}
}

// TestCycleDrainReleasesSystem: on the cycle backend, concurrent
// requests resume the system's simulation threads from whichever request
// goroutine holds the lock, and Drain, the daemon's shutdown, retires
// every job and then releases those threads.
func TestCycleDrainReleasesSystem(t *testing.T) {
	before := runtime.NumGoroutine()
	clock := &FakeClock{}
	s, err := NewServer(Config{Backend: workload.BackendCycle, EFPGAs: 2, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				clock.Advance(20 * time.Microsecond)
				if out := s.Submit(JobRequest{App: "Tangent", InputSize: 8}); out.Code != Admitted {
					t.Errorf("submission: code %d, want admitted", out.Code)
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := s.Stats(); st.Completed != clients*perClient {
		t.Fatalf("completed %d after drain, want %d", st.Completed, clients*perClient)
	}
	// The client goroutines may still be exiting after wg.Wait; a parked
	// thread never would.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the server, %d after Drain", before, after)
	}
}

// BenchmarkDaemonSubmit measures the ingest path alone (admission,
// bookkeeping, scheduler submit) with a fake clock — the per-request
// overhead the daemon adds over batch serve's direct Submit loop.
func BenchmarkDaemonSubmit(b *testing.B) {
	clock := &FakeClock{}
	s, err := NewServer(Config{
		Backend: workload.BackendModel, EFPGAs: 2, Clock: clock,
		MaxOutstanding: 1 << 30, QueueCap: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clock.Advance(25 * time.Microsecond)
		out := s.Submit(JobRequest{App: "Tangent", InputSize: 64})
		if out.Code != Admitted {
			b.Fatalf("submission %d: code %d", i, out.Code)
		}
	}
}
