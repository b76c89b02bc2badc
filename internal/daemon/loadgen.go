package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"duet/internal/sched"
)

// TenantShare is one slice of the loadgen's tenant mix.
type TenantShare struct {
	Name   string
	Weight int
}

// ParseTenants parses a tenant-mix spec like "alpha:3,beta:1" (weights
// default to 1 when omitted, as in "alpha,beta").
func ParseTenants(spec string) ([]TenantShare, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []TenantShare
	for _, part := range strings.Split(spec, ",") {
		name, ws, hasW := strings.Cut(strings.TrimSpace(part), ":")
		if name == "" {
			return nil, fmt.Errorf("daemon: empty tenant name in %q", spec)
		}
		w := 1
		if hasW {
			v, err := strconv.Atoi(ws)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("daemon: bad tenant weight %q in %q", ws, spec)
			}
			w = v
		}
		out = append(out, TenantShare{Name: name, Weight: w})
	}
	return out, nil
}

// loadgenInputSize is every generated job's input size.
const loadgenInputSize = 64

// LoadgenConfig parameterizes one load-generation run against a daemon.
type LoadgenConfig struct {
	Target string // base URL, e.g. "http://localhost:8080"

	// Mode: "closed" (default) keeps Concurrency workers in lockstep —
	// each submits, waits for the sync response, submits again — so
	// offered load adapts to service speed. "open" submits on an
	// exponential-gap arrival process at RateHz regardless of completions
	// (in-flight bounded at Concurrency), so overload and backpressure
	// actually show.
	Mode        string
	Concurrency int           // closed: worker count; open: in-flight cap (default 8)
	RateHz      float64       // open-loop arrival rate (default 200)
	Duration    time.Duration // run length (default 5s)
	Jobs        int           // optional total submission cap; 0 = Duration only

	Apps    []string      // app mix, uniform; empty = fetch the daemon's catalog
	Tenants []TenantShare // weighted tenant mix; empty = single "loadgen" tenant
	Seed    int64         // app/tenant/gap randomness seed (default 1)
	Timeout time.Duration // per-request client timeout (default 30s)
}

// LoadgenReport is a run's final tally. Latencies are wall-clock,
// measured around the whole sync HTTP round trip, over 200 responses.
type LoadgenReport struct {
	Mode    string        `json:"mode"`
	Elapsed time.Duration `json:"elapsed_ns"`

	Sent           int `json:"sent"`
	Completed      int `json:"completed"`
	Failed         int `json:"failed"`
	Rejected429    int `json:"rejected_429"`
	Unavailable503 int `json:"unavailable_503"`
	OtherErrors    int `json:"other_errors"`
	// Retried counts backpressure retries: 429/503 responses whose
	// Retry-After hint the generator honored before resubmitting. The
	// 429/503 tallies above count only submissions that stayed rejected
	// after the retry budget.
	Retried int `json:"retried"`

	ThroughputHz float64       `json:"throughput_hz"`
	WallMean     time.Duration `json:"wall_mean_ns"`
	WallP50      time.Duration `json:"wall_p50_ns"`
	WallP95      time.Duration `json:"wall_p95_ns"`
	WallP99      time.Duration `json:"wall_p99_ns"`
}

// loadgen is one run's shared state; counters and the rng are guarded by
// mu (workers touch them between requests, never during).
type loadgen struct {
	cfg    LoadgenConfig
	client *http.Client

	mu  sync.Mutex
	rng *rand.Rand
	lat []time.Duration
	rep LoadgenReport
}

// RunLoadgen drives a daemon at cfg's load until Duration (or the Jobs
// cap, or ctx cancellation) and reports the tally. The report reflects
// every request that completed, including those cut off mid-flight by
// the deadline.
func RunLoadgen(ctx context.Context, cfg LoadgenConfig) (LoadgenReport, error) {
	if cfg.Target == "" {
		return LoadgenReport{}, fmt.Errorf("daemon: loadgen needs a target URL")
	}
	if cfg.Mode == "" {
		cfg.Mode = "closed"
	}
	if cfg.Mode != "closed" && cfg.Mode != "open" {
		return LoadgenReport{}, fmt.Errorf("daemon: unknown loadgen mode %q (want closed or open)", cfg.Mode)
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.RateHz <= 0 {
		cfg.RateHz = 200
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if len(cfg.Tenants) == 0 {
		cfg.Tenants = []TenantShare{{Name: "loadgen", Weight: 1}}
	}
	g := &loadgen{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.Timeout},
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	if len(g.cfg.Apps) == 0 {
		apps, err := g.fetchApps(ctx)
		if err != nil {
			return LoadgenReport{}, err
		}
		g.cfg.Apps = apps
	}

	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	start := time.Now()
	if cfg.Mode == "closed" {
		g.runClosed(ctx)
	} else {
		g.runOpen(ctx)
	}
	g.rep.Mode = cfg.Mode
	g.rep.Elapsed = time.Since(start)
	g.finish()
	return g.rep, nil
}

// fetchApps pulls the daemon's catalog so the default mix matches
// whatever the server actually serves.
func (g *loadgen) fetchApps(ctx context.Context) ([]string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.cfg.Target+"/v1/apps", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("daemon: fetching app catalog: %w", err)
	}
	defer resp.Body.Close()
	var body struct {
		Apps []string `json:"apps"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("daemon: decoding app catalog: %w", err)
	}
	if len(body.Apps) == 0 {
		return nil, fmt.Errorf("daemon: target serves no apps")
	}
	return body.Apps, nil
}

// take claims one submission slot against the Jobs cap.
func (g *loadgen) take() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cfg.Jobs > 0 && g.rep.Sent >= g.cfg.Jobs {
		return false
	}
	g.rep.Sent++
	return true
}

// pick draws the next request's app and tenant from the seeded mix.
func (g *loadgen) pick() (app, tenant string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	app = g.cfg.Apps[g.rng.Intn(len(g.cfg.Apps))]
	total := 0
	for _, t := range g.cfg.Tenants {
		total += t.Weight
	}
	n := g.rng.Intn(total)
	for _, t := range g.cfg.Tenants {
		if n -= t.Weight; n < 0 {
			return app, t.Name
		}
	}
	return app, g.cfg.Tenants[0].Name
}

// expGap draws the next open-loop inter-arrival gap.
func (g *loadgen) expGap() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return time.Duration(g.rng.ExpFloat64() / g.cfg.RateHz * float64(time.Second))
}

// runClosed keeps Concurrency sequential submitters busy until the
// deadline or the Jobs cap.
func (g *loadgen) runClosed(ctx context.Context) {
	var wg sync.WaitGroup
	for w := 0; w < g.cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && g.take() {
				g.submit(ctx)
			}
		}()
	}
	wg.Wait()
}

// runOpen paces submissions at RateHz with exponential gaps, spawning
// each into a goroutine bounded by the Concurrency in-flight cap (a full
// cap delays arrivals — the generator degrades to partly closed rather
// than growing unbounded goroutines).
func (g *loadgen) runOpen(ctx context.Context) {
	var wg sync.WaitGroup
	slots := make(chan struct{}, g.cfg.Concurrency)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for {
		timer.Reset(g.expGap())
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-timer.C:
		}
		if !g.take() {
			wg.Wait()
			return
		}
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			g.untake()
			wg.Wait()
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			g.submit(ctx)
		}()
	}
}

// untake returns an unused submission slot (arrival cancelled before
// its request went out).
func (g *loadgen) untake() {
	g.mu.Lock()
	g.rep.Sent--
	g.mu.Unlock()
}

// Backpressure-retry budget: a 429/503 response is resubmitted up to
// loadgenMaxAttempts total tries, honoring the server's Retry-After
// hint capped at loadgenRetryCap (so a pathological hint can't stall a
// worker for the whole run).
const (
	loadgenMaxAttempts = 3
	loadgenRetryCap    = 2 * time.Second
)

// retryDelay turns a 429/503 response's Retry-After header into a
// bounded wait. Missing or malformed headers fall back to a
// deterministic per-attempt ramp (50ms, 100ms, ...), so behavior does
// not depend on server cooperation.
func retryDelay(header string, attempt int) time.Duration {
	if sec, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && sec >= 0 {
		return min(time.Duration(sec)*time.Second, loadgenRetryCap)
	}
	return min(time.Duration(attempt+1)*50*time.Millisecond, loadgenRetryCap)
}

// submit performs one sync job submission — retrying bounced (429/503)
// attempts per the Retry-After hint — and files the final outcome.
func (g *loadgen) submit(ctx context.Context) {
	app, tenant := g.pick()
	body, _ := json.Marshal(JobRequest{App: app, InputSize: loadgenInputSize, Tenant: tenant, Wait: true})
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.cfg.Target+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			g.file(0, 0, err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		start := time.Now()
		resp, err := g.client.Do(req)
		if err != nil {
			g.file(0, 0, err)
			return
		}
		var res Result
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&res)
		} else {
			_, _ = io.Copy(io.Discard, resp.Body)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && err != nil {
			g.file(resp.StatusCode, 0, err)
			return
		}
		elapsed := time.Since(start)
		if resp.StatusCode == http.StatusOK && res.Status == "failed" {
			g.mu.Lock()
			g.rep.Failed++
			g.mu.Unlock()
			return
		}
		backpressured := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		if !backpressured || attempt+1 >= loadgenMaxAttempts {
			g.file(resp.StatusCode, elapsed, nil)
			return
		}
		g.mu.Lock()
		g.rep.Retried++
		g.mu.Unlock()
		t := time.NewTimer(retryDelay(resp.Header.Get("Retry-After"), attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			g.file(0, 0, ctx.Err())
			return
		case <-t.C:
		}
	}
}

// file classifies one finished request into the report.
func (g *loadgen) file(status int, elapsed time.Duration, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case err != nil:
		// Deadline-cancelled requests at the end of the run are part of
		// normal shutdown, not errors.
		if isCancelled(err) {
			g.rep.Sent--
			return
		}
		g.rep.OtherErrors++
	case status == http.StatusOK:
		g.rep.Completed++
		g.lat = append(g.lat, elapsed)
	case status == http.StatusTooManyRequests:
		g.rep.Rejected429++
	case status == http.StatusServiceUnavailable:
		g.rep.Unavailable503++
	default:
		g.rep.OtherErrors++
	}
}

// isCancelled reports whether err is a context cancellation/deadline
// surfacing through the HTTP client.
func isCancelled(err error) bool {
	s := err.Error()
	return strings.Contains(s, context.Canceled.Error()) ||
		strings.Contains(s, context.DeadlineExceeded.Error())
}

// finish computes the latency aggregates.
func (g *loadgen) finish() {
	if len(g.lat) == 0 {
		return
	}
	slices.Sort(g.lat)
	var sum time.Duration
	for _, d := range g.lat {
		sum += d
	}
	g.rep.WallMean = sum / time.Duration(len(g.lat))
	g.rep.WallP50 = sched.PercentileSorted(g.lat, 50)
	g.rep.WallP95 = sched.PercentileSorted(g.lat, 95)
	g.rep.WallP99 = sched.PercentileSorted(g.lat, 99)
	if s := g.rep.Elapsed.Seconds(); s > 0 {
		g.rep.ThroughputHz = float64(g.rep.Completed) / s
	}
}
