package daemon

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"duet/internal/workload"
)

// FuzzSubmitBody throws arbitrary POST /v1/jobs bodies at the daemon's
// handler on the cycle and model backends. Each request carries an
// already-cancelled context, so a sync submission returns at once
// instead of waiting on a fake clock; the clock then moves a simulated
// minute so admitted jobs retire and later inputs still reach the
// scheduler. Any panic or 500 fails.
func FuzzSubmitBody(f *testing.F) {
	for _, body := range []string{
		`{"app":"Tangent","input_size":64}`,
		`{"app":"Popcount","input_size":64,"priority":3,"tenant":"alpha","wait":false}`,
		`{"app":"BFS","input_size":-3683363949,"wait":false}`,
		`{"app":"Dijkstra","input_size":16,"deadline_us":9223372036854775807}`,
		`{"app":"Sort (32)","deadline_us":-5}`,
		`{"app":"nope"}`,
		`{"app":"Tangent","input_size":1e3}`,
		`{"bogus":1}`,
		`[]`,
		`{`,
	} {
		f.Add([]byte(body))
	}
	type target struct {
		s     *Server
		h     http.Handler
		clock *FakeClock
	}
	var targets []target
	for _, backend := range []workload.BackendMode{workload.BackendCycle, workload.BackendModel} {
		clock := &FakeClock{}
		s, err := NewServer(Config{Backend: backend, Clock: clock})
		if err != nil {
			f.Fatal(err)
		}
		targets = append(targets, target{s, s.Handler(), clock})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, tg := range targets {
			req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			tg.h.ServeHTTP(rec, req)
			if rec.Code == http.StatusInternalServerError {
				t.Fatalf("body %q: 500 %s", body, rec.Body)
			}
			tg.clock.Advance(time.Minute)
			tg.s.Tick()
		}
	})
}
