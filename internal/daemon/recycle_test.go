package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"duet/internal/sim"
	"duet/internal/workload"
)

// decodeResult reads and closes a Result response body. Unlike
// decodeJSON it reports failure as an error, so goroutines other than
// the test's own can use it.
func decodeResult(resp *http.Response) (Result, error) {
	defer resp.Body.Close()
	var res Result
	err := json.NewDecoder(resp.Body).Decode(&res)
	return res, err
}

func isClosed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestEntryRecycling drives more than resultCap retirements through one
// server, mixing admitted jobs with QueueFull bounces and BadRequest
// refusals, so admission records are recycled many times over. A shadow
// copy of each job's Result, taken when its Done closes, must match every
// later Lookup while the job is retained; evicted ids and bounced ids
// must read back as not found; and every Done ever handed out must stay
// closed once closed — on the model and on the cycle backend.
func TestEntryRecycling(t *testing.T) {
	for _, backend := range []workload.BackendMode{workload.BackendModel, workload.BackendCycle} {
		t.Run(backend.String(), func(t *testing.T) { testEntryRecycling(t, backend) })
	}
}

func testEntryRecycling(t *testing.T, backend workload.BackendMode) {
	s, clock := newTestServer(t, func(c *Config) { c.Backend, c.EFPGAs, c.QueueCap = backend, 2, 4 })
	apps := s.Apps()
	rng := rand.New(rand.NewSource(1))

	type job struct {
		done    <-chan struct{}
		res     Result // shadow copy taken at retirement
		round   int    // harvest round that first saw it retired
		retired bool
	}
	var (
		jobs      = map[uint64]*job{} // every id handed out
		live      []uint64            // handed-out ids not yet seen retired
		entries   = map[*entry]bool{} // distinct records seen in byID
		maxID     uint64
		retired   int
		round     int
		bounces   int
		refusals  int
		submitted int
	)
	// harvest runs after every timeline advance: it takes the shadow copy
	// of each job whose Done closed during it. Retirement order is known
	// to the round, which is what the eviction check below relies on.
	harvest := func() {
		round++
		kept := live[:0]
		for _, id := range live {
			j := jobs[id]
			if !isClosed(j.done) {
				kept = append(kept, id)
				continue
			}
			res, ok := s.Lookup(id)
			if !ok || res.Status == "pending" || res.ID != id {
				t.Fatalf("job %d retired but reads back ok=%v %+v", id, ok, res)
			}
			j.res, j.round, j.retired = res, round, true
			retired++
		}
		live = kept
	}
	check := func() {
		t.Helper()
		found, minFound, maxMissing := 0, round+1, 0
		for id := uint64(1); id <= maxID; id++ {
			res, ok := s.Lookup(id)
			j := jobs[id]
			switch {
			case j == nil:
				if ok {
					t.Fatalf("bounced id %d reads back %+v", id, res)
				}
			case !j.retired:
				if !ok || res.Status != "pending" || res.ID != id || isClosed(j.done) {
					t.Fatalf("pending job %d reads back ok=%v %+v", id, ok, res)
				}
			case !isClosed(j.done):
				t.Fatalf("job %d: Done reopened after retirement", id)
			case ok:
				if res != j.res {
					t.Fatalf("job %d changed after retirement:\n got %+v\nwant %+v", id, res, j.res)
				}
				found++
				minFound = min(minFound, j.round)
			default:
				maxMissing = max(maxMissing, j.round)
			}
		}
		if want := min(retired, resultCap); found != want {
			t.Fatalf("%d retired results retained, want %d", found, want)
		}
		if maxMissing > minFound {
			t.Fatalf("a result retired in round %d was evicted before one retired in round %d", maxMissing, minFound)
		}
	}

	for retired <= resultCap+2048 {
		// Three quarters of each 64-arrival block are spread out; the
		// rest land at one instant and overflow the 4-deep queue.
		if submitted%64 < 48 {
			clock.Advance(time.Duration(rng.ExpFloat64() * 6000))
		}
		req := JobRequest{App: apps[rng.Intn(len(apps))], InputSize: 8 + rng.Intn(256), Tenant: fmt.Sprint("t", submitted%3)}
		switch rng.Intn(40) {
		case 0:
			req.App = "nope"
		case 1:
			req.InputSize = -1
		}
		submitted++
		out := s.Submit(req)
		switch out.Code {
		case Admitted, BadRequest:
			if out.Code == BadRequest {
				refusals++
			} else if isClosed(out.Done) {
				t.Fatalf("job %d admitted with a closed Done", out.ID)
			}
			jobs[out.ID] = &job{done: out.Done}
			live = append(live, out.ID)
			entries[s.byID[out.ID]] = true
			maxID = out.ID
		case QueueFull:
			bounces++
		default:
			t.Fatalf("submission %d: code %d", submitted, out.Code)
		}
		harvest()
		if submitted%4096 == 0 {
			check()
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	harvest()
	check()
	if len(live) != 0 {
		t.Fatalf("%d jobs still pending after Drain", len(live))
	}
	if bounces == 0 || refusals == 0 {
		t.Fatalf("the mix lacks a kind: %d bounces, %d refusals", bounces, refusals)
	}
	// Records are only allocated when the free list is empty, so no more
	// exist than were ever live at once: retained results, outstanding
	// jobs and the one being admitted.
	if bound := resultCap + s.cfg.MaxOutstanding + 1; len(entries) > bound {
		t.Fatalf("%d distinct records for %d jobs, want at most %d", len(entries), len(jobs), bound)
	}
}

// TestRecyclingConcurrentReaders: sync HTTP waiters and GET /v1/jobs/{id}
// readers run while bulk submitters keep retiring past resultCap, so the
// records behind them are evicted and recycled as they wait and read.
// Every response must describe the job it names.
func TestRecyclingConcurrentReaders(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) { c.EFPGAs = 2 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var (
		tenants sync.Map // id -> the tenant it was submitted under
		maxID   atomic.Uint64
		stop    atomic.Bool
		once    sync.Once
		bulk    sync.WaitGroup
		waiters sync.WaitGroup
		readers sync.WaitGroup
		reads   atomic.Int64
	)
	// recycling closes once ids pass resultCap by a margin: from then on
	// each retirement evicts a result and recycles its record.
	recycling := make(chan struct{})
	for b := 0; b < 2; b++ {
		bulk.Add(1)
		go func() {
			defer bulk.Done()
			for i := 0; !stop.Load(); i++ {
				clock.Advance(4 * time.Microsecond)
				tenant := fmt.Sprintf("b%d-%d", b, i)
				out := s.Submit(JobRequest{App: "Tangent", InputSize: 8, Tenant: tenant})
				if out.Code != Admitted {
					continue
				}
				tenants.Store(out.ID, tenant)
				for cur := maxID.Load(); cur < out.ID && !maxID.CompareAndSwap(cur, out.ID); cur = maxID.Load() {
				}
				if out.ID > resultCap+1024 {
					once.Do(func() { close(recycling) })
				}
			}
		}()
	}
	for w := 0; w < 3; w++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			<-recycling
			for i := 0; i < 20; i++ {
				tenant := fmt.Sprintf("w%d-%d", w, i)
				body, _ := json.Marshal(JobRequest{App: "Popcount", InputSize: 16, Tenant: tenant, Wait: true})
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				code := resp.StatusCode
				res, err := decodeResult(resp)
				switch {
				case code == http.StatusTooManyRequests:
					continue
				case code != http.StatusOK || err != nil:
					t.Errorf("sync waiter %s: status %d (%v)", tenant, code, err)
					return
				case res.Status != "ok" || res.Tenant != tenant || res.App != "Popcount":
					t.Errorf("sync waiter %s got another job's result: %+v", tenant, res)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			<-recycling
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				// Mostly retained ids, some just evicted.
				top := maxID.Load()
				id := top - uint64(rng.Int63n(resultCap+512))
				resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id))
				if err != nil {
					t.Error(err)
					return
				}
				code := resp.StatusCode
				res, err := decodeResult(resp)
				if code == http.StatusNotFound {
					continue
				}
				tenant, known := tenants.Load(id)
				if code != http.StatusOK || err != nil || res.ID != id || (known && res.Tenant != tenant) {
					t.Errorf("GET job %d (tenant %v): status %d (%v) %+v", id, tenant, code, err, res)
					return
				}
				reads.Add(1)
			}
		}()
	}
	waited := make(chan struct{})
	go func() { waiters.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(60 * time.Second):
		t.Error("sync waiters still blocked after 60s")
	}
	stop.Store(true)
	bulk.Wait()
	readers.Wait()
	// Drain retires whatever is left, so a stuck waiter unblocks too.
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	waiters.Wait()
	if reads.Load() == 0 {
		t.Fatal("readers found no retained job")
	}
}

// parentRetry is retryLocked as it read the mean service time before
// the running-sum accessor: from a full scheduler summary.
func parentRetry(s *Server) time.Duration {
	mean := s.sch.Stats().MeanService
	if mean <= 0 {
		mean = 100 * sim.US
	}
	workers := max(s.sch.Workers(), 1)
	simWait := mean * sim.Time(s.sch.QueueLen()+1) / sim.Time(workers)
	return time.Duration(simWait.Seconds() / s.cfg.Timescale * float64(time.Second))
}

// TestRetryEstimateUnchanged: at random points of a run the scheduler's
// running mean equals Stats().MeanService, and every QueueFull and
// Overloaded bounce carries exactly the Retry the summary-based estimate
// gives — before the first completion too.
func TestRetryEstimateUnchanged(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) { c.EFPGAs, c.QueueCap, c.MaxOutstanding, c.Timescale = 2, 3, 4, 0.37 })
	apps := s.Apps()
	rng := rand.New(rand.NewSource(7))
	var bounced, sampled int
	for i := 0; i < 4000; i++ {
		if rng.Intn(3) != 0 {
			clock.Advance(time.Duration(rng.ExpFloat64() * 20000))
		}
		out := s.Submit(JobRequest{App: apps[rng.Intn(len(apps))], InputSize: rng.Intn(512)})
		if out.Code == QueueFull || out.Code == Overloaded {
			if want := parentRetry(s); out.Retry != want {
				t.Fatalf("submission %d (code %d): Retry %v, want %v", i, out.Code, out.Retry, want)
			}
			bounced++
		}
		if rng.Intn(8) == 0 {
			if got, want := s.sch.MeanService(), s.sch.Stats().MeanService; got != want {
				t.Fatalf("submission %d: running mean %v, summary mean %v", i, got, want)
			}
			if got, want := s.retryLocked(), parentRetry(s); got != want {
				t.Fatalf("submission %d: retryLocked %v, want %v", i, got, want)
			}
			sampled++
		}
	}
	if bounced == 0 || sampled == 0 {
		t.Fatalf("%d bounces, %d samples: the run exercised nothing", bounced, sampled)
	}
}

// TestSyncWaiterOutlivesEviction retires resultCap more jobs between a
// sync job's retirement and its delivery. The handler's job is admitted
// first on a one-fabric pool, the bulk jobs queue behind it, and Drain
// retires them all in one timeline advance under the server's lock, so
// the waiter wakes only after its job has left the lookup table; it must
// still receive its own result, not a 500 or another job's.
func TestSyncWaiterOutlivesEviction(t *testing.T) {
	const bulk = resultCap + 64
	s, _ := newTestServer(t, func(c *Config) { c.QueueCap = bulk })
	body, _ := json.Marshal(JobRequest{App: "Popcount", InputSize: 16, Tenant: "waiter", Wait: true})
	rr := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	}()
	for { // until the handler's job (id 1) is admitted
		if _, ok := s.Lookup(1); ok {
			break
		}
		select {
		case <-served:
			t.Fatalf("handler returned before admitting its job: status %d: %s", rr.Code, rr.Body)
		default:
			runtime.Gosched()
		}
	}
	for i := 0; i < bulk; i++ {
		if out := s.Submit(JobRequest{App: "Tangent", InputSize: 8, Tenant: "bulk"}); out.Code != Admitted {
			t.Fatalf("bulk job %d: admit code %d", i, out.Code)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Lookup(1); ok {
		t.Fatal("the sync job is still retained: the drain evicted nothing")
	}
	<-served
	res, err := decodeResult(rr.Result())
	if rr.Code != http.StatusOK || err != nil {
		t.Fatalf("sync waiter: status %d (%v): %s", rr.Code, err, rr.Body)
	}
	if res.ID != 1 || res.Tenant != "waiter" || res.App != "Popcount" || res.Status != "ok" {
		t.Fatalf("sync waiter got another job's result: %+v", res)
	}
}
