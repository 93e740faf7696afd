package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ucp"
	"ucp/internal/serve/faultinject"
)

// tinyProblem's minimum cover is {0, 1} at cost 3.
const tinyProblem = "p 3 3\nc 2 1 3\nr 0 1\nr 1 2\nr 0 2\n"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, ts
}

func postRaw(t *testing.T, c *http.Client, url, body string) (*http.Response, Response) {
	t.Helper()
	resp, err := c.Post(url+"/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var r Response
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatalf("response not JSON (%v): %q", err, raw)
	}
	return resp, r
}

func postSolve(t *testing.T, c *http.Client, url string, req *Request) (*http.Response, Response) {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, c, url, string(data))
}

func TestSolveUnaryAllSolvers(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, solver := range []string{"", "scg", "exact", "greedy"} {
		resp, r := postSolve(t, ts.Client(), ts.URL, &Request{Problem: tinyProblem, Solver: solver})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solver %q: status %d (%s)", solver, resp.StatusCode, r.Error)
		}
		if !r.Final {
			t.Fatalf("solver %q: unary response not final", solver)
		}
		p, err := ucp.ReadProblem(strings.NewReader(tinyProblem))
		if err != nil {
			t.Fatal(err)
		}
		if !p.IsCover(r.Solution) {
			t.Fatalf("solver %q: returned non-cover %v", solver, r.Solution)
		}
		if solver == "exact" && (r.Cost != 3 || !r.Optimal) {
			t.Fatalf("exact: cost %d optimal=%v, want 3/true", r.Cost, r.Optimal)
		}
	}
}

func TestMalformedRequestsRejected400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := map[string]string{
		"truncated json":    `{"problem":`,
		"unknown field":     `{"problem":"p 1 1\nr 0\n","wat":1}`,
		"trailing garbage":  `{"problem":"p 1 1\nr 0\n"} {}`,
		"unknown solver":    `{"problem":"p 1 1\nr 0\n","solver":"wat"}`,
		"unknown format":    `{"problem":"x","format":"dimacs"}`,
		"missing problem":   `{"solver":"scg"}`,
		"mixed payloads":    `{"problem":"p 1 1\nr 0\n","ncols":1}`,
		"negative timeout":  `{"problem":"p 1 1\nr 0\n","timeout_ms":-1}`,
		"bad problem text":  `{"problem":"p 1 1\nr 5\n"}`,
		"negative json dim": `{"format":"json","ncols":-2,"rows":[[0]]}`,
	}
	for name, body := range cases {
		resp, r := postRaw(t, ts.Client(), ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (error %q)", name, resp.StatusCode, r.Error)
		}
		if r.Error == "" {
			t.Errorf("%s: 400 without an error message", name)
		}
	}
}

func TestRequestBodyTooLarge413(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxRequestBytes: 256})
	big := `{"problem":"p 1 1\nr 0\n` + strings.Repeat("# pad\\n", 200) + `"}`
	resp, _ := postRaw(t, ts.Client(), ts.URL, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestInfeasibleInstance422(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, solver := range []string{"greedy", "scg", "exact"} {
		req := &Request{Format: "json", Rows: [][]int{{0}, {}}, NCols: 1, Solver: solver}
		resp, r := postSolve(t, ts.Client(), ts.URL, req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d (%s), want 422", solver, resp.StatusCode, r.Error)
		}
	}
}

// blockingInjector parks every solve until release is closed; started
// receives one token per solve that reached the worker.
func blockingInjector(started chan struct{}, release chan struct{}) *faultinject.Injector {
	return &faultinject.Injector{
		PreSolve: func(ctx context.Context) error {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	}
}

func TestOverloadRejects429WithRetryAfter(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:  1,
		MaxQueue: 1,
		Fault:    blockingInjector(started, release),
	})

	var wg sync.WaitGroup
	codes := make(chan int, 2)
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postSolve(t, ts.Client(), ts.URL, &Request{Problem: tinyProblem})
			codes <- resp.StatusCode
		}()
	}
	launch() // occupies the single worker
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("no solve started")
	}
	launch() // fills the single queue slot
	deadline := time.Now().Add(5 * time.Second)
	for {
		if q, _ := s.sched.depth(); q == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Worker busy, queue full: the next request must bounce.
	rejected, _ := postSolve(t, ts.Client(), ts.URL, &Request{Problem: tinyProblem})
	if rejected.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", rejected.StatusCode)
	}
	if ra := rejected.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	if s.Stats().RejectedOverload == 0 {
		t.Fatal("rejection counter not incremented")
	}

	close(release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("blocked request finished with %d, want 200", code)
		}
	}
}

func TestInflightByteBudgetRejects429(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxInflightBytes: 64})
	body := `{"problem":"p 1 1\nr 0\n # ` + strings.Repeat("x", 100) + `"}`
	resp, _ := postRaw(t, ts.Client(), ts.URL, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestQueueFullInjection(t *testing.T) {
	inj := &faultinject.Injector{QueueFull: func() bool { return true }}
	_, ts := newTestServer(t, Config{Workers: 1, Fault: inj})
	resp, _ := postSolve(t, ts.Client(), ts.URL, &Request{Problem: tinyProblem})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if inj.QueueFullTrips.Load() != 1 {
		t.Fatalf("QueueFullTrips = %d, want 1", inj.QueueFullTrips.Load())
	}
}

func TestPostSolveFaultFails500(t *testing.T) {
	inj := &faultinject.Injector{PostSolve: func() error { return context.DeadlineExceeded }}
	_, ts := newTestServer(t, Config{Workers: 1, Fault: inj})
	resp, r := postSolve(t, ts.Client(), ts.URL, &Request{Problem: tinyProblem})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if r.Solution != nil {
		t.Fatal("failed solve must not leak a solution")
	}
	if inj.PostSolveCalls.Load() == 0 {
		t.Fatal("PostSolve hook never fired")
	}
}

// TestClientDisconnectCancelsSolve: cancelling the request context must
// reach the in-flight solve's budget context promptly.
func TestClientDisconnectCancelsSolve(t *testing.T) {
	started := make(chan struct{}, 1)
	cancelled := make(chan time.Time, 1)
	inj := &faultinject.Injector{
		PreSolve: func(ctx context.Context) error {
			started <- struct{}{}
			<-ctx.Done()
			cancelled <- time.Now()
			return ctx.Err()
		},
	}
	_, ts := newTestServer(t, Config{Workers: 1, Fault: inj})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(&Request{Problem: tinyProblem})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	go ts.Client().Do(req) //nolint:errcheck // the error IS the point: context cancelled

	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("solve never started")
	}
	t0 := time.Now()
	cancel()
	select {
	case at := <-cancelled:
		if d := at.Sub(t0); d > 2*time.Second {
			t.Fatalf("solve observed the disconnect after %v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solve never observed the client disconnect")
	}
}

// TestClientDisconnectWhileQueued: a job whose client left before a
// worker picked it up is dropped without burning a solve (exercised
// directly on the worker path, where the race is deterministic).
func TestClientDisconnectWhileQueued(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	p, err := ucp.ReadProblem(strings.NewReader(tinyProblem))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone when the worker arrives
	j := &job{req: &Request{Problem: tinyProblem}, prob: p, ctx: ctx, done: make(chan struct{})}
	s.runJob(j)
	if j.status != statusClientGone {
		t.Fatalf("status %d, want internal client-gone marker", j.status)
	}
	if j.res.Solution != nil {
		t.Fatal("abandoned job was still solved")
	}
	if got := s.Stats().ClientGone; got != 1 {
		t.Fatalf("ClientGone = %d, want 1", got)
	}
}

func TestTenantHeaderOverridesBody(t *testing.T) {
	s := New(Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(&Request{Problem: tinyProblem, Tenant: "from-body"})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/solve", bytes.NewReader(body))
	req.Header.Set("X-UCP-Tenant", "from-header")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestTimeoutHeaderValidated(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body, _ := json.Marshal(&Request{Problem: tinyProblem})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/solve", bytes.NewReader(body))
	req.Header.Set("X-UCP-Timeout-Ms", "not-a-number")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestHealthAndStats(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	postSolve(t, ts.Client(), ts.URL, &Request{Problem: tinyProblem, Solver: "exact"})
	postSolve(t, ts.Client(), ts.URL, &Request{Problem: tinyProblem, Solver: "exact"})

	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Accepted != 2 || st.Completed != 2 || st.Status2xx != 2 {
		t.Fatalf("stats accepted=%d completed=%d 2xx=%d, want 2/2/2", st.Accepted, st.Completed, st.Status2xx)
	}
	if s.Stats().Queued != 0 || s.Stats().InflightBytes != 0 {
		t.Fatalf("idle server reports backlog: %+v", s.Stats())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := ts.Client().Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", resp.StatusCode)
	}
}
