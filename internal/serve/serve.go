// Package serve implements ucpd, the solve service: an HTTP+JSON
// front end over the ucp solvers with a bounded admission-controlled
// queue, per-tenant fair-share scheduling, per-request budget
// derivation (client deadline headers clamped by server policy, client
// disconnects cancelling the solve), one shared cross-solve cache
// collapsing identical concurrent requests, anytime SSE streaming of
// improving incumbents, and a draining shutdown.  Failure behaviour is
// testable through the injectable hooks in serve/faultinject.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ucp"
	"ucp/internal/budget"
	"ucp/internal/serve/faultinject"
)

// Config sizes the service.  The zero value of any field selects the
// default noted on it.
type Config struct {
	// MaxQueue bounds the admitted-but-unstarted request count;
	// default 256.  Past it, admission answers 429 with Retry-After.
	MaxQueue int
	// MaxInflightBytes bounds the summed body bytes of every admitted,
	// unfinished request — the memory the service has agreed to hold —
	// default 64 MiB.
	MaxInflightBytes int64
	// MaxRequestBytes bounds one request body; default 8 MiB.
	MaxRequestBytes int64
	// Workers is the solve concurrency; default GOMAXPROCS.
	Workers int
	// DefaultTimeout applies when a request names none; default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps every request's budget; default 2m.  Zero
	// keeps the default — use NoTimeoutCap for genuinely unlimited.
	MaxTimeout time.Duration
	// RetryAfter is advertised on 429/503 rejections; default 1s.
	RetryAfter time.Duration
	// CacheSize is the shared cross-solve cache capacity in entries;
	// default ucp.DefaultCacheSize.  Negative disables the cache.
	CacheSize int
	// MemBudget, when positive, routes SCG covering solves (plain and
	// PLA) through the out-of-core sharded driver with this many bytes
	// of tracked instance memory per solve.  Sharded solves bypass the
	// cross-solve cache; the incremental (keep) path stays direct.
	// Default 0: direct in-memory solves.
	MemBudget int64
	// SpillDir is where sharded solves keep their spill files (empty:
	// the OS temp directory).
	SpillDir string
	// Fault, when non-nil, wires the failure-injection hooks in; nil
	// in production.
	Fault *faultinject.Injector
}

// NoTimeoutCap as Config.MaxTimeout disables the budget clamp.
const NoTimeoutCap = time.Duration(-1)

func (c *Config) fill() {
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	}
	if c.MaxInflightBytes == 0 {
		c.MaxInflightBytes = 64 << 20
	}
	if c.MaxRequestBytes == 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 2 * time.Minute
	} else if c.MaxTimeout == NoTimeoutCap {
		c.MaxTimeout = 0
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = ucp.DefaultCacheSize
	}
}

// Stats is the /stats snapshot.
type Stats struct {
	Accepted         int64 `json:"accepted"`
	Completed        int64 `json:"completed"`
	Streamed         int64 `json:"streamed"`
	RejectedOverload int64 `json:"rejected_overload"` // 429s
	RejectedDraining int64 `json:"rejected_draining"` // 503s (admission + flushed queue)
	ClientGone       int64 `json:"client_gone"`
	Status2xx        int64 `json:"status_2xx"`
	Status4xx        int64 `json:"status_4xx"`
	Status5xx        int64 `json:"status_5xx"`

	Queued        int   `json:"queued"`
	InflightBytes int64 `json:"inflight_bytes"`
	Draining      bool  `json:"draining"`

	Cache   ucp.CacheStats `json:"cache"`
	Resolve ResolveStats   `json:"resolve"`
	Shard   ShardStats     `json:"shard"`
}

// ShardStats aggregates the out-of-core driver's counters across every
// sharded solve (all zero while Config.MemBudget is unset): components
// partitioned, components spilled to disk before solving, components
// evicted-and-reloaded under memory pressure, components degraded to
// greedy completion by their deadline, and the largest tracked byte
// high-water any single solve reached.
type ShardStats struct {
	Components int64 `json:"components"`
	Spilled    int64 `json:"spilled"`
	Respilled  int64 `json:"respilled"`
	Degraded   int64 `json:"degraded"`
	PeakBytes  int64 `json:"peak_bytes"`
}

// statusClientGone marks a job whose client disconnected; nothing is
// ever written for it, so the value never reaches the wire.
const statusClientGone = 499

// Server is the solve service.  Construct with New, mount Handler on
// an http.Server, stop with Shutdown.
type Server struct {
	cfg    Config
	solver *ucp.Solver
	cache  *ucp.Cache
	sched  *scheduler
	fault  *faultinject.Injector
	mux    *http.ServeMux
	keeps  *keepStore

	wg sync.WaitGroup // worker goroutines

	// In-flight budget cancellation for the drain deadline.
	cancelMu    sync.Mutex
	cancels     map[*job]context.CancelFunc
	forceCancel bool

	draining atomic.Bool

	accepted, completed, streamed   atomic.Int64
	rejOverload, rejDraining, gone  atomic.Int64
	status2xx, status4xx, status5xx atomic.Int64

	shardComps, shardSpilled      atomic.Int64 // sums over sharded solves
	shardRespilled, shardDegraded atomic.Int64
	shardPeak                     atomic.Int64 // max over sharded solves

	unknownParents atomic.Int64 // parent ids that missed the keep store
}

// recordShard folds one sharded solve's scheduling profile into the
// /stats aggregates; direct solves report zero components and are
// skipped.
func (s *Server) recordShard(components, spilled, respilled, degraded int, peak int64) {
	if components == 0 {
		return
	}
	s.shardComps.Add(int64(components))
	s.shardSpilled.Add(int64(spilled))
	s.shardRespilled.Add(int64(respilled))
	s.shardDegraded.Add(int64(degraded))
	for {
		old := s.shardPeak.Load()
		if peak <= old || s.shardPeak.CompareAndSwap(old, peak) {
			break
		}
	}
}

// New builds the service and starts its worker pool.
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:     cfg,
		cache:   ucp.NewCache(cfg.CacheSize, ucp.DefaultCacheMinWork),
		sched:   newScheduler(cfg.MaxQueue, cfg.MaxInflightBytes),
		fault:   cfg.Fault,
		cancels: make(map[*job]context.CancelFunc),
		keeps:   newKeepStore(),
	}
	s.solver = ucp.NewSolver(ucp.SolverOptions{Cache: s.cache})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/solve", s.handleSolve)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/stats", s.handleStats)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	q, b := s.sched.depth()
	return Stats{
		Accepted:         s.accepted.Load(),
		Completed:        s.completed.Load(),
		Streamed:         s.streamed.Load(),
		RejectedOverload: s.rejOverload.Load(),
		RejectedDraining: s.rejDraining.Load(),
		ClientGone:       s.gone.Load(),
		Status2xx:        s.status2xx.Load(),
		Status4xx:        s.status4xx.Load(),
		Status5xx:        s.status5xx.Load(),
		Queued:           q,
		InflightBytes:    b,
		Draining:         s.draining.Load(),
		Cache:            s.solver.CacheStats(),
		Resolve:          s.resolveStats(),
		Shard: ShardStats{
			Components: s.shardComps.Load(),
			Spilled:    s.shardSpilled.Load(),
			Respilled:  s.shardRespilled.Load(),
			Degraded:   s.shardDegraded.Load(),
			PeakBytes:  s.shardPeak.Load(),
		},
	}
}

// Shutdown drains the service: admission flips to 503, queued jobs are
// flushed with 503, and in-flight solves run to completion.  Once ctx
// expires the remaining in-flight budgets are cancelled, upon which
// the solvers unwind with their best feasible results (the anytime
// contract) and their clients still get answers.  Returns nil once
// every worker has exited.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	for _, j := range s.sched.drain() {
		j.status = http.StatusServiceUnavailable
		j.res = Response{Final: true, Error: "server draining"}
		j.retryAfter = true // flushed 503s advertise Retry-After too
		s.rejDraining.Add(1)
		s.sched.release(j.bytes)
		close(j.done) // the waiting handler writes the 503 and counts it
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelInflight()
		<-done
	}
	return nil
}

// cancelInflight cancels every tracked in-flight budget and marks any
// job that registers later for immediate cancellation.
func (s *Server) cancelInflight() {
	s.cancelMu.Lock()
	defer s.cancelMu.Unlock()
	s.forceCancel = true
	for _, cancel := range s.cancels {
		cancel()
	}
}

func (s *Server) trackJob(j *job, cancel context.CancelFunc) {
	s.cancelMu.Lock()
	if s.forceCancel {
		cancel()
	}
	s.cancels[j] = cancel
	s.cancelMu.Unlock()
}

func (s *Server) untrackJob(j *job) {
	s.cancelMu.Lock()
	delete(s.cancels, j)
	s.cancelMu.Unlock()
}

// ----- HTTP layer -----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone: nothing left to do
}

func (s *Server) countStatus(status int) {
	switch {
	case status >= 500:
		s.status5xx.Add(1)
	case status >= 400:
		s.status4xx.Add(1)
	default:
		s.status2xx.Add(1)
	}
}

// reject writes an error response with the given status.
func (s *Server) reject(w http.ResponseWriter, status int, err error) {
	s.countStatus(status)
	writeJSON(w, status, Response{Final: true, Error: err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n") //nolint:errcheck
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.reject(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.reject(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxRequestBytes))
			return
		}
		s.reject(w, http.StatusBadRequest, err)
		return
	}
	req, err := DecodeRequest(body)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err)
		return
	}
	// Decode-time parse: a malformed instance is rejected before it
	// consumes queue space or a worker.  The parse cost is linear in
	// the (already capped) body size.
	var prob *ucp.Problem
	var plaFile *ucp.PLA
	if req.Format == "pla" {
		plaFile, err = req.BuildPLA()
	} else {
		prob, err = req.BuildProblem()
	}
	if err != nil {
		var status int
		switch {
		case errors.Is(err, ucp.ErrCoveringLimit):
			// Well-formed but beyond the QM pipeline's explicit
			// covering limit: the client's instance, not our bug.
			status = http.StatusUnprocessableEntity
		case errors.Is(err, ucp.ErrMalformedInput):
			status = http.StatusBadRequest
		default:
			status = http.StatusInternalServerError
		}
		s.reject(w, status, err)
		return
	}
	if t := r.Header.Get("X-UCP-Tenant"); t != "" {
		req.Tenant = t
	}
	if h := r.Header.Get("X-UCP-Timeout-Ms"); h != "" {
		ms, herr := strconv.ParseInt(h, 10, 64)
		if herr != nil || ms < 0 {
			s.reject(w, http.StatusBadRequest, fmt.Errorf("%w: bad X-UCP-Timeout-Ms %q", ucp.ErrMalformedInput, h))
			return
		}
		req.TimeoutMS = ms
	}
	stream := req.Stream || acceptsEventStream(r.Header.Get("Accept"))

	j := &job{
		req:    req,
		prob:   prob,
		pla:    plaFile,
		bytes:  int64(len(body)),
		tenant: req.Tenant,
		ctx:    r.Context(),
		done:   make(chan struct{}),
	}
	if stream {
		j.events = make(chan Response, 1)
	}

	if s.fault.FireQueueFull() {
		s.rejOverload.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		s.reject(w, http.StatusTooManyRequests, ErrOverloaded)
		return
	}
	if err := s.sched.enqueue(j); err != nil {
		switch {
		case errors.Is(err, ErrDraining):
			s.rejDraining.Add(1)
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
			s.reject(w, http.StatusServiceUnavailable, err)
		default:
			s.rejOverload.Add(1)
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
			s.reject(w, http.StatusTooManyRequests, err)
		}
		return
	}
	s.accepted.Add(1)

	if stream {
		s.streamResponse(w, r, j)
		return
	}
	select {
	case <-j.done:
		s.writeJobResult(w, j)
	case <-r.Context().Done():
		// Client gone while queued or solving; the worker observes the
		// same context and accounts the job.
	}
}

// acceptsEventStream reports whether an Accept header lists
// text/event-stream among its comma-separated media ranges (media-type
// parameters ignored, comparison case-insensitive).
func acceptsEventStream(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		if i := strings.IndexByte(part, ';'); i >= 0 {
			part = part[:i]
		}
		if strings.EqualFold(strings.TrimSpace(part), "text/event-stream") {
			return true
		}
	}
	return false
}

// writeJobResult writes a finished job's unary JSON response; shared
// by the plain path and the no-flusher streaming degrade.  Drain-
// flushed jobs advertise Retry-After like the admission rejections.
func (s *Server) writeJobResult(w http.ResponseWriter, j *job) {
	if j.status == statusClientGone {
		return
	}
	if j.retryAfter {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
	}
	s.countStatus(j.status)
	writeJSON(w, j.status, &j.res)
}

func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// ----- worker layer -----

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.sched.dequeue()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one admitted job and publishes its result.
func (s *Server) runJob(j *job) {
	// Deferred calls run last-in first-out: the job's bytes are
	// released before done wakes the waiting handler, as on the drain
	// path, so a client holding its reply never sees them in flight.
	defer close(j.done)
	defer s.sched.release(j.bytes)

	if j.ctx.Err() != nil {
		// The client disconnected while the job sat in the queue:
		// don't burn a worker on an unwanted solve.
		s.gone.Add(1)
		j.status = statusClientGone
		return
	}

	bud, cancel := budget.Derive(j.ctx,
		time.Duration(j.req.TimeoutMS)*time.Millisecond,
		s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	defer cancel()
	s.trackJob(j, cancel)
	defer s.untrackJob(j)

	if err := s.fault.FirePreSolve(bud.Context); err != nil {
		s.fail(j, http.StatusInternalServerError, err)
		return
	}

	t0 := time.Now()
	var resp Response
	var status int
	switch {
	case j.pla != nil:
		resp, status = s.solvePLA(j, bud)
	case j.req.Solver == "greedy":
		resp, status = s.solveGreedy(j, bud)
	case j.req.Solver == "exact":
		resp, status = s.solveExact(j, bud)
	default: // "scg" and ""
		resp, status = s.solveSCG(j, bud)
	}
	if status < 400 {
		if err := s.fault.FirePostSolve(); err != nil {
			s.fail(j, http.StatusInternalServerError, err)
			return
		}
		// Server-side feasibility check: no response leaves with an
		// unverified cover (the acceptance bar for streamed finals,
		// and defence in depth against solver or cache corruption).
		// PLA results verify inside solvePLA instead.
		if j.prob != nil && resp.Solution != nil && !j.prob.IsCover(resp.Solution) {
			s.fail(j, http.StatusInternalServerError,
				errors.New("internal error: solver returned a non-cover"))
			return
		}
	}
	resp.Final = true
	resp.ElapsedMS = time.Since(t0).Milliseconds()
	j.status, j.res = status, resp
	s.completed.Add(1)
}

// fail records a failed job result.
func (s *Server) fail(j *job, status int, err error) {
	j.status = status
	j.res = Response{Final: true, Error: err.Error()}
	s.completed.Add(1)
}

func (s *Server) solveGreedy(j *job, bud ucp.Budget) (Response, int) {
	bud.IterCap = j.req.IterCap
	sol, interrupted, err := ucp.SolveGreedy(j.prob, bud)
	if err != nil {
		if errors.Is(err, ucp.ErrInfeasible) {
			return Response{Error: err.Error()}, http.StatusUnprocessableEntity
		}
		return Response{Error: err.Error()}, http.StatusInternalServerError
	}
	return Response{
		Cost:        j.prob.CostOf(sol),
		Solution:    sol,
		Interrupted: interrupted,
	}, http.StatusOK
}

func (s *Server) solveExact(j *job, bud ucp.Budget) (Response, int) {
	res := s.solver.SolveExact(j.prob, ucp.ExactOptions{
		MaxNodes: j.req.MaxNodes,
		Budget:   bud,
	})
	if res.Solution == nil {
		if res.Interrupted {
			err := res.StopReason.Err()
			return Response{Error: err.Error(), Interrupted: true, StopReason: res.StopReason.String()},
				http.StatusGatewayTimeout
		}
		return Response{Error: ucp.ErrInfeasible.Error()}, http.StatusUnprocessableEntity
	}
	return Response{
		Cost:        res.Cost,
		LB:          float64(res.LB),
		Solution:    res.Solution,
		Optimal:     res.Optimal,
		Interrupted: res.Interrupted,
		StopReason:  stopString(res.Interrupted, res.StopReason),
		CacheHit:    res.CacheHit,
	}, http.StatusOK
}

func (s *Server) solveSCG(j *job, bud ucp.Budget) (Response, int) {
	if j.req.Keep || j.req.Parent != "" {
		return s.solveSCGKeep(j, bud)
	}
	bud.IterCap = j.req.IterCap
	opt := ucp.SCGOptions{
		Seed:      j.req.Seed,
		NumIter:   j.req.NumIter,
		Budget:    bud,
		MemBudget: s.cfg.MemBudget,
		SpillDir:  s.cfg.SpillDir,
	}
	if j.events != nil {
		events := j.events
		opt.OnImprove = func(sol []int, cost int, lb float64) {
			conflateSend(events, Response{Cost: cost, LB: lb, Solution: sol})
		}
	}
	res := s.solver.SolveSCG(j.prob, opt)
	s.recordShard(res.Stats.ShardComponents, res.Stats.ShardSpilled,
		res.Stats.ShardRespilled, res.Stats.ShardDegraded, res.Stats.ShardPeakBytes)
	if res.Solution == nil {
		if res.Interrupted {
			err := res.StopReason.Err()
			return Response{Error: err.Error(), Interrupted: true, StopReason: res.StopReason.String()},
				http.StatusGatewayTimeout
		}
		return Response{Error: ucp.ErrInfeasible.Error()}, http.StatusUnprocessableEntity
	}
	return Response{
		Cost:        res.Cost,
		LB:          res.LB,
		Solution:    res.Solution,
		Optimal:     res.ProvedOptimal,
		Interrupted: res.Interrupted,
		StopReason:  stopString(res.Interrupted, res.StopReason),
		CacheHit:    res.Stats.CacheHits > 0,
	}, http.StatusOK
}

// equivalentCheckMaxInputs bounds the server-side equivalence
// verification of PLA results: beyond it the symbolic containment
// recursion is not guaranteed cheap, and the worker must stay bounded
// by the request budget alone.  The dense/consensus differential
// fuzzers carry the correctness burden for the larger instances.
const equivalentCheckMaxInputs = 14

// solvePLA runs the two-level minimisation pipeline on a format "pla"
// job.  Streaming jobs emit only the final record: the pipeline's
// incumbents are covering columns over an instance the client never
// sees, so there is nothing meaningful to push before the cover maps
// back.
func (s *Server) solvePLA(j *job, bud ucp.Budget) (Response, int) {
	bud.IterCap = j.req.IterCap
	var res *ucp.TwoLevelResult
	var err error
	if j.req.Solver == "exact" {
		res, err = s.solver.MinimizeExact(j.pla, ucp.ExactOptions{
			MaxNodes: j.req.MaxNodes,
			Budget:   bud,
		})
	} else {
		res, err = s.solver.MinimizeSCG(j.pla, ucp.SCGOptions{
			Seed:      j.req.Seed,
			NumIter:   j.req.NumIter,
			Budget:    bud,
			MemBudget: s.cfg.MemBudget,
			SpillDir:  s.cfg.SpillDir,
		})
	}
	if err != nil {
		switch {
		case errors.Is(err, ucp.ErrCoveringLimit):
			return Response{Error: err.Error()}, http.StatusUnprocessableEntity
		case errors.Is(err, ucp.ErrBudgetExceeded):
			return Response{Error: err.Error(), Interrupted: true}, http.StatusGatewayTimeout
		default:
			return Response{Error: err.Error()}, http.StatusInternalServerError
		}
	}
	s.recordShard(res.ShardComponents, res.ShardSpilled,
		res.ShardRespilled, res.ShardDegraded, res.ShardPeakBytes)
	if j.pla.F.S.Inputs() <= equivalentCheckMaxInputs && !ucp.Equivalent(j.pla, res.Cover) {
		return Response{Error: "internal error: minimiser returned a non-equivalent cover"},
			http.StatusInternalServerError
	}
	cover := make([]string, res.Cover.Len())
	for i, c := range res.Cover.Cubes {
		cover[i] = res.Cover.S.String(c)
	}
	return Response{
		Cost:        res.Products,
		LB:          res.LB,
		Optimal:     res.ProvedOptimal,
		Interrupted: res.Interrupted,
		StopReason:  stopString(res.Interrupted, res.StopReason),
		CacheHit:    res.CacheHits > 0,
		Cover:       cover,
		Literals:    res.Literals,
	}, http.StatusOK
}

func stopString(interrupted bool, r ucp.StopReason) string {
	if !interrupted {
		return ""
	}
	return r.String()
}
