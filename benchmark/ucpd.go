package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"ucp"
	"ucp/internal/benchmarks"
	"ucp/internal/canon"
	"ucp/internal/matrix"
	"ucp/internal/pla"
	"ucp/internal/serve"
)

// The ucpd-mix workload: an in-repo solve service (serve.New) runs in a
// child process on loopback, and this process drives it through at
// most nproc connections.
//
// The untraced run is a closed loop of one caller that waits for each
// reply, in whole passes of the same passBlocks blocks, each pass
// against a freshly started and warmed service, so every pass does the
// same work and gets the same answers.  One request at a time runs
// alone on the service, so its latency is its own work, not the
// scheduler's share-out between it and a concurrent solve.
//
// The traced run is an open loop: independent users arriving on a
// Poisson schedule fixed by the seed, through nproc connections, each
// request timed from when it was due, which attributes the time
// requests spend queued behind one another.
const (
	// ucpdRate is the traced open loop's arrival rate, calibrated on a
	// 2-core host to about a quarter of the rate the service sustains:
	// light enough that most hits run beside no solve.
	ucpdRate = 40.0
	// passBlocks is the number of blocks of twenty requests in one pass
	// of the closed loop: about 4 s on a 2-core host.
	passBlocks = 20
	hitSetSize = 8
	editChains = 4
	// Matrix instances: sparse cyclic cores of this shape solve in about
	// 30 ms, cold.
	mixRows, mixCols, mixDegree = 90, 60, 4
	requestTimeoutMS            = 20_000
)

// classBlock is one block of twenty requests: 75% hits on instances
// warmed during set-up, 15% fresh instances (cache misses that store),
// 5% one-row edits down keep/parent chains, 5% small PLAs.  The seed
// shuffles each block, so every block carries the exact mix and runs
// differ in order, not in proportions.  With fewer hits the median
// falls among hits slowed by a concurrent solve and swings with the
// host's speed.
var classBlock = []string{
	"hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit", "hit",
	"miss", "miss", "miss", "edit", "pla",
}

// mixRequest is one request of the mix.  Edits carry their chain, step
// number and target problem; their body is built when sent, once the
// parent's solve_id is known.
type mixRequest struct {
	class string
	body  []byte
	prob  *matrix.Problem // matrix classes: the instance, for checking
	text  []byte          // pla: the function, for checking
	chain *editChain
	step  int
}

// scheduled is an open-loop request and when it is due, as an offset
// from the phase start.
type scheduled struct {
	req *mixRequest
	due time.Duration
}

// editChain is one keep/parent chain.  Its steps are numbered as they
// are drawn, the root being step 0, and sent strictly in that order: a
// step waits until the step before it has answered and names that
// step's solve_id as its parent.
type editChain struct {
	mu     sync.Mutex
	turn   *sync.Cond
	drawn  int    // steps drawn after the root
	done   int    // steps answered
	parent string // solve_id of the latest answered step
	root   *matrix.Problem
	prob   *matrix.Problem // the last step drawn
	rng    *rand.Rand
}

func newEditChain(root *matrix.Problem, seed int64) *editChain {
	c := &editChain{root: root, prob: root, rng: rand.New(rand.NewSource(seed))}
	c.turn = sync.NewCond(&c.mu)
	return c
}

// wait blocks until step is next to send and returns its parent.
func (c *editChain) wait(step int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.done != step {
		c.turn.Wait()
	}
	return c.parent
}

// answered passes the turn on, recording the step's solve_id when it
// has one; a failed step leaves its own parent to the next.
func (c *editChain) answered(solveID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if solveID != "" {
		c.parent = solveID
	}
	c.done++
	c.turn.Broadcast()
}

// Seeds of the mix's fixed instances, one range per class: the k-th
// instance of a class is the same in every run.
const (
	hitSeed   = 1_000
	chainSeed = 2_000
	missSeed  = 1_000_000
	plaSeed   = 2_000_000
)

// mixGen generates the mix's requests.  The instances are fixed; the
// seed draws the traffic: the order of the classes within each block
// and the arrival times.  Hits and edit chains are used round-robin, so
// every run of the same length sends the same requests and gets the
// same answers, and two seeds differ only by the host's noise.
type mixGen struct {
	rng    *rand.Rand
	hits   []*mixRequest
	chains []*editChain
	block  []string
	drawn  map[string]int // requests drawn per class
	short  bool
}

func newMixGen(seed int64, short bool) *mixGen {
	g := &mixGen{rng: rand.New(rand.NewSource(seed)), drawn: map[string]int{}, short: short}
	for i := 0; i < hitSetSize; i++ {
		g.hits = append(g.hits, g.matrixRequest("hit", g.cyclic(hitSeed+int64(i))))
	}
	for i := 0; i < editChains; i++ {
		g.chains = append(g.chains, newEditChain(g.cyclic(chainSeed+int64(i)), chainSeed+editChains+int64(i)))
	}
	return g
}

func (g *mixGen) cyclic(seed int64) *matrix.Problem {
	if g.short {
		return benchmarks.CyclicCovering(seed, 30, 20, 3)
	}
	return benchmarks.CyclicCovering(seed, mixRows, mixCols, mixDegree)
}

func (g *mixGen) matrixRequest(class string, p *matrix.Problem) *mixRequest {
	return &mixRequest{class: class, prob: p, body: marshal(scgRequest(p))}
}

func scgRequest(p *matrix.Problem) serve.Request {
	return serve.Request{Format: "json", Rows: p.Rows, NCols: p.NCol, Costs: p.Cost, NumIter: 2, Seed: 1, TimeoutMS: requestTimeoutMS}
}

func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of ints and strings always marshal
	}
	return b
}

// next returns the next request of the stratified class sequence.
func (g *mixGen) next() *mixRequest {
	if len(g.block) == 0 {
		g.block = append([]string(nil), classBlock...)
		g.rng.Shuffle(len(g.block), func(a, b int) { g.block[a], g.block[b] = g.block[b], g.block[a] })
	}
	class := g.block[0]
	g.block = g.block[1:]
	k := g.drawn[class]
	g.drawn[class]++
	switch class {
	case "hit":
		return g.hits[k%len(g.hits)]
	case "miss":
		return g.matrixRequest("miss", g.cyclic(missSeed+int64(k)))
	case "edit":
		c := g.chains[k%len(g.chains)]
		c.prob = addRow(c.prob, c.rng)
		c.drawn++
		return &mixRequest{class: "edit", prob: c.prob, chain: c, step: c.drawn}
	default:
		in := benchmarks.Instance{Inputs: 7, Outputs: 2, Kernels: 2, KernelVars: 4, Seed: plaSeed + int64(k)}
		var buf bytes.Buffer
		if err := in.PLA().Write(&buf); err != nil {
			panic(err) // writes to a bytes.Buffer cannot fail
		}
		return &mixRequest{class: "pla", text: buf.Bytes(),
			body: marshal(serve.Request{Format: "pla", Problem: buf.String(), Seed: 1, TimeoutMS: requestTimeoutMS})}
	}
}

// addRow returns p plus one random row of the workload's degree.
func addRow(p *matrix.Problem, rng *rand.Rand) *matrix.Problem {
	seen := map[int]bool{}
	var row []int
	for len(row) < min(mixDegree, p.NCol) {
		if j := rng.Intn(p.NCol); !seen[j] {
			seen[j] = true
			row = append(row, j)
		}
	}
	rows := append(append([][]int(nil), p.Rows...), row)
	q, err := matrix.New(rows, p.NCol, p.Cost)
	if err != nil {
		panic(err) // every column id is in range
	}
	return q
}

// draw returns the next n requests of the sequence.
func (g *mixGen) draw(n int) []*mixRequest {
	out := make([]*mixRequest, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// schedule draws an open loop: n = rate·d arrivals, rounded up to whole
// blocks, with due times spread as a Poisson process conditioned on its
// count (sorted uniform offsets), so every seed sends the same
// requests.
func (g *mixGen) schedule(rate float64, d time.Duration) []scheduled {
	b := len(classBlock)
	n := (int(rate*d.Seconds()+0.5) + b - 1) / b * b
	dues := make([]float64, n)
	for i := range dues {
		dues[i] = g.rng.Float64() * d.Seconds()
	}
	sort.Float64s(dues)
	out := make([]scheduled, n)
	for i := range out {
		out[i] = scheduled{req: g.next(), due: time.Duration(dues[i] * float64(time.Second))}
	}
	return out
}

// reply is one request's outcome, with its timeline relative to the
// phase start.
type reply struct {
	req             *mixRequest
	body            []byte // as sent
	status          int
	resp            serve.Response
	err             error
	due, sent, done time.Duration
	lag             time.Duration // how late the generator dispatched it
}

func (r *reply) latency() time.Duration { return r.done - r.due }

type client struct {
	hc  *http.Client
	url string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * requestTimeoutMS * time.Millisecond}, url: base}
}

func (c *client) post(body []byte) (int, serve.Response, error) {
	var resp serve.Response
	hr, err := c.hc.Post(c.url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, resp, err
	}
	defer hr.Body.Close()
	data, err := io.ReadAll(hr.Body)
	if err != nil {
		return hr.StatusCode, resp, err
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return hr.StatusCode, resp, fmt.Errorf("decoding reply: %w", err)
	}
	return hr.StatusCode, resp, nil
}

// send issues one request, holding an edit until its chain's previous
// step has answered.
func (c *client) send(r *mixRequest, start time.Time) reply {
	rep := reply{req: r, body: r.body}
	if r.chain != nil {
		q := scgRequest(r.prob)
		q.Keep, q.Parent = true, r.chain.wait(r.step)
		rep.body = marshal(q)
	}
	rep.sent = time.Since(start)
	rep.status, rep.resp, rep.err = c.post(rep.body)
	rep.done = time.Since(start)
	if r.chain != nil {
		id := ""
		if rep.err == nil && rep.status == http.StatusOK {
			id = rep.resp.SolveID
		}
		r.chain.answered(id)
	}
	return rep
}

// openLoop sends reqs on their schedule through conns connections.
func (c *client) openLoop(reqs []scheduled, conns int) []reply {
	replies := make([]reply, len(reqs))
	lags := make([]time.Duration, len(reqs))
	queue := make(chan int, len(reqs)) // sized to the number of sends
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				replies[i] = c.send(reqs[i].req, start)
			}
		}()
	}
	for i, r := range reqs {
		time.Sleep(time.Until(start.Add(r.due)))
		lags[i] = time.Since(start) - r.due
		queue <- i
	}
	close(queue)
	wg.Wait()
	for i := range replies {
		replies[i].due, replies[i].lag = reqs[i].due, lags[i]
	}
	return replies
}

// closedLoop sends reqs one at a time, each once the previous one has
// answered and timed from its send.  It returns the replies and the
// time until the last one arrived.
func (c *client) closedLoop(reqs []*mixRequest) ([]reply, time.Duration) {
	out := make([]reply, len(reqs))
	start := time.Now()
	for i, r := range reqs {
		out[i] = c.send(r, start)
		out[i].due = out[i].sent
	}
	return out, time.Since(start)
}

func (c *client) stats() (serve.Stats, error) {
	var st serve.Stats
	hr, err := c.hc.Get(c.url + "/stats")
	if err != nil {
		return st, err
	}
	defer hr.Body.Close()
	return st, json.NewDecoder(hr.Body).Decode(&st)
}

// serverProc is the service's child process.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	url   string
}

// serverRuntime is the service process's allocation and GC record,
// written when it stops.
type serverRuntime struct {
	AllocBytes    uint64  `json:"alloc_bytes"`
	GCCycles      uint32  `json:"gc_cycles"`
	GCCPUFraction float64 `json:"gc_cpu_fraction"`
	PeakRSSMB     float64 `json:"peak_rss_mb"` // the service's VmHWM
}

func startServer(workers int) (*serverProc, error) {
	cmd, err := childCmd("serve")
	if err != nil {
		return nil, err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	if _, err := fmt.Fprintf(stdin, "%d\n", workers); err != nil {
		s.stop()
		return nil, err
	}
	addr, err := s.out.ReadString('\n')
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("service did not start: %w", err)
	}
	s.url = "http://" + strings.TrimSpace(addr)
	return s, nil
}

// stop closes the service's stdin, which drains and stops it, and
// waits for it to exit.
func (s *serverProc) stop() (serverRuntime, error) {
	var rt serverRuntime
	s.stdin.Close()
	done := make(chan error, 1)
	go func() {
		err := json.NewDecoder(s.out).Decode(&rt)
		if werr := s.cmd.Wait(); err == nil {
			err = werr
		}
		done <- err
	}()
	select {
	case err := <-done:
		return rt, err
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-done
		return rt, errors.New("service did not stop; killed")
	}
}

// serveChild runs the solve service on a loopback port until its stdin
// closes: it reads the worker count, prints the address, and on
// shutdown prints its runtime record.
func serveChild(stdin io.Reader, stdout io.Writer) error {
	in := bufio.NewReader(stdin)
	var workers int
	if _, err := fmt.Fscanln(in, &workers); err != nil {
		return fmt.Errorf("reading worker count: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{Workers: workers})
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if _, err := fmt.Fprintln(stdout, ln.Addr()); err != nil {
		return err
	}
	io.Copy(io.Discard, in) //nolint:errcheck // any end of stdin means stop
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(serverRuntime{AllocBytes: mst.TotalAlloc, GCCycles: mst.NumGC, GCCPUFraction: mst.GCCPUFraction, PeakRSSMB: rss})
}

// warm sends every hit instance once, so later hits find them cached,
// and roots every edit chain with a keep solve.  It returns the hit
// instances' costs.
func warm(c *client, g *mixGen) (map[*mixRequest]int, error) {
	costs := map[*mixRequest]int{}
	for _, h := range g.hits {
		rep := c.send(h, time.Now())
		if err := rep.check(); err != nil {
			return nil, fmt.Errorf("warming the cache: %w", err)
		}
		costs[h] = rep.resp.Cost
	}
	for _, ch := range g.chains {
		rep := c.send(&mixRequest{class: "edit", prob: ch.root, chain: ch, step: 0}, time.Now())
		if err := rep.check(); err != nil {
			return nil, fmt.Errorf("rooting an edit chain: %w", err)
		}
	}
	return costs, nil
}

// service is a running solve service, warmed for a generator, and a
// client for it.
type service struct {
	proc     *serverProc
	c        *client
	hitCosts map[*mixRequest]int
}

func startWarm(cfg runConfig, g *mixGen) (*service, error) {
	proc, err := startServer(cfg.workers)
	if err != nil {
		return nil, err
	}
	c := newClient(proc.url, cfg.workers)
	costs, err := warm(c, g)
	if err != nil {
		proc.stop()
		return nil, err
	}
	return &service{proc: proc, c: c, hitCosts: costs}, nil
}

// passRequests is the length of one closed-loop pass.
func passRequests(short bool) int {
	if short {
		return 2 * len(classBlock)
	}
	return passBlocks * len(classBlock)
}

func runUcpdMix(cfg runConfig) (*outcome, error) {
	if cfg.trace {
		return traceUcpdMix(cfg)
	}
	// Set-up generates a pass's requests, starts a service and warms it.
	// Each repeat stops the previous service first, untimed.  The pass
	// is drawn after warming, because drawing edits advances the chains
	// past their roots.
	n := passRequests(cfg.short)
	var svc *service
	var reqs []*mixRequest
	stop := func() (serverRuntime, error) {
		if svc == nil {
			return serverRuntime{}, nil
		}
		rt, err := svc.proc.stop()
		svc = nil
		return rt, err
	}
	defer stop() //nolint:errcheck // only an early return leaves a service running
	setup := func() (time.Duration, error) {
		if _, err := stop(); err != nil {
			return 0, err
		}
		t0 := time.Now()
		g := newMixGen(cfg.seed, cfg.short)
		var err error
		if svc, err = startWarm(cfg, g); err != nil {
			return 0, err
		}
		reqs = g.draw(n)
		return time.Since(t0), nil
	}
	setups, err := setupRound(nil, minSetups, cfg.setupSpan(), setup)
	if err != nil {
		return nil, err
	}

	// Passes run until the measured time is spent, each against the
	// service its own set-up started, and peak_rss_mb is the median of
	// the services' peaks.  Every pass sends the same requests, so each
	// must answer them at the costs the first pass did.
	out := &outcome{metrics: map[string]float64{}}
	var first []reply
	var lat, rss []float64
	var elapsed time.Duration
	passes := 0
	for ; passes == 0 || elapsed.Seconds() < cfg.seconds; passes++ {
		if passes > 0 {
			if setups, err = setupRound(setups, 1, 0, setup); err != nil {
				return nil, err
			}
		}
		hitCosts := svc.hitCosts
		reps, d := svc.c.closedLoop(reqs)
		rt, err := stop()
		if err != nil {
			return nil, err
		}
		elapsed += d
		rss = append(rss, rt.PeakRSSMB)
		if first == nil {
			first = reps
		}
		for i := range reps {
			want, ok := hitCosts[reps[i].req]
			if !ok {
				want = first[i].resp.Cost
			}
			out.tally(&reps[i], want)
			lat = append(lat, ms(int64(reps[i].latency())))
		}
	}

	s := sortedCopy(lat)
	p := tailPercentile(4 * n) // a run is planned as at least four passes
	m := out.metrics
	m["setup_s"] = median(setups)
	m["throughput"] = float64(len(lat)) / elapsed.Seconds()
	m["latency_p50_ms"] = quantile(s, 0.5)
	m["latency_tail_ms"] = quantile(s, p/100)
	m["peak_rss_mb"] = median(rss)
	cost, bound := 0, 0
	for _, r := range first {
		cost += r.resp.Cost
		bound += ceilLB(r.resp.LB)
	}
	m["cost_total"] = float64(cost)
	m["cost_bound_ratio"] = float64(cost) / float64(max(bound, 1))
	out.note("%d requests in %d passes of %d from one waiting caller over %.1f s; tail is p%.1f with %d samples beyond it",
		len(lat), passes, n, elapsed.Seconds(), p, beyond(s, p))
	return out, nil
}

// traceUcpdMix runs the open loop against one warmed service for the
// whole time and derives the per-layer metrics from it.
func traceUcpdMix(cfg runConfig) (*outcome, error) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	g := newMixGen(cfg.seed, cfg.short)
	svc, err := startWarm(cfg, g)
	if err != nil {
		return nil, err
	}
	reps := svc.c.openLoop(g.schedule(ucpdRate, total), cfg.workers)
	st, statsErr := svc.c.stats()
	rt, err := svc.proc.stop()
	if err != nil {
		return nil, err
	}
	if statsErr != nil {
		return nil, statsErr
	}
	out := &outcome{metrics: map[string]float64{}}
	busy := 0.0
	for i := range reps {
		want, ok := svc.hitCosts[reps[i].req]
		if !ok {
			want = -1
		}
		out.tally(&reps[i], want)
		busy += float64(reps[i].resp.ElapsedMS) / 1e3
	}
	util := busy / (float64(cfg.workers) * total.Seconds())
	out.note("open loop: %d requests at %.0f/s over %.1f s through %d connections, service %.0f%% busy",
		len(reps), ucpdRate, total.Seconds(), cfg.workers, 100*util)
	mixLayerMetrics(out, reps, st, rt, util)
	return out, nil
}

// tally counts a reply as attempted and, when it fails its check or
// answers another cost than want (unless want < 0), as failed.
func (o *outcome) tally(r *reply, want int) {
	o.attempted++
	err := r.check()
	if err == nil && want >= 0 && r.resp.Cost != want {
		err = fmt.Errorf("answered cost %d, expected %d", r.resp.Cost, want)
	}
	if err != nil {
		o.failed++
		if o.failed <= 5 {
			o.note("%s request failed: %v", r.req.class, err)
		}
	}
}

// check verifies a reply without trusting the service: matrix answers
// must cover the instance at the reported cost, PLA answers must
// implement the function, and no bound may exceed its cost.
func (r *reply) check() error {
	switch {
	case r.err != nil:
		return r.err
	case r.status != http.StatusOK:
		return fmt.Errorf("status %d: %s", r.status, r.resp.Error)
	case r.resp.Interrupted:
		return fmt.Errorf("solve interrupted (%s)", r.resp.StopReason)
	}
	if r.req.text != nil {
		f, err := pla.Parse(bytes.NewReader(r.req.text))
		if err != nil {
			return err
		}
		cover, err := parseCover(f, r.resp.Cover)
		if err != nil {
			return err
		}
		if cover.Len() != r.resp.Cost || !ucp.Equivalent(f, cover) {
			return fmt.Errorf("cover does not implement the function at cost %d", r.resp.Cost)
		}
	} else {
		p := r.req.prob
		if !p.IsCover(r.resp.Solution) || p.CostOf(r.resp.Solution) != r.resp.Cost {
			return fmt.Errorf("solution is not a cover at cost %d", r.resp.Cost)
		}
	}
	return checkBound(r.resp.Cost, r.resp.LB)
}

// mixLayerMetrics derives the service's per-layer metrics from phase
// A: client-side spans, the server's own solve time (elapsed_ms),
// replays of request decoding and problem fingerprinting, and /stats.
//
// The spans come from the timestamps every request takes anyway and
// are assembled after the phase, so tracing adds nothing to the
// requests' path and trace.overhead_pct reads zero.  Server-side queue
// and HTTP time is what remains of the round trip after the solve and
// the replayed decode; trace.reconcile_pct is the share of the op time
// those two over-attribute (remainders below zero), so zero means the
// stages account for the time exactly.
func mixLayerMetrics(out *outcome, reps []reply, st serve.Stats, rt serverRuntime, util float64) {
	m := out.metrics
	rec := newRecorder()
	decodeMS := map[string]float64{} // per distinct body
	fingerprinted := map[*matrix.Problem]bool{}
	var fpMS, solve, queue, lags, lat []float64
	var over float64
	class := map[string][]float64{}
	for i, r := range reps {
		root := len(rec.spans)
		rec.spans = append(rec.spans,
			span{Name: "op", Op: i, Parent: -1, Start: int64(r.due), End: int64(r.done)},
			span{Name: "gen.wait", Op: i, Parent: root, Start: int64(r.due), End: int64(r.sent)},
			span{Name: "http.roundtrip", Op: i, Parent: root, Start: int64(r.sent), End: int64(r.done)})
		d, ok := decodeMS[string(r.body)]
		if !ok {
			k := rec.begin("serve.DecodeRequest", i, -1)
			decodeBody(r.body)
			rec.end(k)
			d = ms(rec.spans[k].dur())
			decodeMS[string(r.body)] = d
		}
		if p := r.req.prob; p != nil && !fingerprinted[p] {
			fingerprinted[p] = true
			k := rec.begin("canon.Fingerprint128", i, -1)
			canon.Fingerprint128(p)
			rec.end(k)
			fpMS = append(fpMS, ms(rec.spans[k].dur()))
		}
		el := float64(r.resp.ElapsedMS)
		q := ms(int64(r.done-r.sent)) - el - d
		over += min(0, q)
		solve = append(solve, el)
		queue = append(queue, q)
		lags = append(lags, ms(int64(r.lag)))
		lat = append(lat, ms(int64(r.latency())))
		class[r.req.class] = append(class[r.req.class], ms(int64(r.latency())))
		m["serve.decode_ms"] += d / float64(len(reps))
	}
	ss, qs := sortedCopy(solve), sortedCopy(queue)
	m["serve.solve_ms_p50"], m["serve.solve_ms_p99"] = quantile(ss, 0.5), quantile(ss, 0.99)
	m["serve.queue_ms_p50"], m["serve.queue_ms_p99"] = quantile(qs, 0.5), quantile(qs, 0.99)
	m["gen.lag_ms_p99"] = quantile(sortedCopy(lags), 0.99)
	for _, c := range []string{"hit", "miss", "edit", "pla"} {
		m["serve.class_"+c+"_ms_p50"] = median(class[c])
	}
	m["canon.fingerprint_ms"] = mean(fpMS)
	m["serve.utilization"] = util
	m["serve.status_4xx"] = float64(st.Status4xx)
	m["serve.status_5xx"] = float64(st.Status5xx)
	m["serve.rejected_overload"] = float64(st.RejectedOverload)
	cs := st.Cache
	m["solvecache.hits"] = float64(cs.Hits)
	m["solvecache.misses"] = float64(cs.Misses)
	m["solvecache.dedups"] = float64(cs.Dedups)
	m["solvecache.stores"] = float64(cs.Stores)
	m["solvecache.evictions"] = float64(cs.Evictions)
	if n := cs.Hits + cs.Misses; n > 0 {
		m["solvecache.hit_ratio"] = float64(cs.Hits) / float64(n)
	}
	m["resolve.parent_hits"] = float64(st.Resolve.ParentHits)
	m["resolve.comps_reused"] = float64(st.Resolve.CompsReused)
	m["resolve.comps_solved"] = float64(st.Resolve.CompsSolved)
	m["resolve.replay_fraction"] = st.Resolve.ReplayFraction
	if st.Completed > 0 {
		m["runtime.alloc_mb_per_op"] = float64(rt.AllocBytes) / float64(st.Completed) / (1 << 20)
		m["runtime.gc_cycles"] = float64(rt.GCCycles) / float64(st.Completed)
	}
	m["runtime.gc_cpu_fraction"] = rt.GCCPUFraction
	opMS := mean(lat)
	m["trace.overhead_pct"] = 0
	m["trace.reconcile_pct"] = 100 * over / float64(len(reps)) / opMS
	out.spans = rec.spans

	out.note("request %.2f ms (mean from due time over %d requests)", opMS, len(reps))
	layerTable(out, opMS, []layerTime{
		{"client queue", spanTotals(rec.spans)["gen.wait"] / float64(len(reps))},
		{"serve queue", mean(queue)},
		{"serve decode", m["serve.decode_ms"]},
		{"serve solve", mean(solve)},
	})
	out.note("  of which solvecache fingerprinting %.3f ms per distinct instance; hit ratio %.2f", m["canon.fingerprint_ms"], m["solvecache.hit_ratio"])
}

// decodeBody replays the service's decode-time work on one body.
func decodeBody(body []byte) {
	req, err := serve.DecodeRequest(body)
	if err != nil {
		return
	}
	if req.Format == "pla" {
		req.BuildPLA() //nolint:errcheck // replay for timing only
	} else {
		req.BuildProblem() //nolint:errcheck // replay for timing only
	}
}
