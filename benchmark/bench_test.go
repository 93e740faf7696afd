package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ucp"
	"ucp/internal/benchmarks"
	"ucp/internal/pla"
	"ucp/internal/serve"
)

// The smoke test re-executes the test binary as the workloads' child
// processes.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 50}, {100, 90}, {150, 93.333}, {160, 93.75}, {200, 95}, {1000, 99}, {5000, 99}} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("tailPercentile(%d) = %.3f, want %.3f", c.n, got, c.want)
		}
	}
	for n := 20; n <= 1000; n += 7 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		p := tailPercentile(n)
		if k := beyond(s, p); k < 10 || (p < 99 && k > 11) {
			t.Errorf("n=%d p%.2f leaves %d samples beyond, want 10", n, p, k)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 5}, [3]float64{5, 5, 5}},
		{[]float64{1.5, 2.5, 10, 4, 7, 3.25, 8}, [3]float64{2.5, 4, 8}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestOpenLoopTimesFromDue stalls the first request of an open loop on
// one connection: the requests due behind it must be charged the stall
// they waited through, which timing from the send would hide.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 300 * time.Millisecond
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		json.NewEncoder(w).Encode(serve.Response{Final: true})
	}))
	defer ts.Close()
	req := &mixRequest{class: "hit", body: []byte(`{}`)}
	var sched []scheduled
	for i := 0; i < 5; i++ {
		sched = append(sched, scheduled{req: req, due: time.Duration(i) * 20 * time.Millisecond})
	}
	reps := newClient(ts.URL, 1).openLoop(sched, 1)
	for i, r := range reps[1:] {
		if want := stall - sched[i+1].due - 20*time.Millisecond; r.latency() < want {
			t.Errorf("request due at %v: latency %v, want at least %v", sched[i+1].due, r.latency(), want)
		}
		if r.sent-r.due < stall/2 {
			t.Errorf("request due at %v was sent %v after its due time; the stall should have held it", sched[i+1].due, r.sent-r.due)
		}
	}
}

func TestSelfTimesAndReconcile(t *testing.T) {
	const msNS = int64(time.Millisecond)
	spans := []span{
		{Name: "op", Op: 0, Parent: -1, Start: 0, End: 100 * msNS},
		{Name: "a", Op: 0, Parent: 0, Start: 10 * msNS, End: 40 * msNS},
		{Name: "b", Op: 0, Parent: 0, Start: 30 * msNS, End: 70 * msNS},  // overlaps a
		{Name: "c", Op: 0, Parent: 0, Start: 90 * msNS, End: 120 * msNS}, // runs past the root
		{Name: "replay", Op: 0, Parent: -1, Start: 200 * msNS, End: 205 * msNS},
	}
	self := selfTimes(spans)
	// The children cover [10,70) and [90,100) of the root: 70 ms.
	if got := self["op"]; got != 30*msNS {
		t.Errorf("root self time %v ms, want 30", ms(got))
	}
	if got := self["b"]; got != 40*msNS {
		t.Errorf("leaf self time %v ms, want its duration 40", ms(got))
	}
	if got := spanTotals(spans)["replay"]; got != 5 {
		t.Errorf("replay total %v ms, want 5", got)
	}
	// Against an untraced op of 80 ms: the root (100 ms) reads 25%
	// over, the stages (30+40+30 = 100 ms) likewise.
	over, rec := reconcile(spans, 80)
	if math.Abs(over-25) > 1e-9 || math.Abs(rec-25) > 1e-9 {
		t.Errorf("reconcile = %.3f%%, %.3f%%, want 25%%, 25%%", over, rec)
	}
	spans[3].End = 95 * msNS // stages now 30+40+5 = 75 ms against a 100 ms root
	if over, rec = reconcile(spans, 100); over != 0 || math.Abs(rec+25) > 1e-9 {
		t.Errorf("reconcile = %.3f%%, %.3f%%, want 0%%, -25%%", over, rec)
	}
}

// TestSeedKeepsTheWork checks the premise of the pool workloads: the
// seed moves what the program reads, not the work it does.  A shuffled
// PLA and an OR-Library instance with its column blocks moved must be
// solved at the same cost and bound with the same subgradient work.
func TestSeedKeepsTheWork(t *testing.T) {
	f := benchmarks.Challenging()[0].PLA() // ex1010: a 226×326 cyclic core
	opt := ucp.SCGOptions{Workers: 2}
	base, err := ucp.MinimizeSCG(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	spec := orlibSpecs(true)[0]
	identity := make([]int, spec.Components)
	for k := range identity {
		identity[k] = k
	}
	solveMoved := func(blocks []int) *ucp.SCGResult {
		var buf bytes.Buffer
		if err := writeORLibMoved(&buf, spec, blocks); err != nil {
			t.Fatal(err)
		}
		res, err := ucp.SolveSCGORLib(&buf, ucp.SCGOptions{Workers: 2, MemBudget: 4 << 10, SpillDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	baseOR := solveMoved(identity)
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		text, err := shuffleCubes(f, rng)
		if err != nil {
			t.Fatal(err)
		}
		g, err := pla.Parse(bytes.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		res, err := ucp.MinimizeSCG(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Products != base.Products || res.Literals != base.Literals || res.LB != base.LB || res.CoreRows != base.CoreRows || res.CoreCols != base.CoreCols {
			t.Errorf("PLA seed %d: cost %d/%d, LB %v, core %dx%d; unshuffled %d/%d, %v, %dx%d", seed,
				res.Products, res.Literals, res.LB, res.CoreRows, res.CoreCols, base.Products, base.Literals, base.LB, base.CoreRows, base.CoreCols)
		}
		or := solveMoved(rng.Perm(spec.Components))
		if or.Cost != baseOR.Cost || or.LB != baseOR.LB || or.Stats.SubgradIters != baseOR.Stats.SubgradIters {
			t.Errorf("OR-Library seed %d: cost %d, LB %v, %d iterations; unmoved %d, %v, %d", seed,
				or.Cost, or.LB, or.Stats.SubgradIters, baseOR.Cost, baseOR.LB, baseOR.Stats.SubgradIters)
		}
	}
}

// TestEditChainOrder sends the steps of one keep/parent chain through
// two connections, drawn in order but dispatched all at once: each step
// must wait for its predecessor and name that step's solve_id as its
// parent.
func TestEditChainOrder(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		n := calls.Add(1)
		time.Sleep(time.Duration(5-n%5) * time.Millisecond) // later sends overtake
		json.NewEncoder(w).Encode(serve.Response{Final: true, SolveID: fmt.Sprintf("%d|%s", len(req.Rows), req.Parent)})
	}))
	defer ts.Close()
	g := newMixGen(1, true)
	ch := g.chains[0]
	c := newClient(ts.URL, 2)
	if rep := c.send(&mixRequest{class: "edit", prob: ch.root, chain: ch, step: 0}, time.Now()); rep.err != nil {
		t.Fatal(rep.err)
	}
	var sched []scheduled
	for k := 1; k <= 8; k++ {
		ch.prob = addRow(ch.prob, ch.rng)
		ch.drawn++
		sched = append(sched, scheduled{req: &mixRequest{class: "edit", prob: ch.prob, chain: ch, step: ch.drawn}})
	}
	reps := c.openLoop(sched, 2)
	rows := len(ch.root.Rows)
	parent := fmt.Sprintf("%d|", rows)
	for k, r := range reps {
		if r.err != nil {
			t.Fatal(r.err)
		}
		want := fmt.Sprintf("%d|%s", rows+k+1, parent)
		if r.resp.SolveID != want {
			t.Errorf("step %d answered %q, want %q", k+1, r.resp.SolveID, want)
		}
		parent = r.resp.SolveID
	}
}

// TestCompareExactMetrics stores two sets of runs whose timings agree
// and whose cover cost differs by one: -compare must fail on the cost.
func TestCompareExactMetrics(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	store := func(dir string, cost float64) {
		for k := 0; k < 3; k++ {
			ms := map[string]reportedMetric{}
			for _, m := range spec.EndToEnd {
				v := 100 + float64(k)
				if exactMetrics[m.Name] {
					v = 1
				}
				ms[m.Name] = reportedMetric{Value: v, Unit: m.Unit}
			}
			ms["cost_total"] = reportedMetric{Value: cost, Unit: "cost"}
			rec := &measured{record: record{Workload: "pla-hard", Seed: 1, Result: result{Correct: true, Attempted: 1, Metrics: ms}}}
			if err := storeRecord(dir, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
	store(a, 3014)
	store(b, 3014)
	store(c, 3015)
	var out bytes.Buffer
	if code := compareSets(spec, a, b, &out); code != 0 {
		t.Errorf("same cost: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(spec, a, c, &out); code == 0 || !strings.Contains(out.String(), "DIFFERS") {
		t.Errorf("cost 3014 against 3015: exit %d\n%s", code, out.String())
	}
}

func TestVerdict(t *testing.T) {
	bound := 0.1
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: &bound}
	higher := metricSpec{Name: "throughput", Better: "higher", Bound: &bound}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: &bound}
	steady := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		m    metricSpec
		b    []float64
		want string
	}{
		{lower, []float64{104, 105, 103, 104, 106, 102}, "agree"},
		{lower, []float64{120, 121, 119, 120, 122, 118}, "worse"},
		{higher, []float64{120, 121, 119, 120, 122, 118}, "better"},
		{lower, []float64{60, 100, 140, 80, 120, 100}, "unresolved"},
		{setup, []float64{60, 100, 140, 80, 120, 100}, "unresolved"},
		{higher, []float64{150, 200, 300, 160, 250, 180}, "better"}, // wide, but every run reads better
	} {
		if got := verdict(c.m, steady, c.b); got != c.want {
			t.Errorf("%s %v: verdict %q, want %q", c.m.Name, c.b, got, c.want)
		}
	}
}

// TestWorkloadsSmoke runs every workload at toy sizes, untraced and
// traced, and checks that every answer passes and that the reported
// metrics are exactly the catalogue of BENCHMARK.json, with no
// end-to-end metric reading zero.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); got != strings.Join(names, ", ") {
		t.Fatalf("workloads %s, BENCHMARK.json lists %v", got, names)
	}
	for i := range workloads {
		wl := &workloads[i]
		for _, trace := range []bool{false, true} {
			cfg := runConfig{seed: 1, seconds: 0.3, trace: trace, short: true, workers: 2, workDir: t.TempDir()}
			var out bytes.Buffer
			rec, err := measure(spec, wl, cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			res := rec.Result
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed\n%s", wl.name, trace, res.Failed, res.Attempted, out.String())
			}
			var got, want []string
			for n, m := range res.Metrics {
				got = append(got, n)
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s reads zero", wl.name, n)
				}
			}
			for _, m := range spec.metrics(trace) {
				want = append(want, m.Name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%v reports %v, BENCHMARK.json lists %v", wl.name, trace, got, want)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Errorf("%s: last line is not the JSON result: %v", wl.name, err)
			}
		}
	}
}

func TestUnknownMetricIsRejected(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resolveMetrics(spec, true, map[string]float64{"no.such_metric": 1}); err == nil {
		t.Error("a metric missing from BENCHMARK.json was accepted")
	}
	if _, err := resolveMetrics(spec, false, map[string]float64{"throughput": 1}); err == nil {
		t.Error("an unmeasured end-to-end metric was accepted")
	}
}
