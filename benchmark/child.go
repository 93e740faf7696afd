package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"ucp"
	"ucp/internal/benchmarks"
	"ucp/internal/cube"
	"ucp/internal/matrix"
	"ucp/internal/pla"
	"ucp/internal/primes"
	"ucp/internal/scg"
	"ucp/internal/scpio"
	"ucp/internal/shard"
)

// childEnv selects the role of a re-executed copy of this binary:
// "ops" runs one pass of a pool workload, "serve" runs the solve
// service.  The measured work lives in child processes, so a child's
// peak RSS is the workload's alone, free of the parent's input
// generation and answer checking.
const childEnv = "UCPBENCH_CHILD"

// opsJob is what the parent hands an "ops" child on its stdin.
type opsJob struct {
	Kind      string   `json:"kind"` // "pla" or "orlib"
	Files     []string `json:"files"`
	Order     []int    `json:"order"` // op order within the pass
	Pass      int      `json:"pass"`
	Workers   int      `json:"workers"`
	MemBudget int64    `json:"mem_budget"`
	SpillDir  string   `json:"spill_dir"`
	Trace     bool     `json:"trace"`
	// Replay asks for the layer replays after the pass (the first pass
	// of a trace run).
	Replay bool `json:"replay"`
}

// opRecord is one solved op: which pool input, its wall time, and a
// digest of the answer so repeats can be checked against the first.
type opRecord struct {
	Inst   int     `json:"i"`
	NS     int64   `json:"ns"`
	Cost   int     `json:"cost"`
	LB     float64 `json:"lb"`
	Proved bool    `json:"proved"`
	Hash   uint64  `json:"hash"`
	Err    string  `json:"err,omitempty"`
}

// answer is the full first answer for one pool input, checked by the
// parent.
type answer struct {
	Cover    []string `json:"cover,omitempty"`
	Solution []int    `json:"solution,omitempty"`
}

type opsResult struct {
	Ops       []opRecord `json:"ops"`        // untraced ops, in run order
	Traced    []opRecord `json:"traced"`     // traced ops (trace runs only)
	ElapsedNS int64      `json:"elapsed_ns"` // wall time of the pass
	Answers   []answer   `json:"answers"`    // untraced answer per input
	// Counters holds per-input layer counters from the traced ops
	// (trace runs only).
	Counters []map[string]float64 `json:"counters,omitempty"`
	Spans    []span               `json:"spans,omitempty"`
	// Allocation and GC activity during the untraced ops (trace runs
	// only: reading them stops the world).
	AllocBytes    uint64  `json:"alloc_bytes"`
	GCCycles      uint32  `json:"gc_cycles"`
	GCCPUFraction float64 `json:"gc_cpu_fraction"`
	PeakRSSMB     float64 `json:"peak_rss_mb"` // the child's VmHWM

	passes int // merged into this result
}

// merge appends one more pass: its ops and spans (renumbered to follow
// the ones already held), its time and allocation.  Answers and
// counters stay the first pass's; the GC CPU fraction averages over
// the passes.
func (r *opsResult) merge(p *opsResult) {
	if r.passes == 0 {
		r.Answers, r.Counters = p.Answers, p.Counters
	}
	opBase, spanBase := len(r.Traced), len(r.Spans)
	for _, s := range p.Spans {
		s.Op += opBase
		if s.Parent >= 0 {
			s.Parent += spanBase
		}
		r.Spans = append(r.Spans, s)
	}
	r.Ops = append(r.Ops, p.Ops...)
	r.Traced = append(r.Traced, p.Traced...)
	r.ElapsedNS += p.ElapsedNS
	r.AllocBytes += p.AllocBytes
	r.GCCycles += p.GCCycles
	r.GCCPUFraction += (p.GCCPUFraction - r.GCCPUFraction) / float64(r.passes+1)
	r.passes++
}

func childMain() int {
	var err error
	switch os.Getenv(childEnv) {
	case "ops":
		err = opsChild(os.Stdin, os.Stdout)
	case "serve":
		err = serveChild(os.Stdin, os.Stdout)
	default:
		err = fmt.Errorf("unknown child role %q", os.Getenv(childEnv))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

// childCmd prepares a re-execution of this binary in the given role.
func childCmd(role string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+role)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// peakRSSMB reads this process's peak resident set, VmHWM.  A child
// reports its own: the maxrss that getrusage gives the parent also
// counts the parent's resident set at the fork before the exec.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")))
			return float64(kb) / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runOpsChild runs job in a child process and returns its result.
func runOpsChild(job opsJob) (*opsResult, error) {
	cmd, err := childCmd("ops")
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(job)
	if err != nil {
		return nil, err
	}
	cmd.Stdin = bytes.NewReader(in)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("ops child: %w", err)
	}
	var res opsResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("ops child output: %w", err)
	}
	return &res, nil
}

func opsChild(stdin io.Reader, stdout io.Writer) error {
	var job opsJob
	if err := json.NewDecoder(stdin).Decode(&job); err != nil {
		return err
	}
	res, err := runOps(job)
	if err != nil {
		return err
	}
	if res.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// runOps solves every input of the pool once, in the job's order.  A
// trace run pairs each untraced op with a traced one on the same input,
// alternating by pass which goes first, and may then replay the layers
// inside the one-shot solve calls on each input.
func runOps(job opsJob) (*opsResult, error) {
	n := len(job.Files)
	data := make([][]byte, n)
	if job.Kind == "pla" {
		for i, path := range job.Files {
			b, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			data[i] = b
		}
	}
	res := &opsResult{Answers: make([]answer, n)}
	var rec *recorder
	var probs []*matrix.Problem // per input, for the replays
	if job.Trace {
		rec = newRecorder()
		res.Counters = make([]map[string]float64, n)
		probs = make([]*matrix.Problem, n)
	}
	// Each op starts from a collected heap, so its latency and the peak
	// RSS reflect its own work rather than garbage the previous op left;
	// the collections still count in the pass time behind throughput.
	var m0, m1 runtime.MemStats
	untraced := func(i int) {
		defer runtime.GC()
		if job.Trace {
			runtime.ReadMemStats(&m0)
		}
		r, a := job.solve(i, data[i])
		if job.Trace {
			runtime.ReadMemStats(&m1)
			res.AllocBytes += m1.TotalAlloc - m0.TotalAlloc
			res.GCCycles += m1.NumGC - m0.NumGC
			res.GCCPUFraction = m1.GCCPUFraction
		}
		res.Answers[i] = a
		res.Ops = append(res.Ops, r)
	}
	traced := func(i int) {
		defer runtime.GC()
		r, c, p := job.solveTraced(rec, len(res.Traced), i, data[i])
		res.Counters[i], probs[i] = c, p
		res.Traced = append(res.Traced, r)
	}
	t0 := time.Now()
	for _, i := range job.Order {
		switch {
		case !job.Trace:
			untraced(i)
		case job.Pass%2 == 0:
			untraced(i)
			traced(i)
		default:
			traced(i)
			untraced(i)
		}
	}
	res.ElapsedNS = int64(time.Since(t0))
	if job.Replay {
		for k, r := range res.Traced {
			if r.Err != "" {
				continue
			}
			if err := job.replay(rec, k, r.Inst, probs[r.Inst]); err != nil {
				return nil, fmt.Errorf("replaying input %d: %w", r.Inst, err)
			}
		}
	}
	if rec != nil {
		res.Spans = rec.spans
	}
	return res, nil
}

func (job *opsJob) scgOptions() scg.Options {
	return scg.Options{Workers: job.Workers, MemBudget: job.MemBudget, SpillDir: job.SpillDir}
}

// solve runs one untraced op through the public API, exactly as a
// library user would.
func (job *opsJob) solve(i int, text []byte) (opRecord, answer) {
	rec := opRecord{Inst: i}
	var a answer
	switch job.Kind {
	case "pla":
		t0 := time.Now()
		f, err := ucp.ParsePLA(bytes.NewReader(text))
		var res *ucp.TwoLevelResult
		if err == nil {
			res, err = ucp.MinimizeSCG(f, ucp.SCGOptions{Workers: job.Workers})
		}
		rec.NS = int64(time.Since(t0))
		if err != nil {
			rec.Err = err.Error()
			return rec, a
		}
		a.Cover = coverStrings(res.Cover)
		rec.Cost, rec.LB, rec.Proved = res.Products, res.LB, res.ProvedOptimal
	case "orlib":
		t0 := time.Now()
		res, err := solveORLibFile(job.Files[i], job.scgOptions())
		rec.NS = int64(time.Since(t0))
		if err != nil {
			rec.Err = err.Error()
			return rec, a
		}
		a.Solution = res.Solution
		rec.Cost, rec.LB, rec.Proved = res.Cost, res.LB, res.ProvedOptimal
	}
	rec.Hash = a.hash()
	return rec, a
}

func solveORLibFile(path string, opt ucp.SCGOptions) (*ucp.SCGResult, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return ucp.SolveSCGORLib(fh, opt)
}

// solveTraced runs the same op as solve, but as the sequence of
// exported layer calls the public entry point makes, with a span
// around each.  It returns the op record, the layer counters, and the
// covering problem the solver saw (for the replays).
func (job *opsJob) solveTraced(rec *recorder, op, i int, text []byte) (opRecord, map[string]float64, *matrix.Problem) {
	r := opRecord{Inst: i}
	c := map[string]float64{}
	var res *scg.Result
	var prob *matrix.Problem
	var a answer
	var err error
	root := rec.begin("op", op, -1)
	t0 := time.Now()
	switch job.Kind {
	case "pla":
		a.Cover, prob, res, err = job.tracedPLA(rec, op, root, text, c)
	case "orlib":
		res, err = job.tracedORLib(rec, op, root, job.Files[i], c)
		if err == nil {
			a.Solution = res.Solution
		}
	}
	rec.end(root)
	r.NS = int64(time.Since(t0))
	if err != nil {
		r.Err = err.Error()
		return r, c, nil
	}
	st := res.Stats
	c["zdd.peak_nodes"] = float64(st.ZDDNodes)
	c["zdd.live_nodes"] = float64(st.ZDDLiveNodes)
	c["zdd.collections"] = float64(st.ZDDCollections)
	c["scg.implicit_dense_ops"] = b2f(st.ImplicitDense)
	c["matrix.core_rows"] = float64(st.CoreRows)
	c["matrix.core_cols"] = float64(st.CoreCols)
	c["lagrangian.subgrad_iters"] = float64(st.SubgradIters)
	c["lagrangian.fix_steps"] = float64(st.FixSteps)
	c["lagrangian.runs"] = float64(st.Runs)
	c["scg.proved_optimal_ratio"] = b2f(res.ProvedOptimal)
	r.Cost, r.LB, r.Proved, r.Hash = res.Cost, res.LB, res.ProvedOptimal, a.hash()
	return r, c, prob
}

// tracedPLA is ucp.ParsePLA + ucp.MinimizeSCG spelled out: parse, prime
// generation, covering construction, covering solve, cover assembly.
func (job *opsJob) tracedPLA(rec *recorder, op, root int, text []byte, c map[string]float64) ([]string, *matrix.Problem, *scg.Result, error) {
	var f *pla.File
	var err error
	rec.timed("pla.Parse", op, root, func() { f, err = pla.Parse(bytes.NewReader(text)) })
	if err != nil {
		return nil, nil, nil, err
	}
	var prs *cube.Cover
	rec.timed("primes.GenerateAutoBudget", op, root, func() { prs, _ = primes.GenerateAutoBudget(f.F, f.DontCares(), nil) })
	var prob *matrix.Problem
	rec.timed("primes.BuildCovering", op, root, func() { prob, _, err = primes.BuildCovering(f.F, f.DontCares(), prs, primes.UnitCost) })
	if err != nil {
		return nil, nil, nil, err
	}
	var res *scg.Result
	rec.timed("scg.Solve", op, root, func() { res = scg.Solve(prob, job.scgOptions()) })
	if res.Solution == nil {
		return nil, nil, nil, errors.New("covering problem infeasible")
	}
	cover := coverStrings(primes.CoverFromColumns(prs, res.Solution))
	c["primes.count"] = float64(prs.Len())
	c["primes.covering_rows"] = float64(len(prob.Rows))
	c["primes.dense_ops"] = b2f(primes.DenseEligible(f.F, f.DontCares()))
	return cover, prob, res, nil
}

// tracedORLib is ucp.SolveSCGORLib on a file with the sharded driver's
// call in its own span.
func (job *opsJob) tracedORLib(rec *recorder, op, root int, path string, c map[string]float64) (*scg.Result, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	var res *scg.Result
	rec.timed("shard.Solve", op, root, func() { res, err = shard.Solve(shard.ORLib(fh), job.scgOptions()) })
	if err != nil {
		return nil, err
	}
	c["shard.components"] = float64(res.Stats.ShardComponents)
	c["shard.spilled"] = float64(res.Stats.ShardSpilled)
	c["shard.respilled"] = float64(res.Stats.ShardRespilled)
	c["shard.degraded"] = float64(res.Stats.ShardDegraded)
	c["shard.peak_bytes"] = float64(res.Stats.ShardPeakBytes)
	return res, nil
}

// replay re-runs, on input i, the layers that the one-shot solve calls
// hide: the OR-Library lexer and the in-memory solve for the sharded
// path, then partitioning, the implicit phase and the explicit
// reductions exactly as scg.Solve sequences them.  The spans carry the
// id of the traced op whose inputs they replay.
func (job *opsJob) replay(rec *recorder, op, i int, prob *matrix.Problem) error {
	if job.Kind == "orlib" {
		var err error
		rec.timed("scpio.Lex", op, -1, func() { err = lexFile(job.Files[i]) })
		if err != nil {
			return err
		}
		fh, err := os.Open(job.Files[i])
		if err != nil {
			return err
		}
		prob, err = benchmarks.ReadORLib(fh)
		fh.Close()
		if err != nil {
			return err
		}
		opt := job.scgOptions()
		opt.MemBudget = 0
		rec.timed("scg.SolveDirect", op, -1, func() { scg.Solve(prob, opt) })
	}
	var parts []*matrix.Problem
	rec.timed("matrix.Partition", op, -1, func() {
		comps := matrix.Partition(prob)
		if comps == nil {
			parts = []*matrix.Problem{prob}
			return
		}
		for _, c := range comps {
			sub, _ := c.Problem.CompactSparse()
			parts = append(parts, sub)
		}
	})
	const maxR, maxC = 5000, 10000 // the paper's MaxR/MaxC, scg's defaults
	for _, p := range parts {
		k := rec.begin(implicitZDD, op, -1)
		ir := scg.ImplicitReduceBudgetWorkers(p, maxR, maxC, 0, nil, job.Workers)
		rec.end(k)
		if ir.Dense {
			// The dense bit-matrix engine of internal/matrix claimed the
			// part: its time belongs to the matrix layer, not the ZDD.
			rec.spans[k].Name = implicitDense
		}
		if ir.Infeasible {
			continue
		}
		work := p
		if !ir.Aborted {
			work = ir.Core
		}
		rec.timed("matrix.Reduce", op, -1, func() { matrix.ReduceBudgetWorkers(work, nil, job.Workers) })
	}
	return nil
}

// Replay span names of the implicit phase, by the engine that ran it.
const (
	implicitZDD   = "scg.ImplicitReduceBudgetWorkers/zdd"
	implicitDense = "scg.ImplicitReduceBudgetWorkers/dense"
)

// lexFile streams an OR-Library file through the scpio lexer.
func lexFile(path string) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	rd, err := scpio.NewORLibReader(fh)
	if err != nil {
		return err
	}
	var buf []int
	for {
		buf, err = rd.Next(buf[:0])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func coverStrings(c *cube.Cover) []string {
	out := make([]string, c.Len())
	for i, cb := range c.Cubes {
		out[i] = c.S.String(cb)
	}
	return out
}

// hash digests an answer so repeated ops can be compared with the
// first without shipping every cover.
func (a answer) hash() uint64 {
	h := fnv.New64a()
	for _, s := range a.Cover {
		h.Write([]byte(s))
		h.Write([]byte{'\n'})
	}
	cols := append([]int(nil), a.Solution...)
	sort.Ints(cols)
	for _, j := range cols {
		h.Write(strconv.AppendInt(nil, int64(j), 10))
		h.Write([]byte{' '})
	}
	return h.Sum64()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
