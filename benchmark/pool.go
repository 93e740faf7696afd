package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ucp"
	"ucp/internal/benchmarks"
	"ucp/internal/cube"
	"ucp/internal/pla"
)

// poolWorkload is a closed-loop workload: one caller solves a fixed
// pool of inputs over and over in a child process, in whole passes.
//
// The pool's functions and instances are fixed; the seed draws how
// they are written (the order of a PLA's cube lines, which column
// block each OR-Library component occupies) and the op order.  Neither
// changes the work the solver does or the answers it gives, so two
// seeds differ only by the host's noise.  Replicas of one shape differ
// in solve time by up to 100×, and even an input polarity flip moves a
// replica's subgradient work by several percent, so inputs drawn afresh
// per seed would make the medians of two seeds incomparable.
type poolWorkload struct {
	kind      string // "pla" or "orlib"
	memBudget int64  // bytes of tracked instance memory for the sharded driver
	// tailN is the planned sample count of a run, which fixes the tail
	// percentile (see tailPercentile).
	tailN int
	// build writes the pool's inputs for seed into dir and returns
	// their paths and contents.
	build func(dir string, seed int64, short bool) (files []string, texts [][]byte, err error)
}

// Set-up is timed in rounds, and setup_s is the median over every
// repeat of every round.  The first round, before the measurement,
// repeats at least minSetups times and until setupSpan has been spent,
// so that millisecond-sized set-ups still yield a steady median.  Later
// rounds, of at least one repeat and a quarter of that span, time the
// set-up again after every setupEvery of measured time (for ucpd-mix,
// once at the end), so that the median covers the same stretch of the
// host's drifting speed as the measurement: timed only before it,
// orlib-sharded's set-up spread 0.29 and 0.36 over two sets of five
// same-code runs while its throughput spread 0.09 and 0.11.
const (
	minSetups  = 3
	maxSetups  = 200
	setupSpan  = 2 * time.Second
	setupEvery = 5 * time.Second
)

// setupSpan is the first round's span: toy-sized runs repeat only
// minSetups times.
func (c runConfig) setupSpan() time.Duration {
	if c.short {
		return 0
	}
	return setupSpan
}

// setupRound runs a set-up at least min times and until span has been
// spent, at most maxSetups times, and appends each repeat's time in
// seconds to times.  setup reports how long its timed part took, which
// lets it tidy up after the previous repeat untimed.
func setupRound(times []float64, min int, span time.Duration, setup func() (time.Duration, error)) ([]float64, error) {
	spent, n := time.Duration(0), 0
	for n < min || (spent < span && n < maxSetups) {
		d, err := setup()
		if err != nil {
			return nil, err
		}
		spent += d
		n++
		times = append(times, d.Seconds())
	}
	return times, nil
}

var hardShapes = []string{"soar.pla", "test2", "test3", "ex1010"}

func plaHardPool(short bool) []*pla.File {
	var shapes []benchmarks.Instance
	for _, in := range benchmarks.Challenging() {
		for _, name := range hardShapes {
			if in.Name == name {
				shapes = append(shapes, in)
			}
		}
	}
	reps := 8
	if short {
		shapes, reps = benchmarks.EasyCyclic()[:2], 1
	}
	var out []*pla.File
	for k := 0; k < reps; k++ {
		for _, in := range shapes {
			in.Seed += int64(7919 * k)
			out = append(out, in.PLA())
		}
	}
	return out
}

type wideShape struct {
	inputs, outputs, cubes int
	density                float64
}

var wideShapes = []wideShape{{16, 2, 100, 0.35}, {18, 3, 80, 0.3}, {20, 3, 80, 0.3}}

func plaWidePool(short bool) []*pla.File {
	shapes, reps := wideShapes, 4
	if short {
		shapes, reps = []wideShape{{10, 2, 30, 0.35}}, 2
	}
	var out []*pla.File
	for k := 0; k < reps; k++ {
		for s, sh := range shapes {
			out = append(out, benchmarks.RandomPLA(int64(7919*k+s+1), sh.inputs, sh.outputs, sh.cubes, sh.density, 0))
		}
	}
	return out
}

// buildPLA returns a pool builder that writes each function of pool
// with its cube lines in a seeded order.
func buildPLA(pool func(short bool) []*pla.File) func(string, int64, bool) ([]string, [][]byte, error) {
	return func(dir string, seed int64, short bool) ([]string, [][]byte, error) {
		rng := rand.New(rand.NewSource(seed))
		var files []string
		var texts [][]byte
		for i, f := range pool(short) {
			text, err := shuffleCubes(f, rng)
			if err != nil {
				return nil, nil, err
			}
			path := filepath.Join(dir, fmt.Sprintf("in-%02d.pla", i))
			if err := os.WriteFile(path, text, 0o644); err != nil {
				return nil, nil, err
			}
			files, texts = append(files, path), append(texts, text)
		}
		return files, texts, nil
	}
}

// shuffleCubes writes f as PLA text with its cube lines in an order
// drawn from rng.  The solver builds its covering problem from the
// primes and minterms of the function, not from the cube order, so the
// work and the answer stay the same while every line moves.
func shuffleCubes(f *pla.File, rng *rand.Rand) ([]byte, error) {
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		return nil, err
	}
	var head, cubes []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		switch {
		case line == ".e":
		case strings.HasPrefix(line, "."):
			head = append(head, line)
		default:
			cubes = append(cubes, line)
		}
	}
	rng.Shuffle(len(cubes), func(a, b int) { cubes[a], cubes[b] = cubes[b], cubes[a] })
	return []byte(strings.Join(head, "\n") + "\n" + strings.Join(cubes, "\n") + "\n.e\n"), nil
}

// orlibSpecs are the sharded workload's instances: 200 independent
// components of 500 rows over 60 columns each, about 2.8 MB of text and
// 6.4 MB decoded, so a 1.5 MiB budget spills most components.
func orlibSpecs(short bool) []benchmarks.ComponentSpec {
	n, spec := 10, benchmarks.ComponentSpec{Components: 200, RowsPerComp: 500, ColsPerComp: 60, RowDegree: 5, MaxCost: 8}
	if short {
		n, spec = 3, benchmarks.ComponentSpec{Components: 6, RowsPerComp: 30, ColsPerComp: 12, RowDegree: 4, MaxCost: 8}
	}
	out := make([]benchmarks.ComponentSpec, n)
	for k := range out {
		out[k] = spec
		out[k].Seed = 7919 + int64(k)
	}
	return out
}

func buildORLib(dir string, seed int64, short bool) ([]string, [][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	var files []string
	for i, spec := range orlibSpecs(short) {
		path := filepath.Join(dir, fmt.Sprintf("in-%02d.orlib", i))
		blocks := rng.Perm(spec.Components)
		if err := writeFileWith(path, func(w io.Writer) error { return writeORLibMoved(w, spec, blocks) }); err != nil {
			return nil, nil, err
		}
		files = append(files, path)
	}
	return files, nil, nil
}

// writeORLibMoved writes spec in the OR-Library format with component
// k's columns (and their costs) moved to column block blocks[k], each
// keeping its offset within the block.  Rows keep their order, so the
// sharded solver meets the components in the same order, and each
// component, compacted, is the same problem: the work and the answer
// stay the same while every column id moves.
func writeORLibMoved(w io.Writer, spec benchmarks.ComponentSpec, blocks []int) error {
	width := spec.ColsPerComp
	move := func(j int) int { return blocks[j/width]*width + j%width }
	cost := make([]int, spec.NumCols())
	for j := range cost {
		cost[j] = 1
	}
	for j, c := range spec.Costs() {
		cost[move(j)] = c
	}
	line := fmt.Appendf(nil, "%d %d\n", spec.NumRows(), spec.NumCols())
	for j, c := range cost {
		if j > 0 {
			line = append(line, ' ')
		}
		line = strconv.AppendInt(line, int64(c), 10)
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		return err
	}
	return spec.EachRow(func(_ int, cols []int) error {
		line = strconv.AppendInt(line[:0], int64(len(cols)), 10)
		line = append(line, '\n')
		for k, j := range cols {
			if k > 0 {
				line = append(line, ' ')
			}
			line = strconv.AppendInt(line, int64(move(j)+1), 10) // a row lies in one block, so it stays sorted
		}
		_, err := w.Write(append(line, '\n'))
		return err
	})
}

// writeFileWith writes a file through a buffer.
func writeFileWith(path string, write func(w io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(fh, 1<<16)
	if err := write(bw); err != nil {
		fh.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

func (w *poolWorkload) run(cfg runConfig) (*outcome, error) {
	var files []string
	var texts [][]byte
	build := func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		files, texts, err = w.build(cfg.workDir, cfg.seed, cfg.short)
		return time.Since(t0), err
	}
	setups, err := setupRound(nil, minSetups, cfg.setupSpan(), build)
	if err != nil {
		return nil, err
	}
	job := opsJob{
		Kind:      w.kind,
		Files:     files,
		Order:     rand.New(rand.NewSource(cfg.seed)).Perm(len(files)),
		Workers:   cfg.workers,
		MemBudget: w.memBudget,
		SpillDir:  cfg.workDir,
		Trace:     cfg.trace,
	}
	if cfg.short && w.memBudget > 0 {
		job.MemBudget = 4 << 10 // toy instances spill too
	}
	// Passes run until the measured time is spent, each in a fresh
	// child, and peak_rss_mb is the median of the passes' peaks: the
	// peak of a whole run is an extreme value that one late garbage
	// collection moves by half.  A set-up round between passes rewrites
	// the inputs with the same bytes.
	res := &opsResult{}
	var rss []float64
	var timedNS int64 // measured time at the last set-up round
	for res.passes == 0 || float64(res.ElapsedNS)/1e9 < cfg.seconds {
		job.Pass, job.Replay = res.passes, cfg.trace && res.passes == 0
		p, err := runOpsChild(job)
		if err != nil {
			return nil, err
		}
		res.merge(p)
		rss = append(rss, p.PeakRSSMB)
		if !cfg.trace && res.ElapsedNS-timedNS >= int64(setupEvery) {
			if setups, err = setupRound(setups, 1, cfg.setupSpan()/4, build); err != nil {
				return nil, err
			}
			timedNS = res.ElapsedNS
		}
	}

	out := &outcome{metrics: map[string]float64{}}
	refs := make([]opRecord, len(files))
	for i := range files {
		k := firstOp(res.Ops, i)
		if k < 0 {
			return nil, fmt.Errorf("input %d was never solved", i)
		}
		refs[i] = res.Ops[k]
	}
	inputOK := make([]bool, len(files))
	for i := range files {
		var text []byte
		if texts != nil {
			text = texts[i]
		}
		err := w.check(files[i], text, refs[i], res.Answers[i])
		if err != nil {
			out.note("input %d: %v", i, err)
		}
		inputOK[i] = err == nil
	}
	for _, ops := range [][]opRecord{res.Ops, res.Traced} {
		for _, r := range ops {
			out.attempted++
			ref := refs[r.Inst]
			if r.Err != "" || !inputOK[r.Inst] || r.Hash != ref.Hash || r.Cost != ref.Cost {
				out.failed++
			}
		}
	}

	var lat []float64
	for _, r := range res.Ops {
		lat = append(lat, ms(r.NS))
	}
	if !cfg.trace {
		s := sortedCopy(lat)
		p := tailPercentile(w.tailN)
		m := out.metrics
		m["setup_s"] = median(setups)
		m["throughput"] = float64(len(res.Ops)) / (float64(res.ElapsedNS) / 1e9)
		m["latency_p50_ms"] = quantile(s, 0.5)
		m["latency_tail_ms"] = quantile(s, p/100)
		m["peak_rss_mb"] = median(rss)
		cost, bound := 0, 0
		for _, r := range refs {
			cost += r.Cost
			bound += ceilLB(r.LB)
		}
		m["cost_total"] = float64(cost)
		m["cost_bound_ratio"] = float64(cost) / float64(max(bound, 1))
		out.note("%d ops in %d passes of %d inputs over %.1f s; tail is p%.1f with %d samples beyond it",
			len(res.Ops), res.passes, len(files), float64(res.ElapsedNS)/1e9, p, beyond(s, p))
		return out, nil
	}
	w.layerMetrics(out, res, files, mean(lat))
	return out, nil
}

func firstOp(ops []opRecord, inst int) int {
	for k, r := range ops {
		if r.Inst == inst {
			return k
		}
	}
	return -1
}

// check verifies one input's first answer without trusting the solver:
// a PLA cover must implement the function as written, an OR-Library
// solution must cover the materialised instance, each at the reported
// cost, and the lower bound must not exceed it.
func (w *poolWorkload) check(path string, text []byte, ref opRecord, a answer) error {
	if ref.Err != "" {
		return fmt.Errorf("solve failed: %s", ref.Err)
	}
	switch w.kind {
	case "pla":
		f, err := pla.Parse(bytes.NewReader(text))
		if err != nil {
			return err
		}
		cover, err := parseCover(f, a.Cover)
		if err != nil {
			return err
		}
		if cover.Len() != ref.Cost {
			return fmt.Errorf("cover has %d products, reported cost %d", cover.Len(), ref.Cost)
		}
		if !ucp.Equivalent(f, cover) {
			return fmt.Errorf("cover does not implement the function")
		}
	case "orlib":
		fh, err := os.Open(path)
		if err != nil {
			return err
		}
		p, err := benchmarks.ReadORLib(fh)
		fh.Close()
		if err != nil {
			return err
		}
		if !p.IsCover(a.Solution) {
			return fmt.Errorf("solution is not a cover")
		}
		if c := p.CostOf(a.Solution); c != ref.Cost {
			return fmt.Errorf("solution costs %d, reported %d", c, ref.Cost)
		}
	}
	return checkBound(ref.Cost, ref.LB)
}

// checkBound rejects a lower bound above the cost.  An optimality claim
// cannot be checked against the summed bound: the solver proves it per
// independent block, where the rounded-up block bounds may add up to
// more than the rounded-up sum.
func checkBound(cost int, lb float64) error {
	if lb > float64(cost)+1e-6 {
		return fmt.Errorf("lower bound %.3f exceeds cost %d", lb, cost)
	}
	return nil
}

// parseCover reads product terms in PLA cube notation back into a cover
// over f's space.
func parseCover(f *pla.File, cubes []string) (*ucp.Cover, error) {
	text := fmt.Sprintf(".i %d\n.o %d\n.type f\n%s\n.e\n", f.Space.Inputs(), f.Space.Outputs(), strings.Join(cubes, "\n"))
	c, err := pla.Parse(strings.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("cover: %w", err)
	}
	if c.F.Len() != len(cubes) {
		return nil, fmt.Errorf("cover: %d of %d cubes parsed", c.F.Len(), len(cubes))
	}
	cover := cube.NewCover(f.Space)
	for _, cb := range c.F.Cubes {
		cover.Add(cb)
	}
	return cover, nil
}

// layerMetrics turns a trace run's spans and counters into the
// per-layer metrics.  Times are per op: stage spans average over the
// traced ops, replay spans over the inputs (every input is solved
// equally often, since passes are whole).  A layer inside a one-shot
// call gets the call's time minus the replayed layers, clamped at zero.
func (w *poolWorkload) layerMetrics(out *outcome, res *opsResult, files []string, untracedMS float64) {
	m := out.metrics
	tot := spanTotals(res.Spans)
	perOp := func(name string) float64 { return tot[name] / float64(len(res.Traced)) }
	perInput := func(name string) float64 { return tot[name] / float64(len(files)) }
	m["pla.parse_ms"] = perOp("pla.Parse")
	m["primes.generate_ms"] = perOp("primes.GenerateAutoBudget")
	m["primes.covering_ms"] = perOp("primes.BuildCovering")
	m["scg.implicit_ms"] = perInput(implicitZDD)
	m["matrix.dense_implicit_ms"] = perInput(implicitDense)
	m["matrix.partition_ms"] = perInput("matrix.Partition")
	m["matrix.reduce_ms"] = perInput("matrix.Reduce")
	solveMS := perOp("scg.Solve")
	if w.kind == "orlib" {
		solveMS = perInput("scg.SolveDirect")
		m["scpio.lex_ms"] = perInput("scpio.Lex")
		m["scg.direct_ms"] = solveMS
		m["shard.self_ms"] = max(0, perOp("shard.Solve")-m["scpio.lex_ms"]-solveMS)
		var size int64
		for _, f := range files {
			if fi, err := os.Stat(f); err == nil {
				size += fi.Size()
			}
		}
		if lex := m["scpio.lex_ms"]; lex > 0 {
			m["scpio.mb_per_s"] = float64(size) / float64(len(files)) / (1 << 20) / (lex / 1e3)
		}
	}
	m["lagrangian.self_ms"] = max(0, solveMS-m["matrix.partition_ms"]-m["scg.implicit_ms"]-m["matrix.dense_implicit_ms"]-m["matrix.reduce_ms"])

	proved := 0.0
	for _, c := range res.Counters {
		for k, v := range c {
			switch k {
			case "shard.peak_bytes":
				m[k] = max(m[k], v)
			case "scg.proved_optimal_ratio":
				proved += v
			default:
				m[k] += v
			}
		}
	}
	n := float64(len(res.Counters))
	m["scg.proved_optimal_ratio"] = proved / n
	if it := m["lagrangian.subgrad_iters"]; it > 0 {
		m["lagrangian.us_per_iter"] = m["lagrangian.self_ms"] * 1e3 / (it / n)
	}
	ops := float64(len(res.Ops))
	m["runtime.alloc_mb_per_op"] = float64(res.AllocBytes) / ops / (1 << 20)
	m["runtime.gc_cycles"] = float64(res.GCCycles) / ops
	m["runtime.gc_cpu_fraction"] = res.GCCPUFraction
	m["trace.overhead_pct"], m["trace.reconcile_pct"] = reconcile(res.Spans, untracedMS)
	out.spans = res.Spans

	out.note("untraced op %.2f ms (mean over %d ops); traced ops: %d", untracedMS, len(res.Ops), len(res.Traced))
	layerTable(out, untracedMS, []layerTime{
		{"pla", m["pla.parse_ms"]},
		{"primes", m["primes.generate_ms"] + m["primes.covering_ms"]},
		{"zdd", m["scg.implicit_ms"]},
		{"matrix", m["matrix.partition_ms"] + m["matrix.dense_implicit_ms"] + m["matrix.reduce_ms"]},
		{"lagrangian", m["lagrangian.self_ms"]},
		{"scpio", m["scpio.lex_ms"]},
		{"shard", m["shard.self_ms"]},
		{"op (self)", ms(selfTimes(res.Spans)["op"]) / float64(len(res.Traced))},
	})
}
