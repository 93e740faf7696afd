// Command ucpsolve minimises a two-level function (Berkeley PLA
// format) or solves a unate covering problem (the package's matrix
// text format) with a selectable solver.
//
// Usage:
//
//	ucpsolve -pla file.pla  [-solver scg|exact|espresso|espresso-strong] [-o out.pla]
//	ucpsolve -matrix f.ucp  [-solver scg|exact|greedy] [-bounds]
//	ucpsolve -orlib scp41.txt [-solver scg|exact|greedy] [-bounds]
//	ucpsolve -matrix f.ucp -delta g.ucp   # solve f, then re-solve g incrementally
//
// With -delta the second instance is solved by delta replay against
// the first solve's retained state (scg only): the edit between the
// two is reconstructed row by row, the recorded reductions are
// re-verified and replayed, and untouched portfolio blocks are reused
// — the result is bit-identical to solving the second instance from
// scratch.
//
// The default solver is scg (the paper's ZDD_SCG heuristic).  With
// -timeout the solve stops at the deadline and prints the best cover
// and bound found so far; Ctrl-C does the same immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"ucp"
	"ucp/internal/interrupt"
	"ucp/internal/prof"
)

func main() {
	var (
		plaPath    = flag.String("pla", "", "input PLA file (two-level minimisation)")
		matrixPath = flag.String("matrix", "", "input covering-matrix file")
		orlibPath  = flag.String("orlib", "", "input set-covering file in Beasley OR-Library format")
		solver     = flag.String("solver", "scg", "scg | exact | greedy | espresso | espresso-strong")
		out        = flag.String("o", "", "write the minimised PLA here (pla mode)")
		seed       = flag.Int64("seed", 1, "seed for the stochastic runs")
		numIter    = flag.Int("numiter", 1, "ZDD_SCG constructive runs")
		workers    = flag.Int("workers", 0, "goroutines for the ZDD_SCG restart portfolio (0 = GOMAXPROCS); results are identical for a given seed regardless")
		maxNodes   = flag.Int64("maxnodes", 0, "node cap for the exact solver (0 = unlimited)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget, e.g. 30s (0 = unlimited); on expiry or Ctrl-C the best solution so far is printed")
		deltaPath  = flag.String("delta", "", "second instance in the same format: solve the first, then re-solve this one incrementally (scg, matrix/orlib modes)")
		bounds     = flag.Bool("bounds", false, "also print the four lower bounds (matrix mode)")
		memBudget  = flag.String("mem-budget", "", "route scg solves through the out-of-core sharded driver under this many bytes of tracked instance memory, e.g. 256M or 2G; -matrix/-orlib inputs then stream from disk instead of loading whole (scg only)")
		spillDir   = flag.String("spill-dir", "", "directory for the sharded driver's spill file (default: the OS temp directory)")
		useCache   = flag.Bool("cache", false, "memoize solves in a session cache (useful with repeated invocations of the library; here mostly demonstrates the flag plumbing)")
		cacheSize  = flag.Int("cache-size", ucp.DefaultCacheSize, "session cache capacity in entries (with -cache)")
		verbose    = flag.Bool("v", false, "print cache and transposition-table statistics")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal("%v", err)
	}
	flushProfiles = stopProf
	defer stopProf()

	// Ctrl-C cancels the budget context: the solvers unwind with their
	// best-so-far cover instead of the process dying mid-solve.  A
	// second Ctrl-C skips the graceful unwind — profiles are flushed
	// and the process exits non-zero immediately.
	ctx, stop := interrupt.Handle(context.Background(), func() { flushProfiles() }, os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	bud := ucp.Budget{Context: ctx}

	var sopt ucp.SolverOptions
	if *useCache {
		sopt.Cache = ucp.NewCache(*cacheSize, ucp.DefaultCacheMinWork)
	}
	budget, err := parseBytes(*memBudget)
	if err != nil {
		fatal("-mem-budget: %v", err)
	}
	if budget > 0 && *solver != "scg" {
		fatal("-mem-budget works with -solver scg only")
	}
	sess := &session{Solver: ucp.NewSolver(sopt), verbose: *verbose, cached: *useCache,
		memBudget: budget, spillDir: *spillDir}

	inputs := 0
	for _, v := range []string{*plaPath, *matrixPath, *orlibPath} {
		if v != "" {
			inputs++
		}
	}
	switch {
	case inputs != 1:
		fatal("pass exactly one of -pla, -matrix and -orlib")
	case *plaPath != "":
		if *deltaPath != "" {
			fatal("-delta works with -matrix and -orlib only")
		}
		runPLA(sess, *plaPath, *solver, *out, *seed, *numIter, *workers, *maxNodes, bud)
	case *matrixPath != "":
		runMatrix(sess, *matrixPath, *deltaPath, false, *solver, *seed, *numIter, *workers, *maxNodes, *bounds, bud)
	default:
		runMatrix(sess, *orlibPath, *deltaPath, true, *solver, *seed, *numIter, *workers, *maxNodes, *bounds, bud)
	}
}

// session bundles the cache-carrying Solver with the -v switch and the
// out-of-core memory budget.
type session struct {
	*ucp.Solver
	verbose   bool
	cached    bool
	memBudget int64
	spillDir  string
}

// parseBytes parses a byte count with an optional binary suffix
// (K/M/G, with or without a trailing "b"/"ib"); empty means 0.
func parseBytes(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	t := strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
		{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
		{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
	} {
		if strings.HasSuffix(t, u.suffix) {
			t, mult = strings.TrimSuffix(t, u.suffix), u.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("byte count %q overflows", s)
	}
	return n * mult, nil
}

// report prints the solve's cache counters and the session cache's
// totals under -v.
func (s *session) report(hits, misses, ttHits int64) {
	if !s.verbose {
		return
	}
	fmt.Printf("cache: hits %d  misses %d  tt-hits %d\n", hits, misses, ttHits)
	cs := s.CacheStats()
	fmt.Printf("session cache: %d entries, %d hits / %d misses, %d dedups, %d stores, %d evictions\n",
		cs.Entries, cs.Hits, cs.Misses, cs.Dedups, cs.Stores, cs.Evictions)
}

// reportShard prints the out-of-core driver's scheduling profile under
// -v.  Direct (unsharded) solves report zero components and print
// nothing; sharded solves always report at least one.
func (s *session) reportShard(components, spilled, respilled, degraded int, peak int64) {
	if !s.verbose || components == 0 {
		return
	}
	fmt.Printf("shard: %d components (%d spilled, %d respilled, %d degraded), peak %d tracked bytes\n",
		components, spilled, respilled, degraded, peak)
}

// flushProfiles writes any active profiles; fatal must run it because
// os.Exit skips the deferred flush in main.
var flushProfiles = func() {}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ucpsolve: "+format+"\n", args...)
	flushProfiles()
	os.Exit(1)
}

func notice(interrupted bool, reason ucp.StopReason) {
	if interrupted {
		fmt.Printf("interrupted (%v): reporting the best solution found so far\n", reason)
	}
}

func runPLA(sess *session, path, solver, out string, seed int64, numIter, workers int, maxNodes int64, bud ucp.Budget) {
	f, err := ucp.ParsePLAFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var res *ucp.TwoLevelResult
	switch solver {
	case "scg":
		res, err = sess.MinimizeSCG(f, ucp.SCGOptions{Seed: seed, NumIter: numIter, Workers: workers, Budget: bud,
			MemBudget: sess.memBudget, SpillDir: sess.spillDir})
	case "exact":
		res, err = sess.MinimizeExact(f, ucp.ExactOptions{MaxNodes: maxNodes, Budget: bud})
	case "espresso":
		res = sess.MinimizeEspresso(f, ucp.EspressoNormal, bud)
	case "espresso-strong":
		res = sess.MinimizeEspresso(f, ucp.EspressoStrong, bud)
	default:
		fatal("unknown pla solver %q", solver)
	}
	if err != nil {
		fatal("%v", err)
	}
	if !ucp.Equivalent(f, res.Cover) {
		fatal("internal error: result does not implement the function")
	}
	notice(res.Interrupted, res.StopReason)
	fmt.Printf("products: %d", res.Products)
	if res.ProvedOptimal {
		fmt.Printf(" (proved optimal)")
	} else if res.LB > 0 {
		fmt.Printf(" (lower bound %d)", int(math.Ceil(res.LB-1e-9)))
	}
	fmt.Printf("\nprimes: %d   covering rows: %d   cyclic core: %dx%d\n",
		res.Primes, res.Rows, res.CoreRows, res.CoreCols)
	fmt.Printf("time: %v (cyclic core %v)\n", res.TotalTime.Round(time.Millisecond), res.CyclicCoreTime.Round(time.Millisecond))
	sess.reportShard(res.ShardComponents, res.ShardSpilled, res.ShardRespilled, res.ShardDegraded, res.ShardPeakBytes)
	sess.report(res.CacheHits, res.CacheMisses, res.TTHits)
	if out != "" {
		g := &ucp.PLA{Space: f.Space, F: res.Cover, D: f.D, R: f.R, Type: "fd",
			InputLabels: f.InputLabels, OutputLabels: f.OutputLabels}
		w, err := os.Create(out)
		if err != nil {
			fatal("%v", err)
		}
		defer w.Close()
		if err := g.Write(w); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote %s\n", out)
	}
}

// readMatrix loads one covering instance in the matrix (or OR-Library)
// text format.
func readMatrix(path string, orlib bool) *ucp.Problem {
	r, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer r.Close()
	var p *ucp.Problem
	if orlib {
		p, err = ucp.ReadORLibProblem(r)
	} else {
		p, err = ucp.ReadProblem(r)
	}
	if err != nil {
		fatal("%v", err)
	}
	return p
}

func runMatrix(sess *session, path, deltaPath string, orlib bool, solver string, seed int64, numIter, workers int, maxNodes int64, bounds bool, bud ucp.Budget) {
	if sess.memBudget > 0 {
		// The whole point of the budget is never materialising the
		// instance, so the modes that need it in memory are out.
		if deltaPath != "" {
			fatal("-mem-budget is incompatible with -delta")
		}
		if bounds {
			fatal("-mem-budget is incompatible with -bounds")
		}
		runStream(sess, path, orlib, ucp.SCGOptions{Seed: seed, NumIter: numIter, Workers: workers, Budget: bud,
			MemBudget: sess.memBudget, SpillDir: sess.spillDir})
		return
	}
	p := readMatrix(path, orlib)
	fmt.Printf("problem: %d rows, %d columns\n", len(p.Rows), p.NCol)
	if deltaPath != "" {
		if solver != "scg" {
			fatal("-delta needs -solver scg")
		}
		runDelta(sess, p, readMatrix(deltaPath, orlib), seed, numIter, workers, bud)
		return
	}
	if bounds {
		b := ucp.LowerBounds(p)
		fmt.Printf("bounds: MIS=%d  dual-ascent=%.3f  lagrangian=%.3f", b.MIS, b.DualAscent, b.Lagrangian)
		if b.LPExact {
			fmt.Printf("  LP=%.3f", b.LinearRelaxation)
		}
		fmt.Println()
	}
	switch solver {
	case "scg":
		res := sess.SolveSCG(p, ucp.SCGOptions{Seed: seed, NumIter: numIter, Workers: workers, Budget: bud})
		if res.Solution == nil {
			fatal("problem is infeasible")
		}
		notice(res.Interrupted, res.StopReason)
		opt := ""
		if res.ProvedOptimal {
			opt = " (proved optimal)"
		}
		fmt.Printf("scg: cost %d%s, LB %.3f, columns %v\n", res.Cost, opt, res.LB, res.Solution)
		fmt.Printf("core %dx%d, %d fixing steps, %v\n",
			res.Stats.CoreRows, res.Stats.CoreCols, res.Stats.FixSteps, res.Stats.TotalTime.Round(time.Millisecond))
		sess.report(res.Stats.CacheHits, res.Stats.CacheMisses, 0)
	case "exact":
		res := sess.SolveExact(p, ucp.ExactOptions{MaxNodes: maxNodes, Budget: bud})
		if res.Solution == nil {
			fatal("no solution found (infeasible, or node budget exhausted)")
		}
		notice(res.Interrupted, res.StopReason)
		fmt.Printf("exact: cost %d (optimal=%v, LB %d), %d nodes, columns %v\n",
			res.Cost, res.Optimal, res.LB, res.Nodes, res.Solution)
		var hits, misses int64
		if res.CacheHit {
			hits = 1
		} else if sess.cached {
			misses = 1
		}
		sess.report(hits, misses, res.TTHits)
	case "greedy":
		sol, interrupted, err := ucp.SolveGreedy(p, bud)
		if err != nil {
			fatal("%v", err)
		}
		if interrupted {
			fmt.Println("interrupted: cover completed with the cheapest-column fallback")
		}
		fmt.Printf("greedy: cost %d, columns %v\n", p.CostOf(sol), sol)
	default:
		fatal("unknown matrix solver %q", solver)
	}
}

// runStream solves a matrix/OR-Library instance through the out-of-core
// sharded driver, streaming it from disk under the -mem-budget byte
// cap; the result is bit-identical to the in-memory solve.
func runStream(sess *session, path string, orlib bool, opt ucp.SCGOptions) {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	var res *ucp.SCGResult
	if orlib {
		res, err = ucp.SolveSCGORLib(f, opt)
	} else {
		res, err = ucp.SolveSCGMatrix(f, opt)
	}
	if err != nil {
		fatal("%v", err)
	}
	if res.Solution == nil {
		fatal("problem is infeasible")
	}
	notice(res.Interrupted, res.StopReason)
	optS := ""
	if res.ProvedOptimal {
		optS = " (proved optimal)"
	}
	fmt.Printf("scg: cost %d%s, LB %.3f, columns %v\n", res.Cost, optS, res.LB, res.Solution)
	fmt.Printf("core %dx%d, %d fixing steps, %v\n",
		res.Stats.CoreRows, res.Stats.CoreCols, res.Stats.FixSteps, res.Stats.TotalTime.Round(time.Millisecond))
	sess.reportShard(res.Stats.ShardComponents, res.Stats.ShardSpilled,
		res.Stats.ShardRespilled, res.Stats.ShardDegraded, res.Stats.ShardPeakBytes)
}

// runDelta solves p with the state kept, reconstructs the edit to q,
// and re-solves q incrementally, reporting both results and the
// speedup.
func runDelta(sess *session, p, q *ucp.Problem, seed int64, numIter, workers int, bud ucp.Budget) {
	fmt.Printf("delta:   %d rows, %d columns\n", len(q.Rows), q.NCol)
	opt := ucp.SCGOptions{Seed: seed, NumIter: numIter, Workers: workers, Budget: bud}

	t0 := time.Now()
	base, keep := sess.SolveSCGKeep(p, opt)
	baseTime := time.Since(t0)
	if base.Solution == nil {
		fatal("base problem is infeasible")
	}
	notice(base.Interrupted, base.StopReason)
	optB := ""
	if base.ProvedOptimal {
		optB = " (proved optimal)"
	}
	fmt.Printf("base:    cost %d%s, LB %.3f, %v\n", base.Cost, optB, base.LB, baseTime.Round(time.Millisecond))

	d := ucp.DeltaBetween(p, q)
	t1 := time.Now()
	res, _ := sess.Resolve(d, keep, opt, ucp.ResolveOptions{})
	resTime := time.Since(t1)
	if res.Solution == nil {
		fatal("delta problem is infeasible")
	}
	notice(res.Interrupted, res.StopReason)
	optR := ""
	if res.ProvedOptimal {
		optR = " (proved optimal)"
	}
	fmt.Printf("resolve: cost %d%s, LB %.3f, %v", res.Cost, optR, res.LB, resTime.Round(time.Microsecond))
	if resTime > 0 && baseTime > 0 {
		fmt.Printf(" (%.1fx faster than the base solve)", float64(baseTime)/float64(resTime))
	}
	fmt.Println()
	rs := sess.ResolveStats()
	fmt.Printf("reuse:   %d blocks carried over, %d re-solved\n", rs.CompsReused, rs.CompsSolved)
	fmt.Printf("columns: %v\n", res.Solution)
}
