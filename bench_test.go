// Benchmarks regenerating every table and figure of the paper's
// evaluation section (see EXPERIMENTS.md for the measured numbers and
// the paper-vs-replica comparison), plus ablation benches for the
// design choices called out in DESIGN.md and micro-benchmarks of the
// hot substrates.
//
// The table benches do a full experiment per iteration; run them with
// the default -benchtime (they self-calibrate to one iteration) and
// read the custom metrics: products/op or cost/op is solution quality,
// optimal/op how many instances were certified.
package ucp

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ucp/internal/bdd"
	"ucp/internal/benchmarks"
	"ucp/internal/bnb"
	"ucp/internal/harness"
	"ucp/internal/lagrangian"
	"ucp/internal/matrix"
	"ucp/internal/primes"
	"ucp/internal/scg"
	"ucp/internal/solvecache"
	"ucp/internal/zdd"
)

// BenchmarkFigure1Bounds regenerates Figure 1: the bound chain
// LB_MIS < LB_DA < LB_LR on the witness matrix.
func BenchmarkFigure1Bounds(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := harness.Figure1()
		if r.MIS != 1 || r.DualAscent != 2 || r.Optimum != 3 {
			b.Fatalf("bound chain broken: %+v", r)
		}
	}
}

// BenchmarkEasyCyclic regenerates the first experiment of §5: the 49
// easy cyclic instances, reporting the total-cost metrics the paper
// quotes (total 5225 vs bound 5213, 0.22% gap, on the originals).
func BenchmarkEasyCyclic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := harness.EasyCyclic()
		b.ReportMetric(float64(s.TotalSCG), "totalcost/op")
		b.ReportMetric(float64(s.TotalSCG-s.TotalLB), "gap/op")
		b.ReportMetric(float64(s.SolvedOptimal), "optimal/op")
		b.ReportMetric(float64(s.TotalEsp-s.TotalSCG), "esp-excess/op")
		b.ReportMetric(float64(s.TotalEspStrong-s.TotalSCG), "espstrong-excess/op")
	}
}

func benchHeuristicTable(b *testing.B, rows func() []harness.HeuristicRow) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := rows()
		scgTotal, espTotal, strongTotal, optimal := 0, 0, 0, 0
		for _, r := range tbl {
			scgTotal += r.SCGSol
			espTotal += r.EspSol
			strongTotal += r.EspStrongSol
			if r.SCGOptimal {
				optimal++
			}
		}
		b.ReportMetric(float64(scgTotal), "scg-products/op")
		b.ReportMetric(float64(espTotal), "esp-products/op")
		b.ReportMetric(float64(strongTotal), "espstrong-products/op")
		b.ReportMetric(float64(optimal), "optimal/op")
	}
}

// BenchmarkTable1 regenerates Table 1: ZDD_SCG vs Espresso
// normal/strong on the seven difficult cyclic instances.
func BenchmarkTable1(b *testing.B) { benchHeuristicTable(b, harness.Table1) }

// BenchmarkTable2 regenerates Table 2: the sixteen challenging
// instances.
func BenchmarkTable2(b *testing.B) { benchHeuristicTable(b, harness.Table2) }

func benchExactTable(b *testing.B, rows func(int, int64) []harness.ExactRow) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := rows(2, 50_000)
		scgTotal, exTotal := 0, 0
		var nodes int64
		certified := 0
		for _, r := range tbl {
			scgTotal += r.SCGSol
			exTotal += r.ExactSol
			nodes += r.ExactNodes
			if r.ExactOptimal {
				certified++
			}
		}
		b.ReportMetric(float64(scgTotal), "scg-cost/op")
		b.ReportMetric(float64(exTotal), "exact-cost/op")
		b.ReportMetric(float64(nodes), "exact-nodes/op")
		b.ReportMetric(float64(certified), "exact-certified/op")
	}
}

// BenchmarkTable3 regenerates Table 3: heuristic vs exact on the
// difficult cyclic covering problems (exact capped at 50k nodes; the
// paper let Scherzo run for hours).
func BenchmarkTable3(b *testing.B) { benchExactTable(b, harness.Table3) }

// BenchmarkTable4 regenerates Table 4: the challenging subset.
func BenchmarkTable4(b *testing.B) { benchExactTable(b, harness.Table4) }

// BenchmarkBoundsStudy regenerates the Proposition 1 comparison on 20
// random covering instances.
func BenchmarkBoundsStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := harness.BoundsStudy(20)
		strict := 0
		for _, r := range rows {
			if r.DualAscent > float64(r.MIS) && r.LinearRel > r.DualAscent {
				strict++
			}
		}
		b.ReportMetric(float64(strict), "strict-chains/op")
	}
}

// ----- ablation benches (DESIGN.md §5) -----

// BenchmarkAblationAlpha sweeps the fixing weight α of σ = c̃ − α·μ.
func BenchmarkAblationAlpha(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range harness.AblationAlpha() {
			b.ReportMetric(float64(r.Total), r.Label+"-cost/op")
		}
	}
}

// BenchmarkAblationGamma compares the four greedy rating functions.
func BenchmarkAblationGamma(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, g := range harness.AblationGamma() {
			b.ReportMetric(float64(g.Total), g.Label+"/op")
		}
	}
}

// BenchmarkAblationPenalties measures the penalty and promising-column
// fixing machinery.
func BenchmarkAblationPenalties(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range harness.AblationPenalties() {
			b.ReportMetric(float64(r.Total), r.Label+"-cost/op")
		}
	}
}

// BenchmarkAblationRestarts sweeps the stochastic restart count.
func BenchmarkAblationRestarts(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range harness.AblationRestarts() {
			b.ReportMetric(float64(r.Total), r.Label+"-cost/op")
		}
	}
}

// BenchmarkAblationWarmStart contrasts dual-ascent vs zero multiplier
// initialisation under a tight iteration budget.
func BenchmarkAblationWarmStart(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows := harness.AblationWarmStart()
		b.ReportMetric(rows[0].TotalLB, "warm-LB/op")
		b.ReportMetric(rows[1].TotalLB, "cold-LB/op")
	}
}

// BenchmarkAblationSolverWarmStart compares inheriting multipliers
// across fixing phases against cold dual-ascent restarts.
func BenchmarkAblationSolverWarmStart(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range harness.AblationSolverWarmStart() {
			b.ReportMetric(r.Time.Seconds(), r.Label+"-sec/op")
			b.ReportMetric(float64(r.Total), r.Label+"-cost/op")
		}
	}
}

// BenchmarkAblationImplicit compares the ZDD implicit phase plus the
// explicit fixpoint against the explicit fixpoint alone, on the same
// coverings.
func BenchmarkAblationImplicit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, r := range harness.AblationImplicit() {
			b.ReportMetric(r.Time.Seconds(), r.Label+"-sec/op")
			b.ReportMetric(float64(r.CoreRows), r.Label+"-corerows/op")
		}
	}
}

// ----- micro-benchmarks of the substrates -----

// BenchmarkZDDReductions measures the implicit phase on a 300x120
// cyclic covering matrix at the paper's 5000-row, 10000-column early
// exit.  The input already meets it, so the phase builds no ZDD and
// the explicit fixpoint reduces it to its core: this is the shortcut
// the small parts of the benchmark workloads take.
func BenchmarkZDDReductions(b *testing.B) {
	b.ReportAllocs()
	p := benchmarks.CyclicCovering(9, 300, 120, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ir := scg.ImplicitReduceBudgetWorkers(p, 5000, 10000, 0, nil, 1)
		if ir.Infeasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkImplicitZDD measures the implicit phase on the ZDD engine:
// the largest connected part (14 778 rows) of a 16-input random PLA's
// covering, the largest part of the pla-wide benchmark workload.  The
// phase runs at the paper's 5000-row, 10000-column early exit, which
// the part's rows exceed, so unlike BenchmarkZDDReductions' instance it
// takes no explicit shortcut; peak/op is the manager's high-water node
// count.
func BenchmarkImplicitZDD(b *testing.B) {
	b.ReportAllocs()
	f := benchmarks.RandomPLA(15839, 16, 2, 100, 0.35, 0)
	prs, _ := primes.GenerateAutoBudget(f.F, f.D, nil)
	p, _, err := primes.BuildCovering(f.F, f.D, prs, primes.UnitCost)
	if err != nil {
		b.Fatal(err)
	}
	var part *matrix.Problem
	for _, c := range matrix.Components(p) {
		if part == nil || len(c.Problem.Rows) > len(part.Rows) {
			part = c.Problem
		}
	}
	part, _ = part.CompactSparse()
	var peak int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ir := scg.ImplicitReduceBudgetWorkers(part, 5000, 10000, 0, nil, 1)
		if ir.Aborted || ir.Dense {
			b.Fatalf("phase did not run to completion on the ZDD engine (aborted %v, dense %v)", ir.Aborted, ir.Dense)
		}
		peak = ir.ZDDNodes
	}
	b.ReportMetric(float64(peak), "peak/op")
}

// BenchmarkReduceFixpoint measures the explicit reduction engine on a
// wide sparse instance (9000 active columns): a 3000-row cyclic
// covering plus 1000 superset rows, so the fixpoint does real
// row-dominance work on top of the quadratic no-kill scans.  The
// dominance passes shard across GOMAXPROCS workers — run with
// -cpu 1,2,4,8 to observe the scaling; the reduction is bit-identical
// across the settings by contract.
func BenchmarkReduceFixpoint(b *testing.B) {
	b.ReportAllocs()
	base := benchmarks.CyclicCovering(21, 3000, 9000, 4)
	rows := append([][]int(nil), base.Rows...)
	for i := 0; i < 1000; i++ {
		r := append([]int(nil), base.Rows[(i*7)%len(base.Rows)]...)
		r = append(r, (r[len(r)-1]+13)%base.NCol)
		rows = append(rows, r)
	}
	p, err := matrix.New(rows, base.NCol, base.Cost)
	if err != nil {
		b.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	var core int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red := matrix.ReduceBudgetWorkers(p, nil, workers)
		if red.Infeasible {
			b.Fatal("infeasible")
		}
		if core != 0 && core != len(red.Core.Rows) {
			b.Fatalf("nondeterministic reduction: %d then %d core rows", core, len(red.Core.Rows))
		}
		core = len(red.Core.Rows)
	}
	b.ReportMetric(float64(core), "corerows/op")
}

// BenchmarkZDDGC measures the mark-sweep collector: load the covering
// family, run one Minimal pass (stranding the intermediate results),
// then Collect back to the live family.
func BenchmarkZDDGC(b *testing.B) {
	b.ReportAllocs()
	p := benchmarks.CyclicCovering(9, 300, 120, 3)
	var freed int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := zdd.New()
		f := zdd.Empty
		m.AddRoot(&f)
		for _, r := range p.Rows {
			f = m.Union(f, mustSet(m, r))
		}
		f = m.Minimal(f)
		freed = m.Collect()
		if freed == 0 {
			b.Fatal("nothing to collect")
		}
		if m.LiveNodeCount() != m.NodeCount() {
			b.Fatal("sweep left dead nodes")
		}
	}
	b.ReportMetric(float64(freed), "freed/op")
}

// BenchmarkZDDChainNodes measures the chain representation's
// nodes-per-instance win on a paper covering family: load the max1024
// covering rows, reduce to minimal rows, collect, and profile the
// surviving family.  chainlive/op is what the phase's node cap meters;
// plain/op is what a chain-free ZDD would store for the same family;
// ratio/op is the compression factor (the implicit-ceiling headroom).
func BenchmarkZDDChainNodes(b *testing.B) {
	b.ReportAllocs()
	var inst *benchmarks.Instance
	for _, in := range benchmarks.DifficultCyclic() {
		if in.Name == "max1024" {
			in := in
			inst = &in
			break
		}
	}
	f := inst.PLA()
	prs, _ := primes.GenerateAutoBudget(f.F, f.D, nil)
	p, _, err := primes.BuildCovering(f.F, f.D, prs, primes.UnitCost)
	if err != nil {
		b.Fatal(err)
	}
	var live, plain int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := zdd.New()
		fam := zdd.Empty
		m.AddRoot(&fam)
		for _, r := range p.Rows {
			fam = m.Union(fam, mustSet(m, r))
		}
		fam = m.Minimal(fam)
		m.Collect()
		live, plain = m.LiveProfile()
		if live == 0 || plain < 2*live {
			b.Fatalf("chain compression below 2x: %d live vs %d plain-equivalent", live, plain)
		}
	}
	b.ReportMetric(float64(live), "chainlive/op")
	b.ReportMetric(float64(plain), "plain/op")
	b.ReportMetric(float64(plain)/float64(live), "ratio/op")
}

// BenchmarkZDDUnion measures raw family construction: inserting 2000
// random triples into one ZDD.
func BenchmarkZDDUnion(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	sets := make([][]int, 2000)
	for i := range sets {
		sets[i] = []int{rng.Intn(200), rng.Intn(200), rng.Intn(200)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := zdd.New()
		f := zdd.Empty
		for _, s := range sets {
			f = m.Union(f, mustSet(m, s))
		}
		if m.Count(f) == 0 {
			b.Fatal("empty family")
		}
	}
}

// BenchmarkSubgradient measures one full subgradient ascent phase on a
// 200x100 cyclic core.
func BenchmarkSubgradient(b *testing.B) {
	b.ReportAllocs()
	p := benchmarks.CyclicCovering(11, 200, 100, 3)
	q, _ := p.Compact()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := lagrangian.Subgradient(q, lagrangian.Params{}, nil, 0, nil, nil)
		if res.Best == nil {
			b.Fatal("no solution")
		}
	}
}

// BenchmarkSCGCore measures ZDD_SCG end to end on one mid-size cyclic
// covering matrix.
func BenchmarkSCGCore(b *testing.B) {
	b.ReportAllocs()
	p := benchmarks.CyclicCovering(13, 250, 120, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := scg.Solve(p, scg.Options{Seed: int64(i)})
		if res.Solution == nil {
			b.Fatal("no solution")
		}
	}
}

// BenchmarkSCGPortfolio measures an 8-restart ZDD_SCG solve through
// the worker-pool portfolio.  Run with -cpu 1,2,4,8 to observe the
// restart-level scaling; the solution and Stats are bit-identical
// across the settings by the determinism contract (DESIGN.md).
func BenchmarkSCGPortfolio(b *testing.B) {
	b.ReportAllocs()
	p := benchmarks.CyclicCovering(13, 250, 120, 3)
	b.ResetTimer()
	var cost int
	for i := 0; i < b.N; i++ {
		res := scg.Solve(p, scg.Options{Seed: 5, NumIter: 8})
		if res.Solution == nil {
			b.Fatal("no solution")
		}
		if cost != 0 && res.Cost != cost {
			b.Fatalf("nondeterministic portfolio: cost %d then %d", cost, res.Cost)
		}
		cost = res.Cost
	}
	b.ReportMetric(float64(cost), "cost/op")
}

// BenchmarkSolveWide measures scg.Solve on the covering of the largest
// function of the benchmark's pla-wide pool, RandomPLA(15841, 20, 3,
// 80, 0.3, 0): many parts, most of them settled by their singleton
// essentials alone, so the time goes to the one-pass split
// (matrix.SplitParts) rather than the portfolio.  The covering is
// built outside the timer; corerows/op and parts/op are exact work
// counters.
func BenchmarkSolveWide(b *testing.B) {
	p, _, err := BuildCovering(benchmarks.RandomPLA(15841, 20, 3, 80, 0.3, 0), UnitCost)
	if err != nil {
		b.Fatal(err)
	}
	parts := 1
	if split := matrix.Partition(p); split != nil {
		parts = len(split)
	}
	b.ReportAllocs()
	b.ResetTimer()
	core := -1
	for i := 0; i < b.N; i++ {
		res := scg.Solve(p, scg.Options{})
		if res.Solution == nil {
			b.Fatal("no solution")
		}
		if core >= 0 && core != res.Stats.CoreRows {
			b.Fatalf("nondeterministic solve: %d then %d core rows", core, res.Stats.CoreRows)
		}
		core = res.Stats.CoreRows
	}
	b.ReportMetric(float64(core), "corerows/op")
	b.ReportMetric(float64(parts), "parts/op")
}

// BenchmarkSolveCached measures the cross-solve cache against repeated
// resubmission of the same covering problem: the uncached sub-bench
// pays the full ZDD_SCG solve every iteration, the cached one pays it
// once and then only the canonical fingerprint per hit.  The ns/op
// ratio between the two is the memoization speedup (the acceptance bar
// is ≥5×).
func BenchmarkSolveCached(b *testing.B) {
	p := benchmarks.CyclicCovering(13, 250, 120, 3)
	opt := scg.Options{Seed: 5, NumIter: 2}

	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := scg.Solve(p, opt); res.Solution == nil {
				b.Fatal("no solution")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		copt := opt
		copt.Cache = solvecache.New(64, 0)
		want := scg.Solve(p, copt) // warm the entry outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := scg.Solve(p, copt)
			if res.Cost != want.Cost {
				b.Fatalf("cache changed the answer: %d != %d", res.Cost, want.Cost)
			}
		}
		b.StopTimer()
		st := copt.Cache.Stats()
		if st.Hits < int64(b.N) {
			b.Fatalf("only %d hits for %d iterations", st.Hits, b.N)
		}
	})
}

// deltaRow1 builds the single-row edit: one near-duplicate (superset)
// of an existing row, the shape an iterated minimisation loop submits.
func deltaRow1(p *matrix.Problem) *matrix.Problem {
	src := p.Rows[len(p.Rows)/2]
	extra := 0
	for _, j := range src {
		if j == extra {
			extra++
		}
	}
	return withRows(p, append(slices.Clone(src), extra%p.NCol))
}

// deltaCol1 builds the single-column edit: one fresh column covering a
// handful of spread-out rows.
func deltaCol1(p *matrix.Problem) *matrix.Problem {
	rows := slices.Clone(p.Rows)
	for i := 0; i < len(rows); i += 1 + len(rows)/8 {
		rows[i] = append(slices.Clone(rows[i]), p.NCol)
	}
	return matrix.MustNew(rows, p.NCol+1, append(slices.Clone(p.Cost), p.Cost[0]+1))
}

// deltaBatch5 builds the 5% batch edit: near-duplicate rows appended
// for one row in twenty.
func deltaBatch5(p *matrix.Problem) *matrix.Problem {
	var rows [][]int
	for i := 0; i < len(p.Rows); i += 20 {
		src := p.Rows[i]
		rows = append(rows, append(slices.Clone(src), (src[0]+i+1)%p.NCol))
	}
	return withRows(p, rows...)
}

// BenchmarkDeltaResolve measures the incremental re-solve path against
// a from-scratch kept solve of the same edited instance: cold is the
// baseline SolveSCGKeep of the single-row child, row1/col1/batch5pct
// are Solver.Resolve of the edited child with the parent state in
// hand, row matching included.  The acceptance bar is row1 ≤ 25% of
// cold ns/op (target ~10%); results are bit-identical to cold by the
// replay contract, checked every iteration.  Instances: a scpd1-shaped random covering (400×4000,
// 5% density, the OR-Library hard-set shape) and the max1024 covering
// from the paper's difficult cyclic set.
func BenchmarkDeltaResolve(b *testing.B) {
	var max1024 benchmarks.Instance
	for _, in := range benchmarks.DifficultCyclic() {
		if in.Name == "max1024" {
			max1024 = in
		}
	}
	instances := []struct {
		name string
		p    *matrix.Problem
	}{
		{"scpd-like", benchmarks.RandomCovering(41, 400, 4000, 0.05, 100)},
		{"max1024", harness.Covering(max1024)},
	}
	opt := SCGOptions{Seed: 7, NumIter: 1}
	for _, inst := range instances {
		b.Run(inst.name, func(b *testing.B) {
			p := inst.p
			edits := []struct {
				name  string
				child *matrix.Problem
			}{
				{"row1", deltaRow1(p)},
				{"col1", deltaCol1(p)},
				{"batch5pct", deltaBatch5(p)},
			}
			b.Run("cold", func(b *testing.B) {
				b.ReportAllocs()
				s := NewSolver(SolverOptions{})
				child := edits[0].child
				for i := 0; i < b.N; i++ {
					if res, _ := s.SolveSCGKeep(child, opt); res.Solution == nil {
						b.Fatal("no solution")
					}
				}
			})
			for _, e := range edits {
				b.Run(e.name, func(b *testing.B) {
					b.ReportAllocs()
					s := NewSolver(SolverOptions{})
					_, keep := s.SolveSCGKeep(p, opt)
					want, _ := s.SolveSCGKeep(e.child, opt)
					if want.Solution == nil {
						b.Fatal("no solution")
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						res, _ := s.Resolve(e.child, keep, opt)
						if res.Cost != want.Cost || res.Stats.Runs != want.Stats.Runs {
							b.Fatalf("resolve diverged from cold: cost %d vs %d", res.Cost, want.Cost)
						}
					}
					b.StopTimer()
					rs := s.ResolveStats()
					b.ReportMetric(float64(rs.CompsReused)/float64(b.N), "reused/op")
				})
			}
		})
	}
}

// isoBlockCovering builds k label-disjoint copies of one random
// covering block: the branch-and-bound partitions it into k components
// whose sub-cores are isomorphic, so the canonical transposition table
// solves one and reuses the rest.
func isoBlockCovering(seed int64, k, nr, nc, deg int) *matrix.Problem {
	rng := rand.New(rand.NewSource(seed))
	block := make([][]int, nr)
	for i := range block {
		seen := map[int]bool{}
		for len(block[i]) < deg {
			j := rng.Intn(nc)
			if !seen[j] {
				seen[j] = true
				block[i] = append(block[i], j)
			}
		}
	}
	cost := make([]int, k*nc)
	rows := make([][]int, 0, k*nr)
	for c := 0; c < k; c++ {
		for j := 0; j < nc; j++ {
			cost[c*nc+j] = 1 + (j*7+int(seed))%3
		}
		for _, r := range block {
			nr := make([]int, len(r))
			for t, j := range r {
				nr[t] = c*nc + j
			}
			rows = append(rows, nr)
		}
	}
	p, err := matrix.New(rows, k*nc, cost)
	if err != nil {
		panic(err)
	}
	return p
}

// BenchmarkBnBTransposition measures the exact solver with and without
// the transposition table on a 4-block isomorphic instance: nodes/op
// is the search-tree size, and the tt sub-bench should visit
// measurably fewer nodes (the canonical table shares sub-core optima
// across the isomorphic components).
func BenchmarkBnBTransposition(b *testing.B) {
	p := isoBlockCovering(3, 4, 40, 26, 3)
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"tt", false}, {"nott", true}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var nodes, hits int64
			for i := 0; i < b.N; i++ {
				res := bnb.Solve(p, bnb.Options{DisableTT: tc.disable})
				if res.Solution == nil || !res.Optimal {
					b.Fatal("exact solve failed")
				}
				nodes, hits = res.Nodes, res.TTHits
			}
			b.ReportMetric(float64(nodes), "nodes/op")
			b.ReportMetric(float64(hits), "tthits/op")
		})
	}
}

// BenchmarkPrimesAndCovering measures the Quine–McCluskey front end on
// the t1 replica.
func BenchmarkPrimesAndCovering(b *testing.B) {
	b.ReportAllocs()
	var inst benchmarks.Instance
	for _, in := range benchmarks.DifficultCyclic() {
		if in.Name == "t1" {
			inst = in
		}
	}
	for i := 0; i < b.N; i++ {
		p := harness.Covering(inst)
		if len(p.Rows) == 0 {
			b.Fatal("empty covering")
		}
	}
}

// BenchmarkImplicitEncodingZDD vs ...BDD reproduce the paper's §2
// observation that ZDDs suit the covering structures better than the
// earlier BDD encoding (references [18] vs [22]): the same covering
// matrix is loaded as a ZDD family of rows and, for comparison, each
// instance's ON-set minterms are encoded as a characteristic BDD.  The
// ZDD side loads through the implicit phase's bulk build, which
// strands no garbage, so nodes/op is the family's own size.
func BenchmarkImplicitEncodingZDD(b *testing.B) {
	b.ReportAllocs()
	p := benchmarks.CyclicCovering(17, 400, 150, 3)
	nodes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := zdd.New()
		f, err := m.Family(p.Rows)
		if err != nil {
			b.Fatal(err)
		}
		if m.Count(f) == 0 {
			b.Fatal("empty family")
		}
		nodes = m.NodeCount()
	}
	b.ReportMetric(float64(nodes), "nodes/op")
}

// BenchmarkImplicitEncodingBDD measures the characteristic-function
// encoding of the t1 replica's ON-set minterms.
func BenchmarkImplicitEncodingBDD(b *testing.B) {
	b.ReportAllocs()
	var inst benchmarks.Instance
	for _, in := range benchmarks.DifficultCyclic() {
		if in.Name == "t1" {
			inst = in
		}
	}
	f := inst.PLA()
	nodes := 0
	for i := 0; i < b.N; i++ {
		m := bdd.New()
		g := bdd.FromCover(m, f.F, 0)
		if g == bdd.False {
			b.Fatal("empty function")
		}
		nodes = m.NodeCount()
	}
	b.ReportMetric(float64(nodes), "nodes/op")
}

// mustSet builds the set ZDD for elems; benchmark inputs are always
// valid, so the validation error is fatal.
func mustSet(m *zdd.Manager, elems []int) zdd.Node {
	n, err := m.Set(elems)
	if err != nil {
		panic(err)
	}
	return n
}

// BenchmarkShardedSolve measures the out-of-core component-sharded
// driver against the direct in-memory solve on a 60-component
// round-robin instance (the worst case for the streaming partitioner).
// direct is the unsharded scg.Solve baseline; inram runs the sharded
// driver with a budget holding every component resident (its pure
// streaming/partitioning overhead); spill forces most components
// through the spill file.  All three answers are bit-identical by the
// driver's contract, checked every iteration; spilled/op reports how
// many components the spill variant pushed to disk.
func BenchmarkShardedSolve(b *testing.B) {
	spec := benchmarks.ComponentSpec{
		Seed: 11, Components: 60, RowsPerComp: 200, ColsPerComp: 40, RowDegree: 4, MaxCost: 5,
	}
	p, err := benchmarks.ComponentCovering(spec)
	if err != nil {
		b.Fatal(err)
	}
	opt := SCGOptions{Seed: 5, NumIter: 1}
	want := scg.Solve(p, opt)
	if want.Solution == nil {
		b.Fatal("no solution")
	}

	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := scg.Solve(p, opt); res.Cost != want.Cost {
				b.Fatalf("cost %d != %d", res.Cost, want.Cost)
			}
		}
	})
	run := func(name string, memBudget int64) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			sopt := opt
			sopt.MemBudget = memBudget
			spilled := 0
			for i := 0; i < b.N; i++ {
				res := SolveSCG(p, sopt)
				if res.Cost != want.Cost {
					b.Fatalf("sharded solve changed the answer: %d != %d", res.Cost, want.Cost)
				}
				if res.Stats.ShardComponents != spec.Components {
					b.Fatalf("%d components, want %d", res.Stats.ShardComponents, spec.Components)
				}
				spilled = res.Stats.ShardSpilled
			}
			b.ReportMetric(float64(spilled), "spilled/op")
		})
	}
	run("inram", 1<<30)
	run("spill", 256<<10)
}
