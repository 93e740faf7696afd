// Package harness regenerates every table and figure of the paper's
// evaluation section on the replica instances: the Figure 1 bound
// comparison, the easy-cyclic aggregate experiment, Tables 1–2
// (ZDD_SCG vs Espresso normal/strong) and Tables 3–4 (ZDD_SCG vs the
// exact solver on the same problems), plus the Proposition 1 bound
// study and the ablation sweeps of DESIGN.md §5.
//
// The absolute numbers differ from the paper — the instances are
// seeded synthetic replicas and the machine is not an UltraSparc — but
// each experiment preserves the comparison the paper draws, and the
// writers print paper-style rows so the shapes can be checked side by
// side.
package harness

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"ucp/internal/benchmarks"
	"ucp/internal/bnb"
	"ucp/internal/espresso"
	"ucp/internal/lagrangian"
	"ucp/internal/matrix"
	"ucp/internal/primes"
	"ucp/internal/scg"
	"ucp/internal/simplex"
	"ucp/internal/solvecache"
)

// sessionCache, when installed with UseCache, is threaded into every
// scg and bnb solve the harness runs, so experiments that revisit the
// same covering problem (ablation sweeps share instances, Tables 3–4
// re-solve Table 1–2 functions) pay for each distinct problem once.
var sessionCache *solvecache.Cache

// UseCache installs (or, with nil, removes) a cross-solve cache for
// every subsequent harness experiment.  Install it before starting an
// experiment; it is not safe to swap mid-run.
func UseCache(c *solvecache.Cache) { sessionCache = c }

func scgOpts(opt scg.Options) scg.Options {
	if opt.Cache == nil {
		opt.Cache = sessionCache
	}
	return opt
}

func bnbOpts(opt bnb.Options) bnb.Options {
	if opt.Cache == nil {
		opt.Cache = sessionCache
	}
	return opt
}

// Covering builds the unate covering problem of an instance replica
// (primes × ON-minterms, unit costs).  The front end — dense bit-slice
// sweep or iterated consensus — is picked per instance.
func Covering(in benchmarks.Instance) *matrix.Problem {
	f := in.PLA()
	prs, _ := primes.GenerateAutoBudget(f.F, f.D, nil)
	prob, _, err := primes.BuildCovering(f.F, f.D, prs, primes.UnitCost)
	if err != nil {
		panic(fmt.Sprintf("harness: %s: %v", in.Name, err))
	}
	return prob
}

// HeuristicRow is one line of the Table 1 / Table 2 comparison:
// ZDD_SCG against the Espresso-style minimiser in both modes on the
// same function.
type HeuristicRow struct {
	Name               string
	SCGSol             int
	SCGOptimal         bool
	SCGCoreTime        time.Duration // CC(s) column: cyclic core computation
	SCGTotalTime       time.Duration // T(s) column
	CoreRows, CoreCols int
	EspSol             int
	EspTime            time.Duration
	EspStrongSol       int
	EspStrongTime      time.Duration
	AllocMB            float64 // memory allocated by the ZDD_SCG run (the paper's M column)
	PaperSCG, PaperEsp int     // paper-reported values, for the writeup
}

func heuristicRow(in benchmarks.Instance, opt scg.Options) HeuristicRow {
	f := in.PLA()
	row := HeuristicRow{Name: in.Name, PaperSCG: in.PaperSol}

	t0 := time.Now()
	en := espresso.Minimize(f.F, f.D, espresso.Normal)
	row.EspSol, row.EspTime = en.Cover.Len(), time.Since(t0)

	t0 = time.Now()
	es := espresso.Minimize(f.F, f.D, espresso.Strong)
	row.EspStrongSol, row.EspStrongTime = es.Cover.Len(), time.Since(t0)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// Tables 1–2 reproduce the paper's T(s) comparison, so the pipeline
	// keeps the paper-era iterated-consensus front end here: with the
	// dense bit-slice sweep the replica-scale timing shape inverts (SCG
	// beats Espresso end to end) — that effect is measured separately by
	// the front-end study, not folded into the reproduction table.
	t0 = time.Now()
	prs := primes.Generate(f.F, f.D)
	prob, _, err := primes.BuildCovering(f.F, f.D, prs, primes.UnitCost)
	if err != nil {
		panic(err)
	}
	front := time.Since(t0) // implicit front end: primes + matrix
	res := scg.Solve(prob, scgOpts(opt))
	runtime.ReadMemStats(&m1)
	row.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	row.SCGSol = res.Cost
	row.SCGOptimal = res.ProvedOptimal
	row.SCGCoreTime = front + res.Stats.CyclicCoreTime
	row.SCGTotalTime = front + res.Stats.TotalTime
	row.CoreRows, row.CoreCols = res.Stats.CoreRows, res.Stats.CoreCols
	return row
}

// Table1 reproduces Table 1: the difficult cyclic instances.
func Table1() []HeuristicRow {
	var out []HeuristicRow
	for _, in := range benchmarks.DifficultCyclic() {
		out = append(out, heuristicRow(in, scg.Options{Seed: in.Seed}))
	}
	return out
}

// Table2 reproduces Table 2: the challenging instances.
func Table2() []HeuristicRow {
	var out []HeuristicRow
	for _, in := range benchmarks.Challenging() {
		out = append(out, heuristicRow(in, scg.Options{Seed: in.Seed}))
	}
	return out
}

// WriteHeuristic prints rows in the paper's Table 1/2 layout.
func WriteHeuristic(w io.Writer, rows []HeuristicRow) {
	fmt.Fprintf(w, "%-10s %6s %8s %8s %7s %6s %8s %6s %8s\n",
		"Name", "Sol", "CC(s)", "T(s)", "M(MB)", "Esp", "T(s)", "EspS", "T(s)")
	for _, r := range rows {
		star := " "
		if r.SCGOptimal {
			star = "*"
		}
		fmt.Fprintf(w, "%-10s %5d%s %8.2f %8.2f %7.1f %6d %8.2f %6d %8.2f\n",
			r.Name, r.SCGSol, star,
			r.SCGCoreTime.Seconds(), r.SCGTotalTime.Seconds(), r.AllocMB,
			r.EspSol, r.EspTime.Seconds(),
			r.EspStrongSol, r.EspStrongTime.Seconds())
	}
}

// ExactRow is one line of the Table 3 / Table 4 comparison: ZDD_SCG
// against the exact branch-and-bound solver on the same covering
// problem.
type ExactRow struct {
	Name         string
	SCGSol       int
	SCGLB        float64 // lower bound (parenthesised in the paper)
	SCGOptimal   bool
	SCGTime      time.Duration
	Runs         int // the paper's MaxIter column
	ExactSol     int
	ExactOptimal bool
	ExactNodes   int64
	ExactTime    time.Duration
}

func exactRow(in benchmarks.Instance, numIter int, nodeBudget int64) ExactRow {
	prob := Covering(in)
	row := ExactRow{Name: in.Name}

	t0 := time.Now()
	res := scg.Solve(prob, scgOpts(scg.Options{Seed: in.Seed, NumIter: numIter}))
	row.SCGTime = time.Since(t0)
	row.SCGSol, row.SCGLB, row.SCGOptimal = res.Cost, res.LB, res.ProvedOptimal
	row.Runs = res.Stats.Runs
	if row.Runs == 0 {
		row.Runs = 1 // solved before any stochastic restart
	}

	// The exact solver runs standalone (no warm bound from the
	// heuristic), as Scherzo did in the paper's comparison.
	t0 = time.Now()
	ex := bnb.Solve(prob, bnbOpts(bnb.Options{MaxNodes: nodeBudget}))
	row.ExactTime = time.Since(t0)
	row.ExactNodes = ex.Nodes
	row.ExactOptimal = ex.Optimal
	if ex.Solution != nil {
		row.ExactSol = ex.Cost
	} else {
		row.ExactSol = res.Cost // budget ran out before finding any cover
	}
	return row
}

// Table3 reproduces Table 3: difficult cyclic instances, heuristic vs
// exact.  nodeBudget caps the exact search (0 = unlimited, as the
// paper's day-long Scherzo runs; the default binaries pass a budget).
func Table3(numIter int, nodeBudget int64) []ExactRow {
	var out []ExactRow
	for _, in := range benchmarks.DifficultCyclic() {
		out = append(out, exactRow(in, numIter, nodeBudget))
	}
	return out
}

// Table4 reproduces Table 4: the challenging subset the paper
// re-examines against Scherzo.
func Table4(numIter int, nodeBudget int64) []ExactRow {
	want := map[string]bool{}
	for _, n := range benchmarks.Table4Names() {
		want[n] = true
	}
	var out []ExactRow
	for _, in := range benchmarks.Challenging() {
		if want[in.Name] {
			out = append(out, exactRow(in, numIter, nodeBudget))
		}
	}
	return out
}

// WriteExact prints rows in the paper's Table 3/4 layout.
func WriteExact(w io.Writer, rows []ExactRow) {
	fmt.Fprintf(w, "%-10s %12s %9s %8s %8s %10s %9s\n",
		"Name", "Sol(LB)", "T(s)", "MaxIter", "Exact", "Nodes", "T(s)")
	for _, r := range rows {
		sol := fmt.Sprintf("%d(%d)", r.SCGSol, int(math.Ceil(r.SCGLB-1e-9)))
		if r.SCGOptimal {
			sol = fmt.Sprintf("%d*", r.SCGSol)
		}
		exact := fmt.Sprintf("%d", r.ExactSol)
		if !r.ExactOptimal {
			exact += "H" // best effort, like the paper's H marks
		}
		fmt.Fprintf(w, "%-10s %12s %9.2f %8d %8s %10d %9.2f\n",
			r.Name, sol, r.SCGTime.Seconds(), r.Runs,
			exact, r.ExactNodes, r.ExactTime.Seconds())
	}
}

// EasySummary aggregates the 49-instance easy-cyclic experiment the
// way the paper reports it: total ZDD_SCG cost vs total lower bound
// (gap), and the Espresso totals.
type EasySummary struct {
	Instances      int
	SolvedOptimal  int
	TotalSCG       int
	TotalLB        int
	TotalEsp       int
	TotalEspStrong int
	TotalExact     int // exact optima, for validating "all optimal"
	GapPercent     float64
}

// EasyCyclic runs the first experiment of §5.
func EasyCyclic() EasySummary {
	var s EasySummary
	for _, in := range benchmarks.EasyCyclic() {
		f := in.PLA()
		prs, _ := primes.GenerateAutoBudget(f.F, f.D, nil)
		prob, _, err := primes.BuildCovering(f.F, f.D, prs, primes.UnitCost)
		if err != nil {
			panic(err)
		}
		res := scg.Solve(prob, scgOpts(scg.Options{Seed: in.Seed, NumIter: 3}))
		ex := bnb.Solve(prob, bnbOpts(bnb.Options{}))
		en := espresso.Minimize(f.F, f.D, espresso.Normal)
		es := espresso.Minimize(f.F, f.D, espresso.Strong)
		s.Instances++
		if res.ProvedOptimal {
			s.SolvedOptimal++
		}
		s.TotalSCG += res.Cost
		s.TotalLB += int(math.Ceil(res.LB - 1e-9))
		s.TotalEsp += en.Cover.Len()
		s.TotalEspStrong += es.Cover.Len()
		s.TotalExact += ex.Cost
	}
	if s.TotalSCG > 0 {
		s.GapPercent = 100 * float64(s.TotalSCG-s.TotalLB) / float64(s.TotalSCG)
	}
	return s
}

// WriteEasy prints the easy-cyclic aggregate.
func WriteEasy(w io.Writer, s EasySummary) {
	fmt.Fprintf(w, "easy cyclic: %d instances, %d proved optimal by ZDD_SCG\n", s.Instances, s.SolvedOptimal)
	fmt.Fprintf(w, "  total ZDD_SCG   %5d   (exact optimum total %d)\n", s.TotalSCG, s.TotalExact)
	fmt.Fprintf(w, "  total LB        %5d   (gap %.2f%%; paper: 0.22%%)\n", s.TotalLB, s.GapPercent)
	fmt.Fprintf(w, "  total Espresso  %5d   strong %d\n", s.TotalEsp, s.TotalEspStrong)
}

// Figure1Report carries the bound chain of the Figure 1 witness, in
// both cost regimes.
type Figure1Report struct {
	MIS        int
	DualAscent float64
	LinearRel  float64
	Rounded    int
	Optimum    int
	UniformMIS int
	UniformDA  float64
	UniformLR  float64
}

// Figure1 evaluates the reconstructed witness matrix.
func Figure1() Figure1Report {
	p := benchmarks.Figure1()
	var r Figure1Report
	r.MIS, _ = matrix.MISBound(p)
	_, r.DualAscent = lagrangian.DualAscent(p, nil, nil)
	r.LinearRel = lpValue(p)
	r.Rounded = int(math.Ceil(r.LinearRel - 1e-9))
	r.Optimum = bnb.Solve(p, bnbOpts(bnb.Options{})).Cost
	u := benchmarks.Figure1Uniform()
	r.UniformMIS, _ = matrix.MISBound(u)
	_, r.UniformDA = lagrangian.DualAscent(u, nil, nil)
	r.UniformLR = lpValue(u)
	return r
}

// WriteFigure1 prints the Figure 1 bound comparison.
func WriteFigure1(w io.Writer, r Figure1Report) {
	fmt.Fprintf(w, "Figure 1 witness (4 rows x 5 columns, c = 1,1,1,2,2):\n")
	fmt.Fprintf(w, "  LB_MIS = %d   LB_DA = %g   LB_LR = %.4g (-> %d)   optimum = %d\n",
		r.MIS, r.DualAscent, r.LinearRel, r.Rounded, r.Optimum)
	fmt.Fprintf(w, "  uniform costs: LB_MIS = %d   LB_DA = %g   LB_LR = %.4g (-> %d)\n",
		r.UniformMIS, r.UniformDA, r.UniformLR, int(math.Ceil(r.UniformLR-1e-9)))
}

func lpValue(p *matrix.Problem) float64 {
	n := p.NCol
	var a [][]float64
	var b []float64
	for _, r := range p.Rows {
		row := make([]float64, n)
		for _, j := range r {
			row[j] = 1
		}
		a = append(a, row)
		b = append(b, 1)
	}
	for j := 0; j < n; j++ {
		box := make([]float64, n)
		box[j] = -1
		a = append(a, box)
		b = append(b, -1)
	}
	c := make([]float64, n)
	for j := range c {
		c[j] = float64(p.Cost[j])
	}
	_, z, err := simplex.Solve(c, a, b)
	if err != nil {
		return math.NaN()
	}
	return z
}

// BoundsRow is one instance of the Proposition 1 study: the four
// bounds on a random covering matrix.
type BoundsRow struct {
	Seed       int64
	Rows, Cols int
	MIS        int
	DualAscent float64
	Lagrangian float64
	LinearRel  float64
	Optimum    int
}

// BoundsStudy evaluates the Proposition 1 chain on n random covering
// instances.
func BoundsStudy(n int) []BoundsRow {
	var out []BoundsRow
	for k := 0; k < n; k++ {
		seed := int64(4000 + k)
		p := benchmarks.RandomCovering(seed, 12+k%8, 12+k%6, 0.25, 3)
		q, _ := p.Compact()
		row := BoundsRow{Seed: seed, Rows: len(q.Rows), Cols: q.NCol}
		row.MIS, _ = matrix.MISBound(q)
		_, row.DualAscent = lagrangian.DualAscent(q, nil, nil)
		sg := lagrangian.Subgradient(q, lagrangian.Params{}, nil, 0, nil, nil)
		row.Lagrangian = sg.LB
		row.LinearRel = lpValue(q)
		row.Optimum = bnb.Solve(q, bnbOpts(bnb.Options{})).Cost
		out = append(out, row)
	}
	return out
}

// WriteBounds prints the Proposition 1 study.
func WriteBounds(w io.Writer, rows []BoundsRow) {
	fmt.Fprintf(w, "%6s %5s %5s %6s %8s %8s %8s %6s\n",
		"seed", "rows", "cols", "MIS", "DA", "Lagr", "LR", "opt")
	for _, r := range rows {
		fmt.Fprintf(w, "%6d %5d %5d %6d %8.3f %8.3f %8.3f %6d\n",
			r.Seed, r.Rows, r.Cols, r.MIS, r.DualAscent, r.Lagrangian, r.LinearRel, r.Optimum)
	}
}
