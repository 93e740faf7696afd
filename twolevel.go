package ucp

import (
	"fmt"
	"io"
	"os"
	"time"

	"ucp/internal/budget"
	"ucp/internal/cube"
	"ucp/internal/espresso"
	"ucp/internal/pla"
	"ucp/internal/primes"
)

// PLA is a parsed Berkeley-format PLA: the ON-set F, don't-care set D
// and OFF-set R over a common multiple-output cube space.
type PLA = pla.File

// Cover is a multiple-output sum-of-products over a cube space.
type Cover = cube.Cover

// Space describes the boolean space of a cover.
type Space = cube.Space

// ParsePLA reads a PLA file from r (.i/.o headers, {0,1,-} input
// field, .type f/fd/fr/fdr output semantics).
func ParsePLA(r io.Reader) (f *PLA, err error) {
	defer malformed(&err)
	defer guard(&err)
	return pla.Parse(r)
}

// ParsePLAFile reads a PLA from the named file.  A failed open passes
// through untagged; parse failures wrap ErrMalformedInput.
func ParsePLAFile(path string) (p *PLA, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParsePLA(f)
}

// CostModel selects the covering objective: the number of products
// (the paper's primary cost) or products weighted by literal count.
type CostModel = primes.CostModel

// Cost models for BuildCovering / MinimizeSCG.
const (
	UnitCost    = primes.UnitCost
	LiteralCost = primes.LiteralCost
)

// TwoLevelResult is the outcome of a two-level minimisation.
type TwoLevelResult struct {
	Cover    *Cover  // the minimised cover
	Products int     // number of product terms (the paper's cost)
	Literals int     // total input literals (the secondary objective)
	LB       float64 // certified lower bound on the minimum (0 if n/a)
	// ProvedOptimal is set when LB certifies the cover size.
	ProvedOptimal bool
	// Covering-formulation statistics.
	Primes, Rows       int // primes and ON-minterm rows of the UCP
	CoreRows, CoreCols int // cyclic core size
	CyclicCoreTime     time.Duration
	TotalTime          time.Duration
	// Interrupted reports that the budget cut the minimisation short
	// (during prime generation or during the covering solve).  The
	// cover is still a valid implementation of the function; LB and
	// ProvedOptimal are conservative (a partial prime set certifies no
	// bound on the true minimum).
	Interrupted bool
	// StopReason says which budget limit ran out.
	StopReason StopReason
	// CacheHits / CacheMisses report how the session cache served the
	// underlying solve (the covering solve for the SCG and exact
	// pipelines, the whole minimisation for Espresso); both stay zero
	// without a cache.  TTHits counts branch-and-bound
	// transposition-table cutoffs (exact pipeline only).
	CacheHits   int64
	CacheMisses int64
	TTHits      int64
	// ZDD engine profile of the implicit reduction phase (SCG pipeline
	// only; all zero for Espresso, the exact pipeline, or when the
	// dense shortcut claimed the instance): high-water node store,
	// live and plain-equivalent nodes of the surviving family, and
	// mark-sweep collections.  See scg.Stats.
	ZDDNodes       int
	ZDDLiveNodes   int
	ZDDPlainNodes  int
	ZDDCollections int
	// Shard counters of the out-of-core sharded covering solve
	// (SCGOptions.MemBudget > 0); all zero on direct solves.  See
	// scg.Stats.
	ShardComponents int
	ShardSpilled    int
	ShardRespilled  int
	ShardPeakBytes  int64
	ShardDegraded   int
}

// BuildCovering reformulates the minimisation of f (ON-set F, DC-set
// D) as a unate covering problem over the function's primes, returning
// the problem and the prime cover indexed by its columns.
func BuildCovering(f *PLA, cm CostModel) (p *Problem, c *Cover, err error) {
	defer guard(&err)
	p, c, _, err = buildCovering(f, cm, nil)
	return p, c, err
}

// buildCovering is BuildCovering under a budget: when the tracker cuts
// prime generation short, the covering problem ranges over a partial
// implicant set that still contains every cube of F ∪ D, so the
// formulation stays feasible and every solution is a valid cover —
// complete=false just means its optimum may exceed the true minimum.
// Prime generation picks its engine by work (see
// primes.GenerateAutoBudget): iterated consensus runs first, capped at
// the dense bit-slice sweep's estimated word-op count, and the sweep
// runs only when that cap trips; functions outside the sweep's lattice
// limits run consensus uncapped.
func buildCovering(f *PLA, cm CostModel, tr *budget.Tracker) (*Problem, *Cover, bool, error) {
	prs, complete := primes.GenerateAutoBudget(f.F, f.DontCares(), tr)
	prob, _, err := primes.BuildCovering(f.F, f.DontCares(), prs, cm)
	if err != nil {
		return nil, nil, complete, err
	}
	return prob, prs, complete, nil
}

// MinimizeSCG minimises the PLA with the paper's full pipeline:
// prime generation, Quine–McCluskey covering formulation, implicit
// (ZDD) and explicit reductions, and the ZDD_SCG lagrangian heuristic.
// The budget in opt spans the whole pipeline.
func MinimizeSCG(f *PLA, opt SCGOptions) (out *TwoLevelResult, err error) {
	defer guard(&err)
	t0 := time.Now()
	tr := opt.Budget.Tracker()
	prob, prs, complete, err := buildCovering(f, UnitCost, tr)
	if err != nil {
		return nil, err
	}
	res := SolveSCG(prob, opt)
	if res.Solution == nil {
		return nil, fmt.Errorf("ucp: covering problem unexpectedly infeasible")
	}
	cover := primes.CoverFromColumns(prs, res.Solution)
	out = &TwoLevelResult{
		Cover:           cover,
		Products:        res.Cost,
		Literals:        cover.Literals(),
		LB:              res.LB,
		ProvedOptimal:   res.ProvedOptimal,
		Primes:          prs.Len(),
		Rows:            len(prob.Rows),
		CoreRows:        res.Stats.CoreRows,
		CoreCols:        res.Stats.CoreCols,
		CyclicCoreTime:  res.Stats.CyclicCoreTime,
		TotalTime:       time.Since(t0),
		Interrupted:     res.Interrupted || !complete,
		StopReason:      res.StopReason,
		CacheHits:       res.Stats.CacheHits,
		CacheMisses:     res.Stats.CacheMisses,
		ZDDNodes:        res.Stats.ZDDNodes,
		ZDDLiveNodes:    res.Stats.ZDDLiveNodes,
		ZDDPlainNodes:   res.Stats.ZDDPlainNodes,
		ZDDCollections:  res.Stats.ZDDCollections,
		ShardComponents: res.Stats.ShardComponents,
		ShardSpilled:    res.Stats.ShardSpilled,
		ShardRespilled:  res.Stats.ShardRespilled,
		ShardPeakBytes:  res.Stats.ShardPeakBytes,
		ShardDegraded:   res.Stats.ShardDegraded,
	}
	if !complete {
		// The covering ranged over a partial implicant set: its bound
		// does not apply to the true minimum over all primes.
		out.LB = 0
		out.ProvedOptimal = false
		if out.StopReason == StopNone {
			out.StopReason = tr.Reason()
		}
	}
	return out, nil
}

// MinimizeExact minimises the PLA exactly: prime generation, covering
// formulation and branch and bound.  On hard instances bound the
// search with ExactOptions.MaxNodes or ExactOptions.Budget; the result
// then reports the best cover found with Interrupted set and a zero
// LB.
func MinimizeExact(f *PLA, opt ExactOptions) (out *TwoLevelResult, err error) {
	defer guard(&err)
	t0 := time.Now()
	tr := opt.Budget.Tracker()
	prob, prs, complete, err := buildCovering(f, UnitCost, tr)
	if err != nil {
		return nil, err
	}
	res := SolveExact(prob, opt)
	if res.Solution == nil {
		return nil, fmt.Errorf("ucp: exact search found no cover (node budget exhausted?)")
	}
	cover := primes.CoverFromColumns(prs, res.Solution)
	out = &TwoLevelResult{
		Cover:         cover,
		Products:      res.Cost,
		Literals:      cover.Literals(),
		ProvedOptimal: res.Optimal && complete,
		Primes:        prs.Len(),
		Rows:          len(prob.Rows),
		TotalTime:     time.Since(t0),
		Interrupted:   res.Interrupted || !complete,
		StopReason:    res.StopReason,
		TTHits:        res.TTHits,
	}
	if res.CacheHit {
		out.CacheHits = 1
	} else if opt.Cache != nil {
		out.CacheMisses = 1
	}
	if out.ProvedOptimal {
		out.LB = float64(res.Cost)
	} else if complete {
		// The search bound is valid for the true minimum as long as
		// the covering formulation saw every prime.
		out.LB = float64(res.LB)
	}
	if !complete && out.StopReason == StopNone {
		out.StopReason = tr.Reason()
	}
	return out, nil
}

// EspressoMode selects the comparison minimiser's effort.
type EspressoMode = espresso.Mode

// Espresso effort levels.
const (
	EspressoNormal = espresso.Normal
	EspressoStrong = espresso.Strong
)

// MinimizeEspresso minimises the PLA with the Espresso-style
// expand/irredundant/reduce heuristic (the baseline of the paper's
// Tables 1 and 2).  It never certifies optimality.
func MinimizeEspresso(f *PLA, mode EspressoMode) *TwoLevelResult {
	return MinimizeEspressoBudget(f, mode, Budget{})
}

// MinimizeEspressoBudget is MinimizeEspresso under a budget: the
// improvement loop stops at the first pass boundary after the budget
// runs out, where the working cover is always a valid implementation
// of the function.
func MinimizeEspressoBudget(f *PLA, mode EspressoMode, b Budget) *TwoLevelResult {
	return minimizeEspresso(f, mode, b, nil)
}

// minimizeEspresso runs the Espresso loop, memoizing the whole
// minimisation in cache when one is supplied (the Solver session
// path).
func minimizeEspresso(f *PLA, mode EspressoMode, b Budget, cache *Cache) *TwoLevelResult {
	t0 := time.Now()
	tr := b.Tracker()
	res := espresso.MinimizeCached(f.F, f.DontCares(), mode, tr, cache)
	out := &TwoLevelResult{
		Cover:       res.Cover,
		Products:    res.Cover.Len(),
		Literals:    res.Cover.Literals(),
		TotalTime:   time.Since(t0),
		Interrupted: res.Interrupted,
		StopReason:  tr.Reason(),
	}
	if res.CacheHit {
		out.CacheHits = 1
	} else if cache != nil {
		out.CacheMisses = 1
	}
	return out
}

// Equivalent reports whether the cover implements the PLA's function:
// it covers the whole ON-set and stays inside ON ∪ DC.
func Equivalent(f *PLA, cover *Cover) bool {
	onDC := f.F.Clone()
	if d := f.DontCares(); d != nil {
		for _, c := range d.Cubes {
			onDC.Add(c)
		}
	}
	coverPlusDC := cover.Clone()
	if d := f.DontCares(); d != nil {
		for _, c := range d.Cubes {
			coverPlusDC.Add(c)
		}
	}
	return onDC.ContainsCover(cover) && coverPlusDC.ContainsCover(f.F)
}
