package ucp

// SolverOptions configures a Solver session.
type SolverOptions struct {
	// Cache is the session's cross-solve memoization cache, threaded
	// into every solve the Solver runs (unless the per-solve options
	// already carry one).  Nil disables caching.
	Cache *Cache
}

// Solver is a session handle over the package's solvers: every entry
// point run through one Solver shares one cross-solve Cache, so an
// iterated minimisation loop — or a server answering many users —
// pays for each distinct covering problem once.  The cache serves only
// verbatim resubmissions, so a result served from it is bit-identical
// to computing it (Solution, Cost, LB, optimality); only the cache
// counters and timings differ.
//
// A Solver is safe for concurrent use; concurrent identical solves
// are deduplicated behind a single computation.
type Solver struct {
	cache      *Cache
	resolveCtr resolveCounters
}

// NewSolver builds a session handle.  A zero SolverOptions gives an
// uncached Solver.
func NewSolver(opt SolverOptions) *Solver {
	return &Solver{cache: opt.Cache}
}

// CacheStats snapshots the session cache's counters (zero without a
// cache).
func (s *Solver) CacheStats() CacheStats {
	return s.cache.Stats()
}

// SolveSCG runs the paper's heuristic through the session cache.
func (s *Solver) SolveSCG(p *Problem, opt SCGOptions) *SCGResult {
	if opt.Cache == nil {
		opt.Cache = s.cache
	}
	return SolveSCG(p, opt)
}

// SolveExact runs the exact branch-and-bound solver through the
// session cache.
func (s *Solver) SolveExact(p *Problem, opt ExactOptions) *ExactResult {
	if opt.Cache == nil {
		opt.Cache = s.cache
	}
	return SolveExact(p, opt)
}

// MinimizeSCG minimises a PLA with the paper's pipeline, serving the
// covering solve from the session cache when it has seen the same
// covering problem before.
func (s *Solver) MinimizeSCG(f *PLA, opt SCGOptions) (*TwoLevelResult, error) {
	if opt.Cache == nil {
		opt.Cache = s.cache
	}
	return MinimizeSCG(f, opt)
}

// MinimizeExact minimises a PLA exactly, serving the covering solve
// from the session cache.
func (s *Solver) MinimizeExact(f *PLA, opt ExactOptions) (*TwoLevelResult, error) {
	if opt.Cache == nil {
		opt.Cache = s.cache
	}
	return MinimizeExact(f, opt)
}

// MinimizeEspresso runs the Espresso-style comparison minimiser with
// the whole minimisation memoized in the session cache (keyed by the
// input cover, don't-care set and mode).
func (s *Solver) MinimizeEspresso(f *PLA, mode EspressoMode, b Budget) *TwoLevelResult {
	return minimizeEspresso(f, mode, b, s.cache)
}
