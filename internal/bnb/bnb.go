// Package bnb implements an exact branch-and-bound solver for the
// unate covering problem in the style of the classical mincov /
// Scherzo solvers: reductions to the cyclic core at every node, a
// maximal-independent-set lower bound, the limit bound theorem for
// column pruning, partitioning into independent blocks, and binary
// branching on a column of the most constrained row.
//
// It serves two purposes in this reproduction: it is the exact
// comparator of the paper's Tables 3 and 4, and it is the optimality
// oracle used by the test-suite to validate the heuristic.
package bnb

import (
	"sort"
	"time"

	"ucp/internal/budget"
	"ucp/internal/canon"
	"ucp/internal/greedy"
	"ucp/internal/matrix"
	"ucp/internal/solvecache"
)

// Options controls the search.
type Options struct {
	// MaxNodes caps the number of branch-and-bound nodes; 0 means
	// unlimited.  When the cap is hit the result is the best solution
	// found so far with Optimal unset.  It is merged with
	// Budget.SearchCap (the tighter cap wins).
	MaxNodes int64
	// InitialUB, when positive, is the cost of a known cover: the
	// search only looks for strictly better solutions but will return
	// a solution of exactly this cost if it proves nothing better
	// exists and finds one matching it.
	InitialUB int
	// DisableLimitBound turns off the Theorem 2 column pruning (for
	// the ablation benchmarks).
	DisableLimitBound bool
	// DisablePartition turns off independent-block decomposition.
	DisablePartition bool
	// DisableTT turns off the per-solve transposition table (for the
	// ablation benchmarks; the table is sound and on by default).
	DisableTT bool
	// Budget bounds the search (deadline, node cap).  When it runs out
	// the best feasible cover found so far is returned with Interrupted
	// set; if the search was cut before finding any cover, a greedy
	// cover stands in so the result is still feasible.
	Budget budget.Budget
	// Cache, when non-nil, memoizes whole exact solves across calls,
	// keyed by the problem's label fingerprint (rows in order, costs,
	// column count) folded with the result-relevant options (InitialUB
	// and the Disable knobs; node caps only matter when they fire, and
	// interrupted solves are not cached), so only a verbatim
	// resubmission hits.  Solution comes back as a defensive copy;
	// CacheHit on the result marks a served lookup.
	Cache *solvecache.Cache
}

// Result of an exact solve.
type Result struct {
	Solution []int // a minimum cover (column ids of the input problem)
	Cost     int
	Optimal  bool  // true when the search completed
	Nodes    int64 // branch-and-bound nodes visited
	// LB is a valid lower bound on the optimum: Cost when Optimal,
	// otherwise the root relaxation bound.
	LB int
	// Interrupted reports that the budget (or MaxNodes) stopped the
	// search early; Solution is then the best feasible cover found.
	Interrupted bool
	// StopReason says which budget limit ran out.
	StopReason budget.Reason
	// TTHits counts transposition-table probes that cut a subtree
	// (exact reuse or lower-bound prune); TTStores counts entries
	// recorded. Both are 0 with DisableTT.
	TTHits   int64
	TTStores int64
	// CacheHit reports that this result was served from Options.Cache
	// (or an in-flight identical solve) instead of being computed.
	CacheHit bool
}

type solver struct {
	opt      Options
	tr       *budget.Tracker
	tt       *transTable
	nodes    int64
	exceeded bool
}

// Solve finds a minimum-cost cover of p, consulting Options.Cache when
// one is set.  The returned solution is nil only if the problem is
// infeasible (some row cannot be covered).
func Solve(p *matrix.Problem, opt Options) *Result {
	if opt.Cache != nil {
		return solveCached(p, opt)
	}
	return solve(p, opt)
}

// solveCached serves one exact solve through the cross-solve cache
// with singleflight deduplication; only completed (non-interrupted)
// solves are shared or admitted, and solutions cross the cache
// boundary as defensive copies.  The key is the problem's label
// fingerprint, so only a verbatim resubmission hits, and it is served
// the stored solution as it is, verified against the prober's matrix;
// a verification failure (a fingerprint collision, p < 2⁻¹²⁸) falls
// back to solving.
func solveCached(p *matrix.Problem, opt Options) *Result {
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	d := canon.DigestWords(0x424e_4231, // "BNB1"
		uint64(opt.InitialUB), b2u(opt.DisableLimitBound),
		b2u(opt.DisablePartition), b2u(opt.DisableTT))
	fp := canon.LabelFingerprint(p).Derive(d)
	key := solvecache.Key{Hi: fp.Hi, Lo: fp.Lo}
	// Waiter cancellation: a dead caller context stops the wait on the
	// leader and unwinds under its own budget (see solvecache.DoChan).
	var cancel <-chan struct{}
	if opt.Budget.Context != nil {
		cancel = opt.Budget.Context.Done()
	}
	var mine *Result
	v, _ := opt.Cache.DoChan(key, cancel, func() (any, time.Duration, bool) {
		t0 := time.Now()
		mine = solve(p, opt)
		return copyResult(mine), time.Since(t0), !mine.Interrupted
	})
	if mine != nil {
		return mine
	}
	res := copyResult(v.(*Result))
	if res.Solution != nil && !(p.IsCover(res.Solution) && p.CostOf(res.Solution) == res.Cost) {
		return solve(p, opt)
	}
	res.CacheHit = true
	return res
}

// copyResult deep-copies a result so cached values never alias a
// caller's slices.
func copyResult(r *Result) *Result {
	cp := *r
	if r.Solution != nil {
		cp.Solution = append([]int(nil), r.Solution...)
	}
	return &cp
}

// solve runs the search without the cross-solve cache.
func solve(p *matrix.Problem, opt Options) *Result {
	b := opt.Budget
	if opt.MaxNodes > 0 && (b.SearchCap == 0 || opt.MaxNodes < b.SearchCap) {
		b.SearchCap = opt.MaxNodes
	}
	s := &solver{opt: opt, tr: b.Tracker()}
	if !opt.DisableTT {
		s.tt = newTransTable()
	}
	ub := 1 << 30
	if opt.InitialUB > 0 {
		ub = opt.InitialUB + 1 // allow matching the known bound
	}
	rootLB, _ := matrix.MISBound(p)
	sol := s.search(p, ub)
	res := &Result{Nodes: s.nodes, LB: rootLB}
	if s.tt != nil {
		res.TTHits = s.tt.hits
		res.TTStores = s.tt.stores
	}
	if r := s.tr.Reason(); r != budget.None {
		res.Interrupted = true
		res.StopReason = r
	}
	if sol == nil && s.exceeded {
		// The cap cut the search before any cover materialised; a
		// greedy cover keeps the best-so-far contract (feasible
		// whenever the problem is).
		if g, _, err := greedy.Solve(p, nil); err == nil {
			sol = g
		}
	}
	if sol == nil {
		return res
	}
	res.Solution = sol
	sort.Ints(res.Solution)
	res.Cost = p.CostOf(sol)
	res.Optimal = !s.exceeded
	if res.Optimal {
		res.LB = res.Cost
	}
	verifyCover(p, res.Solution)
	return res
}

// verifyCover asserts that the incumbent really covers every row
// before it leaves the solver.  bnb is the optimality oracle of the
// whole test-suite, so a corrupted incumbent must fail loudly here
// rather than silently certify wrong "optima" downstream.  One O(nnz)
// check per solve: negligible next to the search itself.
func verifyCover(p *matrix.Problem, sol []int) {
	if !p.IsCover(sol) {
		panic("bnb: incumbent solution is not a cover")
	}
}

// search returns a cover of p with cost < ub, or nil when none exists
// (or the node budget ran out).  It reduces p to its cyclic core and
// delegates the core to searchCore; every bound below the reduction is
// therefore base-normalised (relative to the core, with the essential
// cost already peeled off), which is what the transposition table
// stores and reuses.
func (s *solver) search(p *matrix.Problem, ub int) []int {
	s.nodes++
	if s.tr.AddSearchNodes(1) {
		s.exceeded = true
		return nil
	}
	red := matrix.ReduceBudgetWorkers(p, nil, 1)
	if red.Infeasible {
		return nil
	}
	base := p.CostOf(red.Essential)
	if base >= ub {
		return nil
	}
	core := red.Core
	if len(core.Rows) == 0 {
		if red.Essential == nil {
			return []int{} // solved with no columns; nil means failure
		}
		return red.Essential
	}
	got := s.searchCore(core, ub-base)
	if got == nil {
		return nil
	}
	return append(append([]int(nil), red.Essential...), got...)
}

// searchCore returns a cover of the cyclic core with cost < ub, or nil
// when none exists (or the node budget ran out).  ub is the residual
// budget after the caller's essential base cost.
func (s *solver) searchCore(core *matrix.Problem, ub int) []int {
	// Transposition probe: a previous complete visit to this same core
	// — reached along another branch, through a component split, or as
	// an isomorphic copy under different column labels — settles this
	// node without descending.
	var fp canon.Fingerprint
	var cn *canon.Canonical
	if s.tt != nil {
		cn, fp = ttKey(core)
		if e := s.tt.probe(fp, core); e != nil {
			if e.exact {
				if int(e.cost) >= ub {
					s.tt.hits++
					return nil
				}
				if sol, ok := ttSolution(e, cn, core); ok {
					s.tt.hits++
					return sol
				}
				// Translation failed (a fingerprint collision): fall
				// through and search; the entry is left alone.
			} else if int(e.lb) >= ub {
				s.tt.hits++
				return nil
			}
		}
	}

	// Partition into independent blocks and solve them separately.
	if !s.opt.DisablePartition {
		comps := matrix.Components(core)
		if len(comps) > 1 {
			best := s.searchComponents(comps, ub)
			s.ttRecord(fp, cn, core, ub, best)
			return best
		}
	}

	lb, misRows := matrix.MISBound(core)
	if lb >= ub {
		if s.tt != nil && !s.exceeded && !s.tr.Interrupted() {
			s.tt.storeLB(fp, core, lb) // the MIS bound holds under any budget
		}
		return nil
	}

	// Limit bound theorem: columns covering no MIS row whose cost
	// closes the gap can never appear in an improving solution.
	work := core
	if !s.opt.DisableLimitBound {
		for _, j := range lagRemovable(core, misRows, lb, ub) {
			work = work.RemoveColumn(j)
		}
	}

	// Branch on a column of the most constrained row: the shortest
	// row must be covered by one of its columns, so try them from the
	// most promising (covers many rows, costs little) down.
	bi := -1
	for i, r := range work.Rows {
		if bi < 0 || len(r) < len(work.Rows[bi]) {
			bi = i
		}
	}
	if len(work.Rows[bi]) == 0 {
		// Limit bound emptied a row: no improving solution under this
		// budget.  (Not a budget-free fact, so record only lb = ub.)
		s.ttRecord(fp, cn, core, ub, nil)
		return nil
	}
	colRows := work.ColumnRows()
	branch := append([]int(nil), work.Rows[bi]...)
	sort.Slice(branch, func(a, b int) bool {
		ja, jb := branch[a], branch[b]
		ca := float64(work.Cost[ja]) / float64(len(colRows[ja]))
		cb := float64(work.Cost[jb]) / float64(len(colRows[jb]))
		if ca != cb {
			return ca < cb
		}
		return ja < jb
	})

	ub0 := ub
	var best []int
	cur := work
	for _, j := range branch {
		// The k-th branch includes column j and assumes the first k−1
		// columns of the branching row are excluded (RemoveColumn
		// below enforces that as the loop advances), so the branches
		// partition the solution space.
		sub := cur.FixColumn(j)
		if got := s.search(sub, ub-work.Cost[j]); got != nil {
			cand := append([]int{j}, got...)
			cost := core.CostOf(cand)
			if cost < ub {
				ub = cost
				best = cand
			}
		}
		if s.exceeded {
			break
		}
		cur = cur.RemoveColumn(j)
	}
	s.ttRecord(fp, cn, core, ub0, best)
	return best
}

// ttKey picks the transposition key for a core: the canonical
// fingerprint when the core is small enough to canonicalise at node
// cost (isomorphic cores then share), the label-space SubFingerprint
// otherwise.  The two keyspaces are salted apart, and a core always
// lands in the same one (the choice depends only on its size).
func ttKey(core *matrix.Problem) (*canon.Canonical, canon.Fingerprint) {
	if core.NNZ() <= ttCanonNNZ {
		cn := canon.CanonicalizeCapped(core, ttCanonLeafCap)
		return cn, cn.FP
	}
	return nil, canon.SubFingerprint(core).Derive(ttSubSalt)
}

// ttSolution materialises a stored optimal cover for the probing core:
// canonical-space entries translate through the core's own column
// permutation and are verified against the core (a failed verification
// means a fingerprint collision and is treated as a miss); label-space
// entries copy directly.
func ttSolution(e *ttEntry, cn *canon.Canonical, core *matrix.Problem) ([]int, bool) {
	if !e.canonical {
		return append([]int(nil), e.sol...), true
	}
	if cn == nil {
		return nil, false
	}
	sol := make([]int, len(e.sol))
	for i, k := range e.sol {
		if k < 0 || k >= len(cn.ColPerm) {
			return nil, false
		}
		sol[i] = cn.ColPerm[k]
	}
	if !core.IsCover(sol) || core.CostOf(sol) != int(e.cost) {
		return nil, false
	}
	return sol, true
}

// ttRecord stores what a completed visit to core proved: with a cover,
// the core's exact optimum (the branch covers partition the space, so
// a finished loop that found a cover found the optimum); without one,
// that no cover cheaper than the entry budget ub exists.  An
// interrupted or node-capped visit proves neither and stores nothing.
func (s *solver) ttRecord(fp canon.Fingerprint, cn *canon.Canonical, core *matrix.Problem, ub int, best []int) {
	if s.tt == nil || s.exceeded || s.tr.Interrupted() {
		return
	}
	if best == nil {
		s.tt.storeLB(fp, core, ub)
		return
	}
	cost := core.CostOf(best)
	if cn == nil {
		s.tt.storeExact(fp, core, cost, best, false)
		return
	}
	inv := cn.InverseCol(core.NCol)
	csol := make([]int, len(best))
	for i, j := range best {
		k := inv[j]
		if k < 0 {
			return // cover uses a column outside the active set: don't store
		}
		csol[i] = int(k)
	}
	s.tt.storeExact(fp, core, cost, csol, true)
}

// searchComponents solves the core's independent blocks one by one,
// sharing the residual budget: each block gets what remains of ub
// after the other blocks' lower bounds and the blocks already solved.
func (s *solver) searchComponents(comps []matrix.Component, ub int) []int {
	lbs := make([]int, len(comps))
	lbSum := 0
	for k, c := range comps {
		lbs[k], _ = matrix.MISBound(c.Problem)
		lbSum += lbs[k]
	}
	if lbSum >= ub {
		return nil
	}
	sol := []int{}
	solved := 0
	for k, c := range comps {
		budget := ub - (lbSum - lbs[k]) - solved
		got := s.search(c.Problem, budget)
		if got == nil {
			return nil
		}
		cost := c.Problem.CostOf(got)
		solved += cost
		lbSum -= lbs[k]
		sol = append(sol, got...)
	}
	if solved >= ub {
		return nil
	}
	return sol
}

// lagRemovable lists the columns removable by the limit bound theorem
// given the MIS bound lb and budget (ub − path cost).
func lagRemovable(p *matrix.Problem, misRows []int, lb, budget int) []int {
	coversMIS := make([]bool, p.NCol)
	for _, i := range misRows {
		for _, j := range p.Rows[i] {
			coversMIS[j] = true
		}
	}
	var out []int
	for _, j := range p.ActiveCols() {
		if !coversMIS[j] && lb+p.Cost[j] >= budget {
			out = append(out, j)
		}
	}
	return out
}
