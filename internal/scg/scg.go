// Package scg implements ZDD_SCG, the paper's contribution: a greedy
// constructive heuristic for the unate covering problem driven by
// lagrangian relaxation (Figure 2 of the paper).
//
// Each connected part of the covering matrix first takes the column of
// every singleton row and drops the rows those essentials cover: the
// fixpoint's first step, taken for all parts in the one pass that
// finds them (matrix.Split), because on coverings built from PLAs it
// settles most parts outright.  SolveSplit takes that split straight
// from the PLA front end, which never writes the rows the essential
// primes cover.  The rows the essentials leave are reduced to their
// cyclic core by the explicit fixpoint of internal/matrix (duplicate
// rows, row dominance, essential columns, column dominance) on the
// sparse rows.  The subgradient machinery of internal/lagrangian then
// rates the core's columns; penalty tests fix columns in or out,
// "promising" columns are fixed heuristically, and one best-rated
// column is always fixed to guarantee progress.  The process repeats
// until the matrix empties, then the solution is made irredundant.
// NumIter outer runs restart from the saved cyclic core, choosing
// among the BestCol top-rated columns at random.
//
// The paper runs those reductions inside a ZDD before it decodes the
// core.  That pays only when the matrix is never enumerated
// explicitly, and here the covering front end visits every row's
// minterm, so the solve does not run a ZDD phase.
// ImplicitReduceBudgetWorkers keeps the paper's ZDD phase as a
// reference engine: the differential tests and the implicit-vs-explicit
// ablation call it.
package scg

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"time"

	"ucp/internal/budget"
	"ucp/internal/lagrangian"
	"ucp/internal/matrix"
	"ucp/internal/solvecache"
)

// Options configures the solver.  The zero value selects the paper's
// defaults.
type Options struct {
	// NumIter is the number of constructive runs; from the second run
	// on, the fixing step picks at random among the best BestCol
	// candidates.  Default 1.
	NumIter int
	// BestCol is the stochastic window of the first randomised run; it
	// grows by one each later run.  Default 2.
	BestCol int
	// Params tunes the subgradient ascent.
	Params lagrangian.Params
	// Seed drives the stochastic runs.
	Seed int64
	// DisablePenalties skips the lagrangian and dual penalty fixing
	// (for ablations).
	DisablePenalties bool
	// DisablePromising skips the ĉ/μ̂ promising-column fixing (for
	// ablations).
	DisablePromising bool
	// DisablePartition turns off the independent-block decomposition
	// of the cyclic core (for ablations).
	DisablePartition bool
	// DisableWarmStart makes every subgradient phase of the fixing
	// loop start cold from dual ascent instead of inheriting the
	// previous phase's multipliers (for ablations; the paper
	// warm-starts, §3.2).
	DisableWarmStart bool
	// Workers bounds the solve's parallelism: the dominance passes of
	// the reduction fixpoints shard across up to Workers goroutines,
	// and the independent blocks of the cyclic core plus the NumIter
	// stochastic restarts of each block run on up to Workers
	// goroutines.  0 means GOMAXPROCS, 1 is fully sequential.  The
	// solution and every Stats counter are bit-identical for a given
	// Seed regardless of Workers (timings and interrupted solves
	// excepted); see DESIGN.md for the contract.
	Workers int
	// Budget bounds the solve (wall-clock deadline, subgradient
	// iteration cap).  The zero value is unlimited.  When the budget
	// runs out the solver degrades gracefully: the reductions return
	// the equivalent problem they reached, the fixing loop stops, and
	// the best feasible solution found so far is returned with
	// Interrupted set and a still-valid lower bound.
	Budget budget.Budget
	// OnImprove, when non-nil, receives every improving incumbent the
	// portfolio assembles while it runs: a feasible cover of the whole
	// input problem, its cost, and the best certified lower bound
	// known at that moment.  Calls are serialised and the slice is a
	// fresh copy the receiver owns.  The hook is observational only —
	// it cannot alter the solved result, which moments emit depends on
	// scheduling (so it is exempt from the bit-identity contract), and
	// it is excluded from the Cache digest; a solve answered from the
	// cache emits no intermediate incumbents, only the final Result.
	OnImprove func(sol []int, cost int, lb float64)
	// MemBudget, when positive, asks for the out-of-core
	// component-sharded driver: ucp.SolveSCG (and the serve layer)
	// route the solve through internal/shard, which partitions the
	// input into connected components, schedules them largest-first
	// under this many bytes of tracked decoded-instance memory, and
	// spills not-yet-scheduled components to disk.  scg.Solve itself
	// ignores the field — the sharded result is bit-identical to the
	// direct one by construction (see DESIGN.md §17), which is also why
	// it is excluded from the Cache digest.  Sharded solves bypass the
	// Cache.
	MemBudget int64
	// SpillDir is where the sharded driver keeps its spill files
	// (empty: the OS temp directory).  Ignored by scg.Solve.
	SpillDir string
	// Cache, when non-nil, memoizes whole solves across calls: the
	// problem is canonicalised to a 128-bit fingerprint, folded with a
	// digest of the result-relevant options (everything above except
	// Workers, whose results are bit-identical by contract, and the
	// budget's deadline/caps, which only matter when they fire — and
	// interrupted solves are never cached), and looked up before any
	// work happens.  Concurrent identical solves are deduplicated
	// behind one leader; Solution and Stats come back as defensive
	// copies, with Stats.CacheHits/CacheMisses marking how the result
	// was obtained.
	Cache *solvecache.Cache
}

func (o *Options) fill() {
	if o.NumIter == 0 {
		o.NumIter = 1
	}
	if o.BestCol == 0 {
		o.BestCol = 2
	}
}

// Stats reports how the solve went.
type Stats struct {
	CyclicCoreTime time.Duration // reduction time
	TotalTime      time.Duration
	CoreRows       int // rows of the cyclic core
	CoreCols       int // active columns of the cyclic core
	FixSteps       int // column-fixing iterations over all runs
	Runs           int // constructive runs executed
	SubgradIters   int // total subgradient iterations
	// Deprecated: always zero; the solve has no implicit phase.  This
	// field and the next three remain because benchmark/child.go reads
	// them.
	ZDDNodes int
	// Deprecated: always zero; the solve has no implicit phase.
	ZDDLiveNodes int
	// Deprecated: always zero; the solve has no implicit phase.
	ZDDCollections int
	// Deprecated: always zero; the solve has no implicit phase.
	ImplicitDense bool
	// CacheHits / CacheMisses report how Options.Cache served this
	// solve: a hit returned a stored (or in-flight leader's) result, a
	// miss computed it.  Both stay zero without a cache; like the
	// timing fields they are exempt from the bit-identity contracts
	// (the same solve answered from the cache differs here and nowhere
	// else).
	CacheHits   int64
	CacheMisses int64
	// Shard counters, populated only by the out-of-core sharded driver
	// (internal/shard); all zero on direct solves.  ShardComponents is
	// the number of connected components the partitioner found and
	// ShardSpilled how many of them went to disk before solving — both
	// deterministic for a given instance and budget.  ShardRespilled
	// (components evicted after decode and re-read later),
	// ShardPeakBytes (high-water tracked decoded bytes) and
	// ShardDegraded (components completed greedily after the deadline)
	// depend on scheduling, so like the timing fields they are exempt
	// from the bit-identity contracts.
	ShardComponents int
	ShardSpilled    int
	ShardRespilled  int
	ShardPeakBytes  int64
	ShardDegraded   int
}

// Result of a ZDD_SCG solve.
type Result struct {
	Solution []int // column ids of the input problem; nil if infeasible
	Cost     int
	LB       float64 // valid lower bound on the optimum of the input
	// ProvedOptimal is true when Cost == ⌈LB⌉, so the heuristic
	// solution is certified optimal.
	ProvedOptimal bool
	// Interrupted reports that the budget ran out before the solve
	// finished; Solution is then still a feasible cover (when one
	// exists) and LB a valid, if weaker, lower bound.
	Interrupted bool
	// StopReason says which budget limit ran out (None when not
	// interrupted).
	StopReason budget.Reason
	Stats      Stats
}

// Solve runs ZDD_SCG on the covering problem p, consulting
// Options.Cache when one is set.
func Solve(p *matrix.Problem, opt Options) *Result {
	opt.fill()
	if opt.Cache != nil {
		return solveCached(p, opt)
	}
	return solve(p, opt, nil)
}

// SolveSplit runs ZDD_SCG on the problem a split describes, without
// the rows its essentials cover.  It is Solve without the Cache: the
// part loop is solve's, so the result is bit-identical to Solve on the
// whole problem.  Options.Cache and Options.MemBudget are ignored.
func SolveSplit(s *matrix.Split, opt Options) *Result {
	opt.fill()
	return solveSplit(s, opt, time.Now())
}

// solve is the uncached solver core; opt is already filled.
//
// The input splits into its connected parts (rows share no column
// across parts), each holding its singleton essentials and the rows
// they leave, in one pass (matrix.SplitParts); solveSplit runs the
// per-part pipeline on every part.  A kept solve (kp non-nil, see
// SolveKeep) is one part.  The sharded driver (internal/shard) runs
// the same pipeline through SolvePart under its own scheduler, so a
// sharded solve is bit-identical to this one by construction.
func solve(p *matrix.Problem, opt Options, kp *keep) *Result {
	t0 := time.Now()
	if kp == nil {
		return solveSplit(p.SplitParts(), opt, t0)
	}
	tr := opt.Budget.Tracker()
	ess, rest, kept, infeasible := p.SplitEssentials()
	return finish(MergeParts([]*PartResult{solveResidual(ess, rest, kept, infeasible, 0, 1, opt, tr, nil, kp)}), tr, t0)
}

// solveSplit runs the per-part pipeline on every part of s and
// MergeParts folds the results in canonical part order, stopping at
// the first uncoverable part.  Under DisablePartition the whole split
// is one part.
func solveSplit(s *matrix.Split, opt Options, t0 time.Time) *Result {
	tr := opt.Budget.Tracker()
	ess, parts := [][]int{s.Ess}, []matrix.Problem{{Rows: s.Rest, NCol: s.NCol, Cost: s.Cost}}
	if !opt.DisablePartition && s.NParts > 1 {
		ess, parts = s.Bucket()
	}

	// Parts solve sequentially; the portfolio inside each part still
	// spreads its blocks and restarts across the worker budget.
	// OnImprove composes across parts: each part's incumbents feed one
	// slot of an outer assembler that emits whole-problem covers (a part
	// the reductions settle feeds its one cover).
	var outer *anytime
	if opt.OnImprove != nil && len(parts) > 1 {
		outer = newAnytime(nil, 0, len(parts), opt.OnImprove)
	}
	prs := make([]*PartResult, 0, len(parts))
	for k := range parts {
		emit := opt.OnImprove
		if outer != nil {
			emit = outer.slot(k)
		}
		// An empty row is residual, so it makes its part infeasible.
		infeasible := slices.ContainsFunc(parts[k].Rows, func(r []int) bool { return len(r) == 0 })
		pr := solveResidual(ess[k], &parts[k], nil, infeasible, k, len(parts), opt, tr, emit, nil)
		prs = append(prs, pr)
		if pr.Solution == nil {
			break // an uncoverable part: the whole problem is infeasible
		}
	}
	return finish(MergeParts(prs), tr, t0)
}

// finish stamps a merged result with the budget's verdict and the
// solve's wall time.
func finish(res *Result, tr *budget.Tracker, t0 time.Time) *Result {
	if r := tr.Reason(); r != budget.None {
		res.Interrupted = true
		res.StopReason = r
	}
	res.Stats.TotalTime = time.Since(t0)
	return res
}

// PartResult is the complete solve outcome of one connected part of an
// input problem: the part's irredundant cover (essential columns
// included; nil when the part is uncoverable), its cost, the float and
// integer-rounded lower bounds, and the part-local Stats.  Parts
// compose: MergeParts folds a slice of these, in canonical part order
// (matrix.Components order: ascending smallest row index), into the
// whole-problem Result.
type PartResult struct {
	Solution []int
	Cost     int
	LB       float64
	CeilLB   int
	Stats    Stats
}

// SolvePart runs the per-part pipeline on one connected part of an
// input problem that splits into nparts parts.  partIdx is the part's
// canonical index, which seeds the part's restart RNG streams; column
// ids in part (and in the returned Solution) are the input problem's.
// When nparts > 1 the part is a slice of a wider column universe, so
// the rows its singleton essentials leave are compacted to their
// active columns (an O(nnz) operation, see matrix.CompactSparse) and
// the solution is mapped back: per-part costs never scale with the
// parent's NCol.  The caller owns the decomposition contract: part
// really is one connected component of an nparts-part input and
// partIdx its canonical position, or the solve is still valid but no
// longer bit-comparable with solving the whole input.  Options.Cache
// and Options.OnImprove are ignored at part level.
func SolvePart(part *matrix.Problem, partIdx, nparts int, opt Options, tr *budget.Tracker) *PartResult {
	opt.fill()
	ess, rest, kept, infeasible := part.SplitEssentials()
	return solveResidual(ess, rest, kept, infeasible, partIdx, nparts, opt, tr, nil, nil)
}

// solveResidual is the per-part pipeline (Figure 2 of the paper) after
// the essential prepass, whose output ess, rest, kept and infeasible
// are SplitEssentials': column compaction of the residual when the
// input has several parts, reduction of the residual to the cyclic
// core, block portfolio over the core, irredundant cleanup of the
// residual's cover.  emit (may be nil) receives the part's improving
// incumbents; a part the reductions finish emits its one cover.  kp
// (may be nil) is the keep stage of an incremental solve: its
// reduction is traced, or replayed from the parent's trace, and its
// portfolio carries unchanged parent blocks over.
func solveResidual(ess []int, rest *matrix.Problem, kept []int, infeasible bool, partIdx, nparts int, opt Options, tr *budget.Tracker, emit func([]int, int, float64), kp *keep) *PartResult {
	pr := &PartResult{}
	t0 := time.Now()
	red := &matrix.Reduction{Core: rest, Infeasible: infeasible}
	var ids []int
	var trace *matrix.ReduceTrace
	input := rest // the residual in input column ids, before compaction
	if !infeasible && len(rest.Rows) > 0 {
		if nparts > 1 {
			// Solve against the residual's own active columns; toInput
			// maps its covers back to input column ids.
			rest, ids = rest.CompactSparse()
		}
		// The reduction fixpoints shard their dominance passes across
		// the same worker budget the restart portfolio uses; the merge
		// is deterministic, so the cyclic core is bit-identical for any
		// count.
		workers := opt.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		// ----- reduction to the cyclic core: plain, or traced for a
		// kept solve and replayed from the parent's trace for a resolve.
		// A kept solve has one uncompacted part, so the residual's rows
		// are matched against the parent's whole problem, whose rows
		// the trace names -----
		switch {
		case kp == nil:
			red = matrix.ReduceBudgetWorkers(rest, tr, workers)
		case kp.parent == nil:
			red, trace = matrix.ReduceTrackedTrace(rest, tr, workers)
		default:
			d := matrix.DeltaBetween(kp.parent.problem, rest)
			red, trace = matrix.ReplayReduce(d, kp.parent.trace, tr, workers)
		}
		liftRows(red, trace, kept)
	}
	if kp != nil {
		kp.st.red, kp.st.trace = red, trace
	}
	if red.Infeasible {
		return pr
	}
	core := red.Core
	pr.Stats.CyclicCoreTime = time.Since(t0)

	// toInput maps a cover of the residual to input column ids and adds
	// the prepass essentials.
	toInput := func(sol []int) []int {
		if ids != nil {
			sol = mapCols(sol, ids)
		}
		out := append(append(make([]int, 0, len(ess)+len(sol)), ess...), sol...)
		sort.Ints(out)
		return out
	}
	essCost := input.CostOf(ess) + rest.CostOf(red.Essential)
	if len(core.Rows) == 0 {
		// The reductions solved the part outright; essentials form a
		// minimum cover of it, and with no portfolio to run it is the
		// part's only incumbent.
		pr.Solution = toInput(red.Essential)
		pr.Cost, pr.LB, pr.CeilLB = essCost, float64(essCost), essCost
		if emit != nil {
			emit(slices.Clone(pr.Solution), pr.Cost, pr.LB)
		}
		return pr
	}
	pr.Stats.CoreRows = len(core.Rows)
	pr.Stats.CoreCols = len(core.ActiveCols())

	// ----- solve the cyclic core, one independent block at a time;
	// the blocks and their stochastic restarts run as a deterministic
	// worker-pool portfolio (see portfolio.go) -----
	comps := []matrix.Component{{Problem: core}}
	if !opt.DisablePartition {
		if split := matrix.Components(core); len(split) > 1 {
			comps = split
		}
	}
	var obs *anytime
	if emit != nil {
		obs = newAnytime(red.Essential, essCost, len(comps), func(sol []int, cost int, lb float64) {
			emit(toInput(sol), cost, lb)
		})
	}
	states := make([]*compState, len(comps))
	pend := make([]int, 0, len(comps))
	for c, comp := range comps {
		if ps := kp.carry(c, comp.Problem); ps != nil {
			states[c] = ps
			continue
		}
		states[c] = &compState{core: comp.Problem, idx: c, part: partIdx}
		pend = append(pend, c)
	}
	if kp != nil {
		// A clone, so a plain solve's one-block slice stays off the heap.
		kp.st.comps, kp.st.states = slices.Clone(comps), states
	}
	runStates(states, pend, opt, tr, obs)

	// The prepass essentials are in essCost, so lbSum adds in the order
	// it did when the fixpoint found them.
	best := append([]int(nil), red.Essential...)
	lbSum := float64(essCost)
	ceilSum := essCost
	for _, cs := range states {
		sol, lb, ok := cs.merge(&pr.Stats)
		if !ok {
			return pr // uncoverable block (Solution stays nil)
		}
		best = append(best, sol...)
		lbSum += lb
		ceilSum += int(math.Ceil(lb - 1e-9))
	}
	// Irredundant on the residual makes the removals it would make on
	// the whole part: a prepass essential is the only column of its
	// singleton row, so it is never removed, and it keeps every row
	// outside the residual covered, so no such row holds a column in.
	pr.Solution = toInput(rest.Irredundant(best))
	pr.Cost = input.CostOf(pr.Solution)
	pr.LB = lbSum
	pr.CeilLB = ceilSum
	return pr
}

// liftRows maps a reduction of the residual back to the part's rows,
// where the next replay reads them:
// residual row i is part row kept[i] (kept nil: they coincide).
func liftRows(red *matrix.Reduction, trace *matrix.ReduceTrace, kept []int) {
	if kept == nil {
		return
	}
	for i, o := range red.RowOrigin {
		red.RowOrigin[i] = kept[o]
	}
	if trace != nil {
		for k, f := range trace.RowKills {
			trace.RowKills[k] = [2]int32{int32(kept[f[0]]), int32(kept[f[1]])}
		}
	}
}

// MergeParts folds per-part results — in canonical part order — into
// one whole-problem Result: covers concatenate (parts share no
// columns, and each part's cover is already irredundant, so the union
// is too), costs and bounds add, counters fold.  The fold stops at the
// first uncoverable part, mirroring solve's early return, so a
// scheduler that solved later parts anyway merges to the identical
// Result.  Interrupted/StopReason stay for the caller, which owns the
// budget tracker.
func MergeParts(prs []*PartResult) *Result {
	res := &Result{}
	sol := []int{}
	cost, ceilSum := 0, 0
	lbSum := 0.0
	for _, pr := range prs {
		foldStats(&res.Stats, &pr.Stats)
		if pr.Solution == nil {
			return res // Solution stays nil
		}
		sol = append(sol, pr.Solution...)
		cost += pr.Cost
		lbSum += pr.LB
		ceilSum += pr.CeilLB
	}
	sort.Ints(sol)
	res.Solution = sol
	res.Cost = cost
	res.LB = lbSum
	res.ProvedOptimal = cost <= ceilSum
	return res
}

// foldStats accumulates one part's counters into the whole-solve
// Stats; they all sum.
func foldStats(dst, src *Stats) {
	dst.CyclicCoreTime += src.CyclicCoreTime
	dst.CoreRows += src.CoreRows
	dst.CoreCols += src.CoreCols
	dst.FixSteps += src.FixSteps
	dst.Runs += src.Runs
	dst.SubgradIters += src.SubgradIters
}

// runOnce executes one constructive run of the fixing loop on a copy
// of the saved cyclic core (zBest is the cost to beat), returning the
// completed cover (or nil when every path was abandoned), its cost,
// the best valid core lower bound observed (only the pre-fixing
// subgradient phase produces one), and iteration counts.
func runOnce(core *matrix.Problem, zBest int, opt Options, rng *rand.Rand, window int, tr *budget.Tracker, sc *lagrangian.Scratch) (sol []int, cost int, coreLB float64, sgIters, steps int) {
	var fixed []int
	cur := core.Clone()
	coreLB = math.Inf(-1)
	firstPhase := true

	// Multipliers inherited across fixing phases (§3.2: the previous
	// problem's best λ is the new problem's start).  lambda is aligned
	// with cur.Rows; mu lives in original column-id space.
	var lambda []float64
	var muFull []float64
	var flags []uint8 // per compact column: fixIn, fixOut

	for {
		if tr.Interrupted() {
			// Abandon the run; the best candidate seen so far (possibly
			// nil) goes back to solveCore, which keeps its incumbent.
			return sol, cost, coreLB, sgIters, steps
		}
		steps++
		if len(cur.Rows) == 0 {
			full := core.Irredundant(fixed)
			return full, core.CostOf(full), coreLB, sgIters, steps
		}
		compact, ids := cur.Compact()
		var init *lagrangian.Multipliers
		if !opt.DisableWarmStart && lambda != nil && muFull != nil {
			mu := make([]float64, compact.NCol)
			for k, j := range ids {
				mu[k] = muFull[j]
			}
			init = &lagrangian.Multipliers{Lambda: lambda, Mu: mu}
		}
		sg := lagrangian.Subgradient(compact, opt.Params, init, 0, tr, sc)
		sgIters += sg.Iters
		if sg.Best == nil {
			return nil, 0, coreLB, sgIters, steps
		}
		pathLB := float64(core.CostOf(fixed)) + sg.LB
		if firstPhase {
			coreLB = sg.LB // nothing fixed yet: a valid bound on the core
			firstPhase = false
		}
		// A complete candidate through this subproblem's heuristic.
		cand := append(append([]int(nil), fixed...), mapCols(sg.Best, ids)...)
		cand = core.Irredundant(cand)
		if c := core.CostOf(cand); c < zBest {
			zBest = c
			sol, cost = cand, c
		}
		// Abandon the path when it cannot beat the best known cover.
		if math.Ceil(pathLB-1e-9) >= float64(zBest) {
			return sol, cost, coreLB, sgIters, steps
		}
		// Budget for the penalty tests: how much the subproblem may
		// spend while still improving on the best known cover.
		budget := zBest - core.CostOf(fixed)

		// ----- penalty fixing -----
		// flags marks each compact column fixed in or out.  The fixes
		// apply in ascending column order: the order of fixed breaks
		// Irredundant's ties, so it must not depend on iteration order.
		flags = append(flags[:0], make([]uint8, compact.NCol)...)
		if !opt.DisablePenalties {
			pen := lagrangian.LagrangianPenalties(sg.CTilde, sg.LB, budget)
			prm := opt.Params
			if prm.DualPen == 0 {
				prm.DualPen = lagrangian.DefaultParams().DualPen
			}
			if compact.NCol <= prm.DualPen {
				pen = pen.Merge(lagrangian.DualPenalties(compact, sg.Lambda, budget))
			}
			if pen.NoBetter {
				return sol, cost, coreLB, sgIters, steps
			}
			for _, j := range pen.FixIn {
				flags[j] |= fixIn
			}
			for _, j := range pen.FixOut {
				flags[j] |= fixOut
			}
		}

		// ----- promising columns (ĉ / μ̂ thresholds) -----
		if !opt.DisablePromising {
			for _, j := range lagrangian.Promising(sg.CTilde, sg.Mu, opt.Params) {
				if flags[j]&fixOut == 0 {
					flags[j] |= fixIn
				}
			}
		}

		// ----- always fix one column: the σ-best (or a random pick
		// among the top `window` candidates on stochastic runs) -----
		if !slices.ContainsFunc(flags, func(f uint8) bool { return f&fixIn != 0 }) {
			alpha := opt.Params.Alpha
			if alpha == 0 {
				alpha = lagrangian.DefaultParams().Alpha
			}
			sigma := lagrangian.Sigma(sg.CTilde, sg.Mu, alpha)
			type rated struct {
				j int
				s float64
			}
			var order []rated
			for j := 0; j < compact.NCol; j++ {
				if flags[j]&fixOut == 0 {
					order = append(order, rated{j, sigma[j]})
				}
			}
			if len(order) == 0 {
				return sol, cost, coreLB, sgIters, steps
			}
			sort.Slice(order, func(a, b int) bool { return order[a].s < order[b].s })
			k := 0
			if window > 1 {
				w := window
				if w > len(order) {
					w = len(order)
				}
				k = rng.Intn(w)
			}
			flags[order[k].j] |= fixIn
		}

		// Save the phase's best multipliers for the warm start of the
		// next phase (compact rows match cur.Rows positionally).
		lambda = sg.Lambda
		if muFull == nil {
			muFull = make([]float64, core.NCol)
		}
		for k, j := range ids {
			muFull[j] = sg.Mu[k]
		}

		// ----- apply fixes and re-reduce -----
		next := cur
		rowsKept := make([]int, len(cur.Rows)) // surviving cur-row index per next row
		for i := range rowsKept {
			rowsKept[i] = i
		}
		for j, f := range flags {
			if f&fixIn == 0 {
				continue
			}
			fixed = append(fixed, ids[j])
			var kept []int
			next, kept = next.FixColumnTracked(ids[j])
			mapped := make([]int, len(kept))
			for i, k := range kept {
				mapped[i] = rowsKept[k]
			}
			rowsKept = mapped
		}
		for j, f := range flags {
			if f == fixOut {
				next = next.RemoveColumn(ids[j]) // rows unchanged
			}
		}
		// Per-restart re-reductions stay sequential: the portfolio
		// already spreads the restarts across the worker budget, so
		// sharding these small fixpoints too would only oversubscribe.
		red := matrix.ReduceBudgetWorkers(next, nil, 1)
		if red.Infeasible {
			// Dropping columns emptied a row: no improving solution
			// completes this path.
			return sol, cost, coreLB, sgIters, steps
		}
		fixed = append(fixed, red.Essential...)
		// Thread λ through to the reduced rows.
		newLambda := make([]float64, len(red.Core.Rows))
		for i, o := range red.RowOrigin {
			newLambda[i] = lambda[rowsKept[o]]
		}
		lambda = newLambda
		cur = red.Core
	}
}

// Fixing flags of one step of runOnce.
const (
	fixIn uint8 = 1 << iota
	fixOut
)

func mapCols(cols, ids []int) []int {
	out := make([]int, len(cols))
	for k, j := range cols {
		out[k] = ids[j]
	}
	return out
}
