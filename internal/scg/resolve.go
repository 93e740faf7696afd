package scg

import "ucp/internal/matrix"

// Incremental re-solving.
//
// SolveKeep runs the same per-part pipeline as Solve (solvePart) with
// a keep stage: the reduction trace, the cyclic core's block
// decomposition and every block's portfolio results survive in a
// SolveState.  The whole input is one part — replay works on
// whole-problem row maps — so it is not split into its connected
// parts first.  ResolveState then solves an edited child problem by
// replaying the parent's reduction (ReplayReduce) and reusing,
// wholesale, every block whose rows the edit left untouched — a
// block's portfolio results are a pure function of (rows content,
// referenced costs, block index, options), so a positional content
// match makes reuse bit-exact, not approximate.

// SolveState is the retained state of a SolveKeep solve, the parent
// side of an incremental re-solve.  It is immutable once returned and
// safe to share: ResolveState only reads it.
type SolveState struct {
	problem *matrix.Problem
	opt     Options // filled, no cache or hook
	red     *matrix.Reduction
	trace   *matrix.ReduceTrace
	comps   []matrix.Component
	states  []*compState
	res     *Result
}

// Result returns the solve's result (the same value SolveKeep
// returned).
func (st *SolveState) Result() *Result { return st.res }

// Problem returns the instance the state solved.
func (st *SolveState) Problem() *matrix.Problem { return st.problem }

// ResolveOptions tunes an incremental re-solve.
type ResolveOptions struct {
	// WarmStart seeds the initial subgradient phase of re-solved
	// blocks with the parent's saved multipliers, mapped through the
	// delta's row correspondence (rows without a parent start at zero).
	// This usually converges in fewer iterations but abandons the
	// bit-identity-with-cold contract: the result is still a verified
	// feasible cover with a valid lower bound, just not necessarily the
	// same one a cold solve finds.
	WarmStart bool
}

// ResolveInfo reports how much of the parent solve a resolve reused.
type ResolveInfo struct {
	// Fallback is set when the parent state was unusable (nil, a
	// different problem than the delta's parent, interrupted, or solved
	// under different result-relevant options) and the child was solved
	// from scratch.
	Fallback bool
	// CompsReused / CompsSolved count the cyclic core's blocks that
	// were carried over versus re-solved.
	CompsReused, CompsSolved int
}

// SolveKeep runs the ZDD_SCG pipeline on p and returns the result
// together with the state a later ResolveState can build on.  The
// whole input is solved as one part (part 0): it is not split into its
// connected parts first, because replay works on whole-problem row
// maps.  On connected inputs the result therefore equals Solve bit for
// bit; on inputs with several parts it is an equally valid solve whose
// restart streams, and so possibly its counters and cover, differ.
// Options.Cache and Options.OnImprove are ignored (the retained state
// is the memoization here, and the observational hook has no defined
// replay semantics).
func SolveKeep(p *matrix.Problem, opt Options) (*Result, *SolveState) {
	opt = keptOptions(opt)
	st := &SolveState{problem: p, opt: opt}
	st.res = solve(p, opt, &keep{st: st})
	return st.res, st
}

// ResolveState solves the delta's child problem, reusing as much of
// the parent state as the edit allows.  The returned result is
// bit-identical to SolveKeep(d.Child, opt) when ro.WarmStart is off
// (and the parent state was not produced under an exhausted budget);
// the fresh SolveState makes resolves chainable.  A nil or unusable
// parent state degrades to a full solve, reported in ResolveInfo.
func ResolveState(d *matrix.Delta, st *SolveState, opt Options, ro ResolveOptions) (*Result, *SolveState, ResolveInfo) {
	opt = keptOptions(opt)
	next := &SolveState{problem: d.Child, opt: opt}
	kp := &keep{st: next}
	fallback := st == nil || st.res == nil || st.res.Interrupted || st.red == nil || st.red.Stopped ||
		!sameResultOptions(st.opt, opt) || !matrix.Equal(st.problem, d.Parent)
	if !fallback {
		kp.d, kp.parent, kp.warm = d, st, ro.WarmStart
	}
	next.res = solve(d.Child, opt, kp)
	return next.res, next, ResolveInfo{
		Fallback:    fallback,
		CompsReused: kp.reused,
		CompsSolved: len(next.comps) - kp.reused,
	}
}

// keptOptions fills opt for a kept solve: no cache, no OnImprove hook
// (see SolveKeep).
func keptOptions(opt Options) Options {
	opt.fill()
	opt.Cache = nil
	opt.OnImprove = nil
	return opt
}

// keep is the keep stage solvePart runs for SolveKeep and
// ResolveState: st receives the session state as it is built, and
// with a parent the reduction replays the parent's trace through d
// and unchanged blocks are carried over (warm-seeding re-solved
// blocks when warm is set).  A nil *keep is the plain pipeline.
type keep struct {
	st     *SolveState
	d      *matrix.Delta
	parent *SolveState // nil: a cold kept solve
	warm   bool
	warmer *warmSource // built on first use
	reused int         // blocks carried over from parent
}

// carry returns (and counts as reused) the parent's state for block c
// when the edit left the block untouched, nil when it must be solved.
// A positional content match makes reuse bit-exact: a block's
// portfolio results are a pure function of (rows, referenced costs,
// block index, options), all equal.
func (kp *keep) carry(c int, core *matrix.Problem) *compState {
	if kp == nil || kp.parent == nil {
		return nil
	}
	par := kp.parent
	if c >= len(par.states) || c >= len(par.comps) || !compMatches(par.comps[c].Problem, core) {
		return nil
	}
	kp.reused++
	return par.states[c]
}

// warmStart returns the warm start for a re-solved block, nil for a
// cold one.
func (kp *keep) warmStart(comp matrix.Component, red *matrix.Reduction) *warmStart {
	if !kp.warm {
		return nil
	}
	if kp.warmer == nil {
		kp.warmer = newWarmSource(kp.parent, kp.d, red)
	}
	return kp.warmer.forComp(comp)
}

// compMatches reports whether two blocks are the same subproblem: the
// same rows in the same order and the same cost on every referenced
// column.  Universe sizes may differ (column ids are stable across a
// delta); only referenced columns influence a block's solve.
func compMatches(pp, cp *matrix.Problem) bool {
	if len(pp.Rows) != len(cp.Rows) {
		return false
	}
	for i, r := range pp.Rows {
		cr := cp.Rows[i]
		if len(r) != len(cr) {
			return false
		}
		for k, j := range r {
			if cr[k] != j {
				return false
			}
		}
	}
	for _, r := range pp.Rows {
		for _, j := range r {
			if j >= len(cp.Cost) || pp.Cost[j] != cp.Cost[j] {
				return false
			}
		}
	}
	return true
}

// sameResultOptions reports whether two (filled) option sets produce
// the same results: the options the cache digest covers (resultWords).
func sameResultOptions(a, b Options) bool {
	return resultWords(&a) == resultWords(&b)
}

// warmSource maps the parent's captured multipliers into a child
// block's row/column spaces through the delta.
type warmSource struct {
	// lambdaByChildCore[i] is the parent's λ for the parent core row
	// child core row i descends from, or 0 when the edit broke the
	// chain; muByCol is indexed by original column id.
	lambdaByChildCore []float64
	muByCol           []float64
}

func newWarmSource(parent *SolveState, d *matrix.Delta, red *matrix.Reduction) *warmSource {
	w := &warmSource{}
	if parent.red == nil {
		return w
	}
	// Parent core row → λ, via the parent's block decomposition.
	lambdaByParentCore := make([]float64, len(parent.red.RowOrigin))
	haveL := make([]bool, len(parent.red.RowOrigin))
	w.muByCol = make([]float64, parent.problem.NCol)
	for c, comp := range parent.comps {
		if c >= len(parent.states) {
			break
		}
		ps := parent.states[c]
		if ps.lambdaSnap == nil {
			continue
		}
		for pos, l := range ps.lambdaSnap {
			if coreRow := coreRowOf(comp, pos); coreRow < len(lambdaByParentCore) {
				lambdaByParentCore[coreRow] = l
				haveL[coreRow] = true
			}
		}
		for j, mu := range ps.muSnap {
			if mu != 0 && j < len(w.muByCol) {
				w.muByCol[j] = mu
			}
		}
	}
	// Parent input row → parent core row.
	inputToCore := make(map[int]int, len(parent.red.RowOrigin))
	for k, o := range parent.red.RowOrigin {
		inputToCore[o] = k
	}
	// Child core row → child input row → parent input row → λ.
	w.lambdaByChildCore = make([]float64, len(red.RowOrigin))
	for i, childInput := range red.RowOrigin {
		if childInput >= len(d.RowMap) {
			continue
		}
		pi := d.RowMap[childInput]
		if pi < 0 {
			continue
		}
		if k, ok := inputToCore[pi]; ok && haveL[k] {
			w.lambdaByChildCore[i] = lambdaByParentCore[k]
		}
	}
	return w
}

// forComp slices the source down to one child block.
func (w *warmSource) forComp(comp matrix.Component) *warmStart {
	lambda := make([]float64, len(comp.Problem.Rows))
	any := false
	for pos := range lambda {
		if coreRow := coreRowOf(comp, pos); coreRow < len(w.lambdaByChildCore) {
			lambda[pos] = w.lambdaByChildCore[coreRow]
			if lambda[pos] != 0 {
				any = true
			}
		}
	}
	if !any {
		return nil // nothing carried over: a cold start is strictly better
	}
	return &warmStart{lambda: lambda, muByCol: w.muByCol}
}

// coreRowOf maps row pos of a block to its cyclic-core row: the
// block's RowIdx entry, or pos itself when the core did not split
// (the single block is the core, with no row index).
func coreRowOf(comp matrix.Component, pos int) int {
	if comp.RowIdx == nil {
		return pos
	}
	return comp.RowIdx[pos]
}
