package scg

import (
	"slices"

	"ucp/internal/matrix"
)

// Incremental re-solving.
//
// SolveKeep runs the same per-part pipeline as Solve (solvePart) with
// a keep stage: the reduction trace, the cyclic core's block
// decomposition and every block's portfolio results survive in a
// SolveState.  The whole input is one part — replay works on
// whole-problem row maps — so it is not split into its connected
// parts first.  ResolveState then solves any child problem against a
// kept state: it matches the child's rows to the state's problem by
// content (matrix.DeltaBetween), replays the parent's reduction
// through that match (ReplayReduce), and reuses, wholesale, every
// block whose content the child left untouched — a block's portfolio
// results are a pure function of (rows content, referenced costs,
// block index, options), so a positional content match makes reuse
// bit-exact, not approximate.

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

// ResolveInfo reports how much of the parent solve a resolve reused.
type ResolveInfo struct {
	// Fallback is set when the parent state was unusable (nil,
	// interrupted, stopped, or solved under different result-relevant
	// options) and the child was solved from scratch.
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

// ResolveState solves child, reusing as much of the parent state st as
// the two problems share.  Any parent state is usable: the row
// correspondence the replay needs is computed from st's own problem.
// The result is bit-identical to SolveKeep(child, opt); the fresh
// SolveState makes resolves chainable.  A nil parent state is a cold
// kept solve, and one that was interrupted, stopped or solved under
// different result-relevant options degrades to the same, reported in
// ResolveInfo.
func ResolveState(child *matrix.Problem, st *SolveState, opt Options) (*Result, *SolveState, ResolveInfo) {
	opt = keptOptions(opt)
	next := &SolveState{problem: child, opt: opt}
	kp := &keep{st: next}
	fallback := st == nil || st.res == nil || st.res.Interrupted || st.red == nil || st.red.Stopped ||
		!sameResultOptions(st.opt, opt)
	if !fallback {
		kp.parent = st
	}
	next.res = solve(child, opt, kp)
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
// with a parent the reduction replays the parent's trace and unchanged
// blocks are carried over.  A nil *keep is the plain pipeline.
type keep struct {
	st     *SolveState
	parent *SolveState // nil: a cold kept solve
	reused int         // blocks carried over from parent
}

// carry returns (and counts as reused) the parent's state for block c
// when the child left the block untouched, nil when it must be solved.
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

// compMatches reports whether two blocks are the same subproblem: the
// same rows in the same order and the same cost on every referenced
// column.  Universe sizes may differ; only referenced columns
// influence a block's solve.
func compMatches(pp, cp *matrix.Problem) bool {
	if !slices.EqualFunc(pp.Rows, cp.Rows, slices.Equal[[]int]) {
		return false
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
