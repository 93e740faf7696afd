package scg

import (
	"slices"

	"ucp/internal/matrix"
)

// Incremental re-solving.
//
// SolveKeep runs the same per-part pipeline as Solve (solvePart) with
// a keep stage: the cyclic core's block decomposition and every
// block's portfolio results survive in a SolveState.  ResolveState then
// solves any child problem against a kept state: it reduces the child
// with the one fixpoint, exactly as Solve does, and reuses, wholesale,
// every block whose content the child left untouched — a block's
// portfolio results are a pure function of (rows content, referenced
// costs, block index, options), so a positional content match makes
// reuse bit-exact, not approximate.
//
// A kept solve is one part: the input is not split into its connected
// parts first.  On a connected input that is what Solve does too; on
// an input with several parts the one-part solve runs other restart
// streams than Solve's part-by-part one, and those outputs are pinned,
// so splitting kept solves is a change of their results, not of their
// speed.

// SolveState is the retained state of a SolveKeep solve, the parent
// side of an incremental re-solve: the filled options, the cyclic
// core's blocks, their portfolio results and the solve's result.  It
// is immutable once returned and safe to share: ResolveState only
// reads it.
type SolveState struct {
	opt    Options // filled, no cache or hook
	comps  []matrix.Component
	states []*compState
	res    *Result
}

// Result returns the solve's result (the same value SolveKeep
// returned).
func (st *SolveState) Result() *Result { return st.res }

// ResolveInfo reports how much of the parent solve a resolve reused.
type ResolveInfo struct {
	// Fallback is set when the parent state was unusable (nil,
	// interrupted, or solved under different result-relevant options)
	// and the child was solved from scratch.
	Fallback bool
	// CompsReused / CompsSolved count the cyclic core's blocks that
	// were carried over versus re-solved.
	CompsReused, CompsSolved int
}

// SolveKeep runs the ZDD_SCG pipeline on p and returns the result
// together with the state a later ResolveState can build on.  The
// whole input is solved as one part (part 0), not split into its
// connected parts first.  On connected inputs the result therefore
// equals Solve bit for bit; on inputs with several parts it is an
// equally valid solve whose restart streams, and so possibly its
// counters and cover, differ.  Options.Cache and Options.OnImprove are
// ignored (the retained state is the memoization here, and a block a
// resolve carries over emits no incumbents, so the hook would see
// another stream than a cold solve's).
func SolveKeep(p *matrix.Problem, opt Options) (*Result, *SolveState) {
	opt = keptOptions(opt)
	st := &SolveState{opt: opt}
	st.res = solve(p, opt, &keep{st: st})
	return st.res, st
}

// ResolveState solves child, reusing every cyclic-core block it shares
// with the parent state st.  Any parent state is usable: blocks are
// matched by content, so an unrelated parent just shares fewer.  The
// result is bit-identical to SolveKeep(child, opt); the fresh
// SolveState makes resolves chainable.  A nil parent state is a cold
// kept solve, and one that was interrupted (a budget that stopped its
// reduction included) or solved under different result-relevant
// options degrades to the same, reported in ResolveInfo.
func ResolveState(child *matrix.Problem, st *SolveState, opt Options) (*Result, *SolveState, ResolveInfo) {
	opt = keptOptions(opt)
	next := &SolveState{opt: opt}
	kp := &keep{st: next}
	fallback := st == nil || st.res == nil || st.res.Interrupted || !sameResultOptions(st.opt, opt)
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
// with a parent unchanged blocks are carried over.  A nil *keep is the
// plain pipeline.
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
