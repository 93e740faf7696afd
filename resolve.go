package ucp

import (
	"sync/atomic"

	"ucp/internal/scg"
)

// Incremental re-solving.
//
// SolveSCGKeep solves a problem and returns, beside the result, a
// *Resolvable handle on the solve's retained state: its cyclic core's
// blocks and their portfolio results.  Solver.Resolve answers any later
// problem against such a handle: it reduces the new problem as a cold
// solve would and reuses every core block the two problems share
// instead of solving it again.  The result is bit-identical to a
// from-scratch SolveSCGKeep of the new problem.

// Resolvable is the retained state of a SolveSCGKeep (or Resolve)
// call: the parent side of an incremental re-solve.  It is immutable
// and safe to share across goroutines.
type Resolvable struct {
	state *scg.SolveState
}

// Result returns the solve result the state was built from.
func (r *Resolvable) Result() *SCGResult { return r.state.Result() }

// ResolveStats counts how a Solver's incremental re-solves went.
type ResolveStats struct {
	Resolves    int64 // Resolve calls
	ParentHits  int64 // served against a passed parent
	Fallbacks   int64 // parent passed but unusable (interrupted, or other options)
	CompsReused int64 // cyclic-core blocks carried over verbatim
	CompsSolved int64 // cyclic-core blocks re-solved
}

// resolveCounters is the Solver-internal atomic mirror of
// ResolveStats.
type resolveCounters struct {
	resolves, parentHits, fallbacks, compsReused, compsSolved atomic.Int64
}

func (c *resolveCounters) snapshot() ResolveStats {
	return ResolveStats{
		Resolves:    c.resolves.Load(),
		ParentHits:  c.parentHits.Load(),
		Fallbacks:   c.fallbacks.Load(),
		CompsReused: c.compsReused.Load(),
		CompsSolved: c.compsSolved.Load(),
	}
}

// SolveSCGKeep solves p with the session state kept for later
// incremental re-solves.  The whole input is solved as one part,
// without first splitting it into its connected parts: on a connected
// p the result equals SolveSCG bit for bit, while on a p with several
// parts the restart streams and so possibly the counters and the cover
// differ.
func (s *Solver) SolveSCGKeep(p *Problem, opt SCGOptions) (*SCGResult, *Resolvable) {
	res, st := scg.SolveKeep(p, opt)
	return res, &Resolvable{state: st}
}

// Resolve solves child incrementally against parent, the state of any
// earlier SolveSCGKeep or Resolve call.  The result is bit-identical
// to SolveSCGKeep(child, opt); only the speed depends on how much the
// two problems share.  A nil parent is a cold kept solve, and so is a
// parent that was interrupted or solved under different
// result-relevant options (counted as a fallback).  The returned
// Resolvable makes resolves chainable.
func (s *Solver) Resolve(child *Problem, parent *Resolvable, opt SCGOptions) (*SCGResult, *Resolvable) {
	s.resolveCtr.resolves.Add(1)
	var st *scg.SolveState
	if parent != nil {
		st = parent.state
		s.resolveCtr.parentHits.Add(1)
	}
	res, next, info := scg.ResolveState(child, st, opt)
	if info.Fallback && st != nil {
		s.resolveCtr.fallbacks.Add(1)
	}
	s.resolveCtr.compsReused.Add(int64(info.CompsReused))
	s.resolveCtr.compsSolved.Add(int64(info.CompsSolved))
	return res, &Resolvable{state: next}
}

// ResolveStats snapshots the session's incremental-resolve counters.
func (s *Solver) ResolveStats() ResolveStats { return s.resolveCtr.snapshot() }
