package ucp

import (
	"sync/atomic"

	"ucp/internal/canon"
	"ucp/internal/matrix"
	"ucp/internal/scg"
	"ucp/internal/solvecache"
)

// Incremental re-solving.
//
// A Delta describes an edit script from a solved problem to a new one
// (rows added or removed, columns added or emptied).  Solver.Resolve
// answers the edited problem by replaying the parent solve's recorded
// reduction facts and reusing every portfolio block the edit left
// untouched, instead of starting over; with warm starts off the result
// is bit-identical to a from-scratch SolveSCGKeep of the child.
//
// The parent state travels either explicitly — SolveSCGKeep and
// Resolve both return a *Resolvable handle — or implicitly through the
// Solver's ancestor arena, a small LRU of recent states keyed by a
// structural fingerprint: Resolve with a nil parent looks up the
// delta's parent problem there, so callers that dropped the handle
// (or never had it, like a server receiving independent requests)
// still resolve incrementally.

// Delta is an edit script between two covering problems; build one
// with Problem.BeginDelta / AddRows / RemoveRows / AddCols /
// RemoveCols, or reconstruct one with DeltaBetween.
type Delta = matrix.Delta

// DeltaBetween reconstructs a delta between two independently built
// problems by monotone row-content matching.  The match is a hint —
// replay re-verifies everything — so an imperfect reconstruction
// costs speed, never correctness.
func DeltaBetween(parent, child *Problem) *Delta {
	return matrix.DeltaBetween(parent, child)
}

// Resolvable is the retained state of a SolveSCGKeep (or Resolve)
// call: the parent side of an incremental re-solve.  It is immutable
// and safe to share across goroutines.
type Resolvable struct {
	state *scg.SolveState
}

// Result returns the solve result the state was built from.
func (r *Resolvable) Result() *SCGResult { return r.state.Result() }

// Problem returns the instance the state solved.
func (r *Resolvable) Problem() *Problem { return r.state.Problem() }

// ResolveOptions tunes Solver.Resolve.
type ResolveOptions struct {
	// WarmStart seeds re-solved blocks' subgradient phases with the
	// parent's multipliers mapped through the delta.  Usually faster to
	// converge, but the result is then only guaranteed to be a valid
	// feasible cover with a correct lower bound — not bit-identical to
	// a cold solve.
	WarmStart bool
}

// ResolveStats counts how a Solver's incremental re-solves went.
type ResolveStats struct {
	Resolves    int64 // Resolve calls
	ParentHits  int64 // served against an explicitly passed parent
	ArenaHits   int64 // parent state recovered from the ancestor arena
	ArenaMisses int64 // no usable ancestor: solved from scratch
	Fallbacks   int64 // parent present but unusable (options/problem drift)
	CompsReused int64 // cyclic-core blocks carried over verbatim
	CompsSolved int64 // cyclic-core blocks re-solved
}

// resolveCounters is the Solver-internal atomic mirror of
// ResolveStats.
type resolveCounters struct {
	resolves, parentHits, arenaHits, arenaMisses atomic.Int64
	fallbacks, compsReused, compsSolved          atomic.Int64
}

func (c *resolveCounters) snapshot() ResolveStats {
	return ResolveStats{
		Resolves:    c.resolves.Load(),
		ParentHits:  c.parentHits.Load(),
		ArenaHits:   c.arenaHits.Load(),
		ArenaMisses: c.arenaMisses.Load(),
		Fallbacks:   c.fallbacks.Load(),
		CompsReused: c.compsReused.Load(),
		CompsSolved: c.compsSolved.Load(),
	}
}

// SolveSCGKeep solves p with the session state kept for later
// incremental re-solves.  The whole input is solved as one part,
// without first splitting it into its connected parts (replay works on
// whole-problem row maps): on a connected p the result equals SolveSCG
// bit for bit, while on a p with several parts the restart streams and
// so possibly the counters and the cover differ.  The state is also
// admitted to the Solver's ancestor arena, keyed by the problem's
// structural fingerprint.
func (s *Solver) SolveSCGKeep(p *Problem, opt SCGOptions) (*SCGResult, *Resolvable) {
	res, st := scg.SolveKeep(p, opt)
	keep := &Resolvable{state: st}
	s.admit(p, keep)
	return res, keep
}

// Resolve solves the delta's child problem incrementally.  parent may
// be nil: the Solver then looks for the delta's parent problem in its
// ancestor arena (structural fingerprint, validated by full equality).
// With no usable parent state the child is solved from scratch — the
// result is correct in every case, only the speed differs.  The
// returned Resolvable makes resolves chainable and is admitted to the
// arena like a kept solve.
func (s *Solver) Resolve(d *Delta, parent *Resolvable, opt SCGOptions, ro ResolveOptions) (*SCGResult, *Resolvable) {
	s.resolveCtr.resolves.Add(1)
	var st *scg.SolveState
	switch {
	case parent != nil:
		st = parent.state
		s.resolveCtr.parentHits.Add(1)
	case s.arena != nil:
		if v, ok := s.arena.Get(arenaKey(d.Parent)); ok {
			if r, good := v.(*Resolvable); good && matrix.Equal(r.state.Problem(), d.Parent) {
				st = r.state
				s.resolveCtr.arenaHits.Add(1)
			}
		}
		if st == nil {
			s.resolveCtr.arenaMisses.Add(1)
		}
	default:
		s.resolveCtr.arenaMisses.Add(1)
	}
	res, next, info := scg.ResolveState(d, st, opt, scg.ResolveOptions{WarmStart: ro.WarmStart})
	if info.Fallback && st != nil {
		s.resolveCtr.fallbacks.Add(1)
	}
	s.resolveCtr.compsReused.Add(int64(info.CompsReused))
	s.resolveCtr.compsSolved.Add(int64(info.CompsSolved))
	keep := &Resolvable{state: next}
	s.admit(d.Child, keep)
	return res, keep
}

// ResolveStats snapshots the session's incremental-resolve counters.
func (s *Solver) ResolveStats() ResolveStats { return s.resolveCtr.snapshot() }

// ArenaStats snapshots the ancestor arena's counters (zero without an
// arena).
func (s *Solver) ArenaStats() ArenaStats { return s.arena.Stats() }

// ArenaStats is the ancestor arena's counter snapshot.
type ArenaStats = solvecache.ArenaStats

// admit stores a kept state in the ancestor arena.
func (s *Solver) admit(p *Problem, r *Resolvable) {
	if s.arena != nil {
		s.arena.Put(arenaKey(p), r)
	}
}

// arenaKey is the arena's lookup key: the problem's own-label
// structural fingerprint (canon.ProblemKey), cheap enough to compute
// per call and validated by full equality on every hit.
func arenaKey(p *Problem) solvecache.Key {
	fp := canon.ProblemKey(p)
	return solvecache.Key{Hi: fp.Hi, Lo: fp.Lo}
}
