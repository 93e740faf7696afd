// Package primes generates the prime implicants of a (multiple-output,
// incompletely specified) boolean function and reformulates two-level
// minimisation as a unate covering problem, Quine–McCluskey style:
// the rows are the ON-set minterms, the columns the primes, and a
// column covers a row when the prime contains the minterm.
package primes

import (
	"errors"

	"ucp/internal/budget"
	"ucp/internal/cube"
)

// sigOf folds a cube's words into a 64-bit occupancy signature.  For
// cubes a, b: a ⊆ b (word-wise a&^b == 0) implies sig(a)&^sig(b) == 0,
// so a nonzero sig(a)&^sig(b) refutes containment in one word op —
// the same short-circuit internal/matrix uses for its row/column
// dominance scans.  (For single-word cubes the test is exact.)
func sigOf(c cube.Cube) uint64 {
	var sig uint64
	for _, w := range c {
		sig |= w
	}
	return sig
}

// dedupSig is Cover.Dedup (drop every cube another cube contains; of
// equal cubes keep the first) for a cover whose first old cubes are
// the closure's previous work set and whose later cubes are new.  It
// relies on the closure's invariant: the old cubes are mutually
// irredundant, and no new cube lies inside an old one (each passed
// containedIn against all of them).  So only two kinds of pair can
// drop a cube — an old cube inside a new one, and a new cube inside
// another new one — and every cube is checked against the new cubes
// alone; old = 0 makes it a full Dedup.  A signature short-circuit
// skips pairs whose containment test must fail.  It returns the kept
// cubes in their original order, their signatures (sigs, when non-nil,
// are f's and are reused) and how many old cubes survived: the kept
// old cubes come first.  A non-nil meter is charged one unit per pair
// a cube's scan may probe; when it stops the pass, the cubes not yet
// examined are all kept, so the result is still a superset of the
// deduplicated cover.
func dedupSig(s *cube.Space, f *cube.Cover, sigs []uint64, old int, w *workMeter) (*cube.Cover, []uint64, int) {
	if sigs == nil {
		sigs = make([]uint64, len(f.Cubes))
		for i, c := range f.Cubes {
			sigs[i] = sigOf(c)
		}
	}
	kept := make([]bool, len(f.Cubes))
	for i := range f.Cubes {
		kept[i] = true
	}
	newSigs := sigs[old:]
	for i, a := range f.Cubes {
		if w.charge(uint64(len(newSigs))) {
			break
		}
		sa := sigs[i]
		for k, sb := range newSigs {
			j := old + k
			if sa&^sb != 0 || i == j || !kept[j] {
				continue
			}
			if b := f.Cubes[j]; s.Contains(b, a) && (!s.Equal(a, b) || j < i) {
				kept[i] = false
				break
			}
		}
	}
	g := cube.NewCover(s)
	outSigs := sigs[:0]
	survivors := 0
	for i, a := range f.Cubes {
		if kept[i] {
			g.Add(a)
			outSigs = append(outSigs, sigs[i])
			if i < old {
				survivors++
			}
		}
	}
	return g, outSigs, survivors
}

// workPollEvery is how many work units pass between two tracker polls
// in the consensus closure (a few microseconds of probing).
const workPollEvery = 4096

// workMeter counts the consensus closure's work — one unit per pair
// tried, one per containment probe, one per cube pair the dedup may
// probe — against an optional cap, and polls the caller's tracker on
// the first charge after every workPollEvery units.  closeCubes
// charges per pair and closeOneWord per outer cube's row of pairs, so
// the one-word closure polls at row boundaries.  The count is
// deterministic; only the poll looks at the clock.  A nil meter never
// stops.
type workMeter struct {
	tr        *budget.Tracker
	cap       uint64 // 0: uncapped
	used      uint64
	nextPoll  uint64
	capped    bool // the cap tripped
	interrupt bool // the tracker fired
}

// charge adds n units and reports whether the closure must stop: the
// cap tripped or the tracker fired (now or on an earlier charge).
func (w *workMeter) charge(n uint64) bool {
	if w == nil {
		return false
	}
	if w.capped || w.interrupt {
		return true
	}
	w.used += n
	if w.cap > 0 && w.used > w.cap {
		w.capped = true
		return true
	}
	if w.used >= w.nextPoll {
		w.nextPoll = w.used + workPollEvery
		w.interrupt = w.tr.Interrupted()
	}
	return w.interrupt
}

// containedIn reports whether some cube of cs (with signatures sigs)
// contains c (signature csig), and how many cubes the scan probed.
func containedIn(s *cube.Space, c cube.Cube, csig uint64, cs []cube.Cube, sigs []uint64) (bool, uint64) {
	probe := func(from, to int) int {
		for k := from; k < to; k++ {
			if csig&^sigs[k] == 0 && s.Contains(cs[k], c) {
				return k
			}
		}
		return -1
	}
	// Four signatures per step, branch-free: the top bit of (x-1)&^x is
	// set exactly when x == 0, i.e. when the signature admits c.
	blocks := len(sigs) &^ 3
	for k := 0; k < blocks; k += 4 {
		x0, x1, x2, x3 := csig&^sigs[k], csig&^sigs[k+1], csig&^sigs[k+2], csig&^sigs[k+3]
		if ((x0-1)&^x0|(x1-1)&^x1|(x2-1)&^x2|(x3-1)&^x3)>>63 == 0 {
			continue
		}
		if hit := probe(k, k+4); hit >= 0 {
			return true, uint64(hit + 1)
		}
	}
	if hit := probe(blocks, len(sigs)); hit >= 0 {
		return true, uint64(hit + 1)
	}
	return false, uint64(len(sigs))
}

// Generate returns every prime implicant of the function whose care
// ON-set is f and whose don't-care set is d, using iterated consensus:
// starting from F ∪ D, consensus cubes are added and single-cube
// contained cubes removed until closure; the surviving cubes are
// exactly the primes (Quine's theorem, extended to multiple outputs by
// treating the output part as one multi-valued variable, for which the
// consensus is taken even at distance zero — see cube.ConsensusInto).
func Generate(f, d *cube.Cover) *cube.Cover {
	out, _ := GenerateBudget(f, d, nil)
	return out
}

// GenerateBudget is Generate under a budget: the closure polls the
// tracker after every few thousand units of work (pairs tried plus
// containment probes, see workMeter) and stops early when the budget
// runs out.  The returned cover is then still a valid implicant set
// containing F ∪ D — every ON-minterm remains coverable, so a covering
// problem built over it stays feasible — but some cubes may not yet be
// prime.  complete reports whether the closure finished (true ⇒ the
// cover is exactly the prime set).
func GenerateBudget(f, d *cube.Cover, tr *budget.Tracker) (out *cube.Cover, complete bool) {
	out, complete, _ = generateConsensus(f, d, tr, 0)
	return out, complete
}

// generateConsensus is GenerateBudget with a work cap (0: none).  When
// the cap trips it throws the partial work set away and returns
// capped=true with a nil cover; the cap is counted, never timed, so
// whether it trips is a deterministic function of the input.  A
// tracker interruption returns the partial cover as GenerateBudget
// does.
func generateConsensus(f, d *cube.Cover, tr *budget.Tracker, cap uint64) (out *cube.Cover, complete, capped bool) {
	w := &workMeter{tr: tr, cap: cap}
	out, complete = consensus(f, d, w)
	if w.capped {
		return nil, false, true
	}
	return out, complete, false
}

// consensus runs the closure under w: on one word per cube when the
// space's cubes fit one (closeOneWord), on the cube slice otherwise
// (closeCubes).  Both try the same pairs in the same order, admit the
// same cubes and charge the same units; only when w stops them may
// they stop at different points.  A tripped cap returns nil.
func consensus(f, d *cube.Cover, w *workMeter) (*cube.Cover, bool) {
	if s := f.S; 2*s.Inputs()+s.Outputs() <= 64 {
		return closeOneWord(f, d, w)
	}
	return closeCubes(f, d, w)
}

// closeCubes is the consensus closure on the cube slice, for spaces
// wider than one word.
//
// The closure is semi-naive: a sweep tries only the pairs i < j with
// j ≥ fresh, the index of the first cube the previous sweep admitted
// (0 on the first sweep).  A pair of two older cubes was tried in an
// earlier sweep, and its candidate was admitted or found inside a work
// cube; dedupSig drops a cube only when a surviving cube contains it,
// so that candidate is still covered.  Each pair yields at most one
// candidate, written into one reused buffer and copied only when
// admitted.  A candidate that lies inside a member of its pair (a
// distance-0 pair whose output parts are nested) is rejected without a
// containment scan, which would find that member or an earlier cube.
// Admitted cubes are appended to the work set, after the sweep's n old
// cubes, so one containment scan covers both; the work set after each
// sweep is the one the all-pairs closure builds.
func closeCubes(f, d *cube.Cover, w *workMeter) (*cube.Cover, bool) {
	s := f.S
	work := cube.NewCover(s)
	for _, c := range f.Cubes {
		work.Add(s.Copy(c))
	}
	if d != nil {
		for _, c := range d.Cubes {
			work.Add(s.Copy(c))
		}
	}
	work, sigs, fresh := dedupSig(s, work, nil, 0, w)
	cand := s.NewCube()
	for {
		if w.capped {
			return nil, false
		}
		if w.interrupt || w.tr.Interrupted() {
			break
		}
		n := len(work.Cubes)
	sweep:
		for i := 0; i < n; i++ {
			a := work.Cubes[i]
			for j := max(i+1, fresh); j < n; j++ {
				units := uint64(1)
				b := work.Cubes[j]
				if s.ConsensusInto(cand, a, b) && !s.IsEmpty(cand) && !s.Contains(a, cand) && !s.Contains(b, cand) {
					csig := sigOf(cand)
					contained, probes := containedIn(s, cand, csig, work.Cubes, sigs)
					units += probes
					if !contained {
						work.Cubes = append(work.Cubes, s.Copy(cand))
						sigs = append(sigs, csig)
					}
				}
				if w.charge(units) {
					break sweep // an interrupted sweep still merges its admitted cubes
				}
			}
		}
		if w.capped {
			return nil, false
		}
		if len(work.Cubes) == n {
			if w.interrupt {
				break // the sweep was cut short: closure not proven
			}
			work.Sort()
			return work, true
		}
		// Drop cubes swallowed by the new ones.
		work, sigs, fresh = dedupSig(s, work, sigs, n, w)
	}
	work.Sort()
	return work, false
}

// RowID identifies one covering row: input minterm m of output o.
type RowID struct {
	Minterm uint64
	Output  int
}

// MaxCoveringInputs bounds the explicit minterm enumeration; beyond
// this the covering matrix would not fit in memory anyway.
const MaxCoveringInputs = 24

// ErrCoveringLimit reports a function whose input count exceeds
// MaxCoveringInputs, so the explicit covering matrix cannot be built.
// It is a property of the instance size, not a malformed input: front
// ends should map it to a client error distinct from a parse failure.
var ErrCoveringLimit = errors.New("primes: inputs exceed the explicit covering limit")

// CostModel selects the column costs of the covering problem.
type CostModel int

// Cost models for the covering formulation.
const (
	// UnitCost charges one per product term: the paper's primary
	// objective (cover cardinality).
	UnitCost CostModel = iota
	// LiteralCost charges one plus the number of input literals, so
	// minimisation also prefers larger cubes (the paper's "secondary
	// concern given to the number of literals").
	LiteralCost
)

// CoverFromColumns converts a covering solution (prime indices) back
// into a two-level cover.
func CoverFromColumns(prs *cube.Cover, cols []int) *cube.Cover {
	out := cube.NewCover(prs.S)
	for _, j := range cols {
		out.Add(prs.S.Copy(prs.Cubes[j]))
	}
	return out
}
