// Package ucp is a Go reproduction of "An Efficient Heuristic
// Approach to Solve the Unate Covering Problem" (Cordone, Ferrandi,
// Sciuto, Wolfler Calvo — DATE 2000).
//
// It provides, as a library:
//
//   - the unate covering problem (UCP) with the classical reductions
//     (essentials, row/column dominance, partitioning) on an explicit
//     sparse or dense bit matrix;
//   - ZDD_SCG, the paper's lagrangian-guided constructive heuristic
//     (SolveSCG), with its subgradient ascent, dual ascent, penalty
//     tests and stochastic multi-run fixing;
//   - an exact branch-and-bound solver (SolveExact), the Chvátal
//     greedy baseline (SolveGreedy), and the four lower bounds of
//     Proposition 1 (LowerBounds);
//   - a complete two-level logic minimisation front end: Berkeley PLA
//     parsing, prime-implicant generation, the Quine–McCluskey
//     covering formulation, and an Espresso-style heuristic minimiser
//     as comparison baseline (MinimizeSCG / MinimizeExact /
//     MinimizeEspresso);
//   - an exact solver for the more general binate covering problem
//     (SolveBinate), and Beasley OR-Library I/O for pure set-covering
//     instances.
//
// Everything is pure Go with no dependencies outside the standard
// library.
package ucp

import (
	"errors"
	"fmt"
	"io"
	"math"

	"ucp/internal/bnb"
	"ucp/internal/budget"
	"ucp/internal/greedy"
	"ucp/internal/lagrangian"
	"ucp/internal/matrix"
	"ucp/internal/scg"
	"ucp/internal/shard"
	"ucp/internal/simplex"
)

// Budget bounds the work a solve may do: a wall-clock deadline or
// cancellation via Context, a branch-and-bound node cap and a
// subgradient iteration cap.  The zero value is unlimited.  Every solver accepts one through its options
// struct and, when the budget runs out, stops gracefully with the best
// feasible solution and the tightest valid lower bound found so far,
// reporting Interrupted and a StopReason on its result.
type Budget = budget.Budget

// StopReason classifies why an interrupted solve stopped early.
type StopReason = budget.Reason

// Stop reasons reported by interrupted solves.
const (
	// StopNone: the solve ran to completion.
	StopNone = budget.None
	// StopDeadline: the budget context's deadline expired.
	StopDeadline = budget.Deadline
	// StopCancelled: the budget context was cancelled (e.g. SIGINT).
	StopCancelled = budget.Cancelled
	// StopSearchCap: the branch-and-bound node cap was exhausted.
	StopSearchCap = budget.SearchCap
	// StopIterCap: the subgradient iteration cap was exhausted.
	StopIterCap = budget.IterCap
)

// guard converts a panic escaping the internal layers into a returned
// error, so no malformed input can crash a caller of the public API.
func guard(errp *error) {
	if r := recover(); r != nil {
		if e, ok := r.(error); ok {
			*errp = fmt.Errorf("ucp: internal error: %w", e)
		} else {
			*errp = fmt.Errorf("ucp: internal error: %v", r)
		}
	}
}

// Problem is a unate covering instance: for each row, the sorted ids
// of the columns covering it, plus a per-column cost vector.
type Problem = matrix.Problem

// NewProblem builds and validates a covering problem.  Rows are
// sorted and deduplicated; a nil cost vector means unit costs.
func NewProblem(rows [][]int, ncols int, costs []int) (p *Problem, err error) {
	defer malformed(&err)
	defer guard(&err)
	return matrix.New(rows, ncols, costs)
}

// Reduction is the outcome of reducing a problem to its cyclic core,
// with the input row each core row descends from (RowOrigin).
type Reduction = matrix.Reduction

// ReduceProblem applies essential-column extraction and row/column
// dominance until fixpoint, returning the cyclic core.
func ReduceProblem(p *Problem) *Reduction { return matrix.ReduceBudgetWorkers(p, nil, 1) }

// SCGOptions configures the ZDD_SCG solver; the zero value uses the
// paper's parameters (α = 2, ĉ = 0.001, μ̂ = 0.999, DualPen = 100,
// NumIter = 1).  The solve reduces each part with the explicit
// reductions only: the paper's implicit ZDD phase, with its row and
// column thresholds, is not on the solve path (see DESIGN.md §6).
type SCGOptions = scg.Options

// SCGResult is a ZDD_SCG outcome: solution, cost, certified lower
// bound and run statistics.
type SCGResult = scg.Result

// SolveSCG runs the paper's heuristic on a covering problem.  With
// Options.MemBudget set, the solve routes through the out-of-core
// component-sharded driver (internal/shard): connected components are
// scheduled largest-first under the byte budget with
// not-yet-scheduled components spilled to disk, and the result is
// bit-identical to the direct solve (Stats.Shard* report how the
// scheduling went).  Sharded solves bypass Options.Cache; should the
// spill file fail (an environmental IO error), the solve transparently
// falls back to the direct in-memory path.
func SolveSCG(p *Problem, opt SCGOptions) *SCGResult {
	if opt.MemBudget > 0 {
		if res, err := shard.SolveProblem(p, opt); err == nil {
			return res
		}
		// Spill IO failed: the instance is already in memory, so the
		// direct solve still answers (without the budget's protection).
	}
	return scg.Solve(p, opt)
}

// SolveSCGORLib streams a Beasley OR-Library instance from r through
// the sharded driver without materialising it, honouring
// Options.MemBudget (0 keeps everything resident).  Parse failures
// wrap ErrMalformedInput with the offending line number; spill-file IO
// failures pass through unwrapped.
func SolveSCGORLib(r io.Reader, opt SCGOptions) (res *SCGResult, err error) {
	defer guard(&err)
	return tagShardInput(shard.Solve(shard.ORLib(r), opt))
}

// SolveSCGMatrix is SolveSCGORLib for the covering-matrix text format.
func SolveSCGMatrix(r io.Reader, opt SCGOptions) (res *SCGResult, err error) {
	defer guard(&err)
	return tagShardInput(shard.Solve(shard.MatrixText(r), opt))
}

// tagShardInput maps the sharded driver's input-error sentinel onto
// the public taxonomy.
func tagShardInput(res *SCGResult, err error) (*SCGResult, error) {
	if err != nil && errors.Is(err, shard.ErrInput) {
		err = fmt.Errorf("%w: %w", ErrMalformedInput, err)
	}
	return res, err
}

// ExactOptions configures the exact branch-and-bound solver.
type ExactOptions = bnb.Options

// ExactResult is an exact-solver outcome.
type ExactResult = bnb.Result

// SolveExact finds a minimum cover by branch and bound (the Scherzo /
// mincov role of the paper's Tables 3 and 4).
func SolveExact(p *Problem, opt ExactOptions) *ExactResult { return bnb.Solve(p, opt) }

// SolveGreedy runs the classical Chvátal greedy heuristic under b and
// returns an irredundant cover.  Greedy is the bottom rung of the
// degradation ladder: when the budget runs out mid-construction it
// completes the cover with the cheapest column per remaining uncovered
// row, so the returned cover is feasible in every case (interrupted
// reports whether that happened).  A zero Budget is unlimited.  The
// error is ErrInfeasible when some row of p cannot be covered.
func SolveGreedy(p *Problem, b Budget) (sol []int, interrupted bool, err error) {
	defer guard(&err)
	return greedy.Solve(p, b.Tracker())
}

// Bounds carries the four lower bounds compared in the paper's
// Proposition 1, in increasing order of strength (and cost):
// independent set ≤ dual ascent ≤ lagrangian ≤ linear relaxation.
type Bounds struct {
	MIS              int     // maximal-independent-set bound
	DualAscent       float64 // two-phase dual ascent
	Lagrangian       float64 // subgradient-optimised lagrangian bound
	LinearRelaxation float64 // exact LP bound (NaN when skipped)
	// LPExact reports whether LinearRelaxation was computed; the dense
	// simplex is only run when rows+columns ≤ LPLimit.
	LPExact bool
}

// LPLimit bounds the size (rows + active columns) up to which
// LowerBounds solves the linear relaxation exactly with the dense
// simplex.
const LPLimit = 260

// LowerBounds computes the four bounds of Proposition 1 on p.
func LowerBounds(p *Problem) Bounds {
	q, _ := p.Compact()
	var b Bounds
	b.MIS, _ = matrix.MISBound(q)
	_, b.DualAscent = lagrangian.DualAscent(q, nil, nil)
	sg := lagrangian.Subgradient(q, lagrangian.Params{}, nil, 0, nil, nil)
	b.Lagrangian = sg.LB
	if len(q.Rows) == 0 {
		b.Lagrangian = 0
		b.LinearRelaxation = 0
		b.LPExact = true
		return b
	}
	if len(q.Rows)+q.NCol <= LPLimit {
		b.LinearRelaxation = lpBound(q)
		b.LPExact = true
	} else {
		b.LinearRelaxation = math.NaN()
	}
	return b
}

// lpBound solves min c'x, Ax ≥ 1, 0 ≤ x ≤ 1 exactly.
func lpBound(p *Problem) float64 {
	n := p.NCol
	a := make([][]float64, 0, len(p.Rows)+n)
	b := make([]float64, 0, len(p.Rows)+n)
	for _, r := range p.Rows {
		row := make([]float64, n)
		for _, j := range r {
			row[j] = 1
		}
		a = append(a, row)
		b = append(b, 1)
	}
	for j := 0; j < n; j++ {
		box := make([]float64, n)
		box[j] = -1
		a = append(a, box)
		b = append(b, -1)
	}
	c := make([]float64, n)
	for j := range c {
		c[j] = float64(p.Cost[j])
	}
	_, z, err := simplex.Solve(c, a, b)
	if err != nil {
		return math.NaN()
	}
	return z
}
