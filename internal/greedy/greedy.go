// Package greedy implements the classical Chvátal greedy heuristic
// for set covering: repeatedly pick the column with the best
// cost-per-newly-covered-row ratio.  It is the baseline the paper's
// lagrangian-guided heuristic is designed to improve upon, and ships
// as an independent implementation so comparisons do not share code
// with the contribution.
package greedy

import (
	"ucp/internal/budget"
	"ucp/internal/matrix"
)

// Solve returns a cover of p built by Chvátal's rule, made
// irredundant, or matrix.ErrInfeasible when some row cannot be
// covered.  The H_n-factor approximation guarantee of Chvátal (1979)
// applies to the cost before the irredundant cleanup; the cleanup can
// only help.
//
// tr (nil: unlimited) bounds the construction.  Greedy is the bottom
// rung of the degradation ladder, so it never returns empty-handed:
// when the budget runs out mid-construction it stops ratio scanning
// and completes the cover with the cheapest column of each remaining
// uncovered row (one O(nnz) sweep), reporting interrupted = true.
// The returned cover is feasible in every case.
func Solve(p *matrix.Problem, tr *budget.Tracker) (sol []int, interrupted bool, err error) {
	nr := len(p.Rows)
	covered := make([]bool, nr)
	nCovered := 0
	colRows := p.ColumnRows()
	inSol := make([]bool, p.NCol)
	for nCovered < nr {
		if tr.Interrupted() {
			interrupted = true
			break
		}
		best := -1
		var bestNum, bestDen int // ratio cost/new as a fraction
		for j := 0; j < p.NCol; j++ {
			if inSol[j] {
				continue
			}
			n := 0
			for _, i := range colRows[j] {
				if !covered[i] {
					n++
				}
			}
			if n == 0 {
				continue
			}
			// Compare cost[j]/n < bestNum/bestDen without floats.
			if best < 0 || p.Cost[j]*bestDen < bestNum*n ||
				(p.Cost[j]*bestDen == bestNum*n && n > bestDen) {
				best, bestNum, bestDen = j, p.Cost[j], n
			}
		}
		if best < 0 {
			return nil, interrupted, matrix.ErrInfeasible
		}
		inSol[best] = true
		sol = append(sol, best)
		for _, i := range colRows[best] {
			if !covered[i] {
				covered[i] = true
				nCovered++
			}
		}
	}
	if nCovered < nr {
		// Budget ran out: finish with the cheapest column per uncovered
		// row, no ratio scan.
		for i, r := range p.Rows {
			if covered[i] {
				continue
			}
			best := -1
			for _, j := range r {
				if inSol[j] {
					best = j // already paid for: row is actually covered
					break
				}
				if best < 0 || p.Cost[j] < p.Cost[best] {
					best = j
				}
			}
			if best < 0 {
				return nil, interrupted, matrix.ErrInfeasible
			}
			if !inSol[best] {
				inSol[best] = true
				sol = append(sol, best)
			}
			for _, k := range colRows[best] {
				if !covered[k] {
					covered[k] = true
					nCovered++
				}
			}
		}
	}
	return p.Irredundant(sol), interrupted, nil
}
