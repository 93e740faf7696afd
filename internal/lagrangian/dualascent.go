// Package lagrangian implements the optimisation machinery of the
// paper's Section 3: the lagrangian relaxation of the unate covering
// problem, its dual, the subgradient ascent that tightens both, the
// dual-ascent and greedy primal heuristics, and the penalty tests that
// fix columns in or out of the solution.
//
// All functions operate on a compact matrix.Problem: column ids must
// be dense in [0, NCol) (see (*matrix.Problem).Compact).
package lagrangian

import (
	"math"
	"slices"

	"ucp/internal/budget"
	"ucp/internal/matrix"
)

// DualAscent builds a feasible solution m of the dual problem
//
//	max e'm   s.t.  A'm ≤ c,  0 ≤ m ≤ c̄,   c̄_i = min_{j∋i} c_j
//
// with the paper's two-phase scheme: starting from m0 (or from the
// upper bounds c̄ when m0 is nil), the first phase decreases the
// variables of the most covered rows first until every dual constraint
// holds; the second phase raises the variables of the least covered
// rows as far as the slacks allow.  It returns m and its value e'm,
// which is a lower bound on the optimum of p (LB_DA).
//
// The iterated feasibility-restoring passes poll tr (nil for no
// budget); when the budget runs out mid-restoration the multipliers
// collapse to the all-zero vector (trivially dual feasible, bound 0),
// so the returned value is always a valid lower bound.
func DualAscent(p *matrix.Problem, m0 []float64, tr *budget.Tracker) ([]float64, float64) {
	var da daScratch
	m, w := da.run(p, m0, tr)
	if m == nil {
		return nil, w
	}
	return append([]float64(nil), m...), w
}

// run is the dual ascent against da's buffers; the returned slice is
// backed by da, valid until its next use.
func (da *daScratch) run(p *matrix.Problem, m0 []float64, tr *budget.Tracker) ([]float64, float64) {
	nr := len(p.Rows)
	if nr == 0 {
		return nil, 0
	}
	da.cbar = growF64(da.cbar, nr)
	cbar := da.cbar
	for i, r := range p.Rows {
		cb := math.Inf(1)
		for _, j := range r {
			if float64(p.Cost[j]) < cb {
				cb = float64(p.Cost[j])
			}
		}
		cbar[i] = cb
	}
	da.m = growF64(da.m, nr)
	if m0 != nil {
		for i := range da.m {
			da.m[i] = math.Min(math.Max(m0[i], 0), cbar[i])
		}
		return da.ascend(p, cbar, da.m, tr)
	}
	// Cold start: try both the all-c̄ start (decrease into
	// feasibility) and the independent-set start (already feasible, so
	// only phase 2 applies).  The latter guarantees the Proposition 1
	// dominance LB_DA ≥ LB_MIS; the former often does better on dense
	// matrices.  Keep the stronger result.
	copy(da.m, cbar)
	mA, wA := da.ascend(p, cbar, da.m, tr)
	_, misRows := matrix.MISBound(p)
	da.seed = growF64(da.seed, nr)
	for i := range da.seed {
		da.seed[i] = 0
	}
	for _, i := range misRows {
		da.seed[i] = cbar[i]
	}
	mB, wB := da.ascend(p, cbar, da.seed, tr)
	if wB > wA {
		return mB, wB
	}
	return mA, wA
}

// ascend runs the two dual-ascent phases from the start vector m,
// which must already respect 0 ≤ m ≤ c̄.  m is modified in place.
func (da *daScratch) ascend(p *matrix.Problem, cbar, m []float64, tr *budget.Tracker) ([]float64, float64) {
	nr := len(p.Rows)

	// colSum[j] = Σ_{i covered by j} m_i; viol_j = colSum[j] - c_j.
	da.colSum = growF64(da.colSum, p.NCol)
	colSum := da.colSum
	for j := range colSum {
		colSum[j] = 0
	}
	for i, r := range p.Rows {
		for _, j := range r {
			colSum[j] += m[i]
		}
	}

	// Phase 1: decrease.  Rows covered by many columns first: lowering
	// them relaxes many constraints per unit of objective lost.  The
	// (length desc, index asc) comparator is total, so sorting packed
	// (maxPack − length, index) keys gives the identical order without
	// a comparator closure.
	da.order = growI32(da.order, nr)
	da.keys = growI64(da.keys, nr)
	const maxPack = 1<<31 - 1
	for i := 0; i < nr; i++ {
		da.keys[i] = int64(maxPack-len(p.Rows[i]))<<32 | int64(i)
	}
	slices.Sort(da.keys)
	order := da.order
	for k, key := range da.keys {
		order[k] = int32(key & 0xffffffff)
	}
	for _, oi := range order {
		i := int(oi)
		worst := 0.0
		for _, j := range p.Rows[i] {
			if v := colSum[j] - float64(p.Cost[j]); v > worst {
				worst = v
			}
		}
		if worst <= 0 {
			continue
		}
		dec := math.Min(worst, m[i])
		if dec <= 0 {
			continue
		}
		m[i] -= dec
		for _, j := range p.Rows[i] {
			colSum[j] -= dec
		}
	}
	// A single sweep may leave violations (each row only fixes its own
	// worst constraint); iterate until feasible.
	for pass := 0; pass < nr+1; pass++ {
		if tr.Interrupted() {
			// Mid-restoration the vector may be dual infeasible and its
			// value would not be a valid bound; fall back to m = 0,
			// which is feasible with value 0.
			for i := range m {
				m[i] = 0
			}
			return m, 0
		}
		fixed := true
		for _, oi := range order {
			i := int(oi)
			if m[i] == 0 {
				continue
			}
			worst := 0.0
			for _, j := range p.Rows[i] {
				if v := colSum[j] - float64(p.Cost[j]); v > worst {
					worst = v
				}
			}
			if worst > 1e-12 {
				dec := math.Min(worst, m[i])
				m[i] -= dec
				for _, j := range p.Rows[i] {
					colSum[j] -= dec
				}
				fixed = false
			}
		}
		if fixed {
			break
		}
	}

	// Phase 2: increase.  Rows covered by few columns first: raising
	// them consumes slack in few constraints — the phase-1 order walked
	// backwards.
	for k := len(order) - 1; k >= 0; k-- {
		i := int(order[k])
		slack := math.Inf(1)
		for _, j := range p.Rows[i] {
			if s := float64(p.Cost[j]) - colSum[j]; s < slack {
				slack = s
			}
		}
		if slack <= 0 {
			continue
		}
		inc := math.Min(slack, cbar[i]-m[i])
		if inc <= 0 {
			continue
		}
		m[i] += inc
		for _, j := range p.Rows[i] {
			colSum[j] += inc
		}
	}

	w := 0.0
	for i := range m {
		w += m[i]
	}

	return m, w
}

// DualFeasible reports whether m satisfies A'm ≤ c + tol and m ≥ -tol.
func DualFeasible(p *matrix.Problem, m []float64, tol float64) bool {
	colSum := make([]float64, p.NCol)
	for i, r := range p.Rows {
		if m[i] < -tol {
			return false
		}
		for _, j := range r {
			colSum[j] += m[i]
		}
	}
	for j, s := range colSum {
		if s > float64(p.Cost[j])+tol {
			return false
		}
	}
	return true
}
