package lagrangian

import (
	"math"
	"sync/atomic"

	"ucp/internal/matrix"
)

// GammaVariant selects one of the paper's four rating functions used
// by the auxiliary greedy primal heuristic (§3.5).
type GammaVariant int

// The four rating functions γ_j of §3.5.
const (
	GammaPerRow        GammaVariant = iota // c̃_j / n_j
	GammaLog                               // c̃_j / lg₂(n_j + 1)
	GammaRowLog                            // c̃_j / (n_j · lg₂(n_j + 1))
	GammaRowImportance                     // c̃_j weighted by row scarcity
)

// log2Cache holds the shared table with t[n] = lg₂(n+1): the greedy
// rating loops evaluate lg₂ once per candidate per pick, and a table
// of the exact same math.Log2 values (so bit-identical ratings) turns
// that hot transcendental into a load.  The table is grown
// copy-on-write behind an atomic pointer — entries depend only on
// their index, so concurrent growers in the restart portfolio all
// produce prefixes of the same table and any published version is
// valid.
var log2Cache atomic.Pointer[[]float64]

func log2Table(max int) []float64 {
	if t := log2Cache.Load(); t != nil && len(*t) > max {
		return *t
	}
	n := 2 * (max + 1)
	if t := log2Cache.Load(); t != nil && 2*len(*t) > n {
		n = 2 * len(*t)
	}
	nt := make([]float64, n)
	for i := 1; i < n; i++ {
		nt[i] = math.Log2(float64(i) + 1)
	}
	log2Cache.Store(&nt)
	return nt
}

// nlog2Cache memoises i·log₂(i+1), the GammaRowLog denominator, so
// that variant's argmin scan is one table load instead of a convert
// and a multiply per candidate.  Entry i is the exact IEEE product of
// float64(i) and the log2Table entry, so the substitution changes no
// bits.  Same racy-but-idempotent publication as log2Cache.
var nlog2Cache atomic.Pointer[[]float64]

func nlog2Table(max int) []float64 {
	if t := nlog2Cache.Load(); t != nil && len(*t) > max {
		return *t
	}
	lg := log2Table(max)
	nt := make([]float64, len(lg))
	for i := range nt {
		nt[i] = float64(i) * lg[i]
	}
	nlog2Cache.Store(&nt)
	return nt
}

// GreedyLagrangian builds a feasible solution of p.  It starts from
// the lagrangian relaxation's solution (every column with c̃_j ≤ 0),
// then repeatedly adds the column minimising γ_j over the still
// uncovered rows, and finally drops redundant columns (highest true
// cost first).  ctilde may be the true costs (as floats) to obtain the
// classical Chvátal-style greedy start.  The returned slice is
// caller-owned; the subgradient engine runs the same kernel against
// its Scratch so the hot path allocates nothing.
func GreedyLagrangian(p *matrix.Problem, ctilde []float64, v GammaVariant) []int {
	var sc Scratch
	if v == GammaRowImportance {
		sc.prepGreedyWeights(p)
	}
	sol := sc.greedySparse(p, ctilde, v, nil)
	if sol == nil {
		return nil
	}
	return append(make([]int, 0, len(sol)), sol...)
}

// greedySparse is the greedy kernel against sc's buffers.  The
// per-column "uncovered rows" counts (and, for the fourth variant,
// scarcity weights) are maintained incrementally, so one full build
// costs O(nnz + Σ picks·live) rather than O(picks·nnz); column row
// lists come from the problem's CSC mirror.  The returned slice is
// backed by sc, valid until its next use.
//
// A column is a pick candidate exactly while n_j > 0 — adding column j
// covers all its rows, so n_j drops to zero and it can never recur —
// and n only decreases within a build, so the live candidates form a
// shrinking set kept as a swap-remove list.  The argmin visits that
// list in arbitrary order, which is harmless: it ranks candidates by
// the total order (γ, true cost, column id), so exactly one column is
// the minimum whatever the visit order.
//
// rowCnt, when non-nil, must hold |{j ∈ row i : c̃_j ≤ 0}| for the
// given ctilde (the subgradient engine maintains exactly this).  The
// start state is then reconstructed directly — covered_i ⇔ rowCnt_i >
// 0, n from one pass over the uncovered rows — instead of replaying
// every start column's add.  The reconstruction is exact: the integer
// state is order-independent, and the scarcity variant's float w
// decrements for the start batch are applied in ascending row order by
// both paths (the canonical order — see the classic branch), so the
// two starts agree bit for bit.
func (sc *Scratch) greedySparse(p *matrix.Problem, ctilde []float64, v GammaVariant, rowCnt []int32) []int {
	nr, nc := len(p.Rows), p.NCol
	start, idx := p.CSC()
	gr := &sc.gr
	covered := growBool(gr.covered, nr)
	gr.covered = covered
	gr.sol = gr.sol[:0]

	// Scarcity weights for the fourth variant are phase-wide (see
	// prepGreedyWeights): each build starts from the all-uncovered
	// column sums w0 instead of regathering them.
	w, rowWeight := gr.w, gr.rowWeight
	if v == GammaRowImportance {
		w = growF64(gr.w, nc)
		gr.w = w
		copy(w, gr.w0)
	}

	// n[j]: uncovered rows of column j, with the n > 0 columns listed
	// in act (pos[j] is j's slot there, -1 once retired).
	n := growI32(gr.n, nc)
	gr.n = n
	act := growI32(gr.cand, nc)
	gr.cand = act
	pos := growI32(gr.pos, nc)
	gr.pos = pos
	na := 0

	retire := func(k int) {
		pk := pos[k]
		na--
		last := act[na]
		act[pk] = last
		pos[last] = pk
		pos[k] = -1
	}
	add := func(j int) {
		gr.sol = append(gr.sol, j)
		for _, ii := range idx[start[j]:start[j+1]] {
			i := int(ii)
			if covered[i] {
				continue
			}
			covered[i] = true
			gr.nCovered++
			if v == GammaRowImportance {
				for _, k := range p.Rows[i] {
					w[k] -= rowWeight[i]
					if n[k]--; n[k] == 0 {
						retire(k)
					}
				}
			} else {
				for _, k := range p.Rows[i] {
					if n[k]--; n[k] == 0 {
						retire(k)
					}
				}
			}
		}
	}

	if rowCnt != nil {
		// Start state straight from the engine's counts.  Only columns
		// touching an uncovered row enter the candidate machinery; the
		// epoch stamp tells a first touch from an increment, so nothing
		// needs a full clear.  The resulting covered/n/act state is
		// exactly what replaying the start adds produces — same covered
		// set, same integer counts, same candidate set — only the act
		// order differs, which the argmin's total order absorbs.  The
		// scarcity weights are decremented in ascending row order over
		// the covered rows, matching the classic branch exactly.
		gr.stampEpoch++
		if gr.stampEpoch == 0 { // wrapped: stale stamps could collide
			for k := range gr.stamp {
				gr.stamp[k] = 0
			}
			gr.stampEpoch = 1
		}
		stamp := growU32(gr.stamp, nc)
		gr.stamp = stamp
		epoch := gr.stampEpoch
		nCov := 0
		for i := 0; i < nr; i++ {
			if rowCnt[i] != 0 {
				covered[i] = true
				nCov++
				if v == GammaRowImportance {
					for _, k := range p.Rows[i] {
						w[k] -= rowWeight[i]
					}
				}
				continue
			}
			covered[i] = false
			for _, k := range p.Rows[i] {
				if stamp[k] != epoch {
					stamp[k] = epoch
					n[k] = 1
					pos[k] = int32(na)
					act[na] = int32(k)
					na++
				} else {
					n[k]++
				}
			}
		}
		gr.nCovered = nCov
		for j := 0; j < nc; j++ {
			if ctilde[j] <= 0 && start[j+1] > start[j] {
				gr.sol = append(gr.sol, j)
			}
		}
	} else {
		for i := range covered {
			covered[i] = false
		}
		gr.nCovered = 0
		for j := 0; j < nc; j++ {
			n[j] = start[j+1] - start[j]
			if n[j] > 0 {
				pos[j] = int32(na)
				act[na] = int32(j)
				na++
			} else {
				pos[j] = -1
			}
		}
		// Start from the relaxed solution.  The scarcity weights are
		// deliberately NOT updated inside these adds: the start batch is
		// one atomic event — w_j depends on the set of rows it leaves
		// uncovered, not on the order they were covered in — so the
		// decrements are applied afterwards in ascending row order, the
		// canonical order the count-derived start replays bit for bit.
		// (Picks after the start update w inside add as usual: each pick
		// is its own event, and within one add the newly covered rows
		// are visited in ascending order too.)
		startAdds := v == GammaRowImportance
		for j := 0; j < nc; j++ {
			if ctilde[j] <= 0 && start[j+1] > start[j] {
				if startAdds {
					gr.sol = append(gr.sol, j)
					for _, ii := range idx[start[j]:start[j+1]] {
						i := int(ii)
						if covered[i] {
							continue
						}
						covered[i] = true
						gr.nCovered++
						for _, k := range p.Rows[i] {
							if n[k]--; n[k] == 0 {
								retire(k)
							}
						}
					}
				} else {
					add(j)
				}
			}
		}
		if startAdds {
			for i := 0; i < nr; i++ {
				if covered[i] {
					for _, k := range p.Rows[i] {
						w[k] -= rowWeight[i]
					}
				}
			}
		}
	}

	var lg, nlg []float64
	switch v {
	case GammaLog:
		lg = log2Table(nr)
	case GammaRowLog:
		nlg = nlog2Table(nr)
	}
	// Candidates all have c̃_j > 0 (non-positive ones were taken in the
	// start solution), so smaller γ is better; ties go to the smaller
	// true cost, then the smaller column id.  Each variant gets its own
	// specialised scan, with no per-candidate dispatch.
	cost := p.Cost
	for gr.nCovered < nr {
		best, bestGamma := -1, math.Inf(1)
		switch v {
		case GammaPerRow:
			for _, jj := range act[:na] {
				j := int(jj)
				gamma := ctilde[j] / float64(n[j])
				if best < 0 || gamma < bestGamma {
					best, bestGamma = j, gamma
				} else if gamma == bestGamma {
					if cj, cb := cost[j], cost[best]; cj < cb || (cj == cb && j < best) {
						best = j
					}
				}
			}
		case GammaLog:
			for _, jj := range act[:na] {
				j := int(jj)
				gamma := ctilde[j] / lg[n[j]]
				if best < 0 || gamma < bestGamma {
					best, bestGamma = j, gamma
				} else if gamma == bestGamma {
					if cj, cb := cost[j], cost[best]; cj < cb || (cj == cb && j < best) {
						best = j
					}
				}
			}
		case GammaRowLog:
			for _, jj := range act[:na] {
				j := int(jj)
				gamma := ctilde[j] / nlg[n[j]]
				if best < 0 || gamma < bestGamma {
					best, bestGamma = j, gamma
				} else if gamma == bestGamma {
					if cj, cb := cost[j], cost[best]; cj < cb || (cj == cb && j < best) {
						best = j
					}
				}
			}
		case GammaRowImportance:
			for _, jj := range act[:na] {
				j := int(jj)
				gamma := ctilde[j] / w[j]
				if best < 0 || gamma < bestGamma {
					best, bestGamma = j, gamma
				} else if gamma == bestGamma {
					if cj, cb := cost[j], cost[best]; cj < cb || (cj == cb && j < best) {
						best = j
					}
				}
			}
		}
		if best < 0 {
			return nil // uncoverable row
		}
		add(best)
	}
	return p.IrredundantUniqueWs(&gr.ws, gr.sol)
}

// prepGreedyWeights fills the phase-wide scarcity weights of the
// fourth rating variant: rowWeight[i] favours rows covered by few
// columns, and w0[j] is column j's total weight over its rows (the
// all-uncovered starting value of the incremental w).  Both depend
// only on the structure of p, so attach — and the public greedy
// wrappers, which run without attach — compute them once per phase
// instead of once per build.
func (sc *Scratch) prepGreedyWeights(p *matrix.Problem) {
	nr, nc := len(p.Rows), p.NCol
	start, idx := p.CSC()
	gr := &sc.gr
	gr.rowWeight = growF64(gr.rowWeight, nr)
	for i, r := range p.Rows {
		if len(r) <= 1 {
			gr.rowWeight[i] = 1e9 // essentially forced row
		} else {
			gr.rowWeight[i] = 1 / float64(len(r)-1)
		}
	}
	gr.w0 = growF64(gr.w0, nc)
	for j := 0; j < nc; j++ {
		w := 0.0
		for _, i := range idx[start[j]:start[j+1]] {
			w += gr.rowWeight[i]
		}
		gr.w0[j] = w
	}
}

// bestGreedy runs all four rating variants against sc (after attach)
// and returns the cheapest resulting cover by true cost, or nil if the
// problem is infeasible.  The winner is copied into sc.gr.bestBuf so
// later builds cannot clobber it.
func (sc *Scratch) bestGreedy(p *matrix.Problem, ctilde []float64) []int {
	if sc.gr.bestBuf == nil {
		sc.gr.bestBuf = make([]int, 0, p.NCol)
	}
	found := false
	bestCost := 0
	for v := GammaPerRow; v <= GammaRowImportance; v++ {
		sol := sc.greedySparse(p, ctilde, v, nil)
		if sol == nil {
			continue
		}
		if c := p.CostOf(sol); !found || c < bestCost {
			sc.gr.bestBuf = append(sc.gr.bestBuf[:0], sol...)
			bestCost = c
			found = true
		}
	}
	if !found {
		return nil
	}
	return sc.gr.bestBuf
}

// FloatCosts converts the integer cost vector of p to float64 for use
// as the trivial lagrangian costs (λ = 0).
func FloatCosts(p *matrix.Problem) []float64 {
	c := make([]float64, p.NCol)
	for j := range c {
		c[j] = float64(p.Cost[j])
	}
	return c
}
