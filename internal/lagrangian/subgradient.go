package lagrangian

import (
	"math"

	"ucp/internal/bitmat"
	"ucp/internal/budget"
	"ucp/internal/matrix"
)

// Params tunes the subgradient ascent.  Zero values select the
// defaults from the paper (DefaultParams).
type Params struct {
	Alpha       float64 // σ_j = c̃_j − α·μ_j rating weight (paper: 2)
	CHat        float64 // promising-column threshold on c̃ (paper: 0.001)
	MuHat       float64 // promising-column threshold on μ (paper: 0.999)
	Delta       float64 // stop when UB − z_λ < Delta
	T0          float64 // initial step coefficient t_0
	TMin        float64 // stop when t_k < TMin
	NT          int     // halve t_k after NT non-improving steps
	MaxIters    int     // hard iteration cap
	DualPen     int     // skip dual penalties above this column count (paper: 100)
	GreedyEvery int     // run the primal heuristic every this many iterations
}

// DefaultParams returns the parameter set used throughout the paper's
// experiments.
func DefaultParams() Params {
	return Params{
		Alpha:       2,
		CHat:        0.001,
		MuHat:       0.999,
		Delta:       1e-3,
		T0:          2,
		TMin:        0.005,
		NT:          15,
		MaxIters:    600,
		DualPen:     100,
		GreedyEvery: 3,
	}
}

func (p *Params) fill() {
	d := DefaultParams()
	if p.Alpha == 0 {
		p.Alpha = d.Alpha
	}
	if p.CHat == 0 {
		p.CHat = d.CHat
	}
	if p.MuHat == 0 {
		p.MuHat = d.MuHat
	}
	if p.Delta == 0 {
		p.Delta = d.Delta
	}
	if p.T0 == 0 {
		p.T0 = d.T0
	}
	if p.TMin == 0 {
		p.TMin = d.TMin
	}
	if p.NT == 0 {
		p.NT = d.NT
	}
	if p.MaxIters == 0 {
		p.MaxIters = d.MaxIters
	}
	if p.DualPen == 0 {
		p.DualPen = d.DualPen
	}
	if p.GreedyEvery == 0 {
		p.GreedyEvery = d.GreedyEvery
	}
}

// Multipliers carries the primal (λ, one per row) and dual-lagrangian
// (μ, one per column) multiplier vectors between subgradient phases,
// so a phase can warm-start from the previous fixing step's result.
type Multipliers struct {
	Lambda []float64
	Mu     []float64
}

// Result is the outcome of one subgradient ascent phase.  Every slice
// is freshly allocated — a Result never aliases the Scratch it was
// computed with.
type Result struct {
	Lambda        []float64 // multipliers achieving LB
	Mu            []float64 // dual-lagrangian multipliers achieving UBDual
	CTilde        []float64 // lagrangian costs c − A'λ at Lambda
	LB            float64   // best lagrangian lower bound z*_LP(λ)
	UBDual        float64   // best dual-lagrangian upper bound on z*_P
	Best          []int     // cheapest feasible solution found by the heuristic
	BestCost      int       // true cost of Best (always p.CostOf(Best))
	ProvedOptimal bool      // BestCost == ⌈LB⌉
	Iters         int
}

// debugIterCheck, when non-nil, is invoked at the end of every
// subgradient iteration with the engine's scratch so differential
// tests can hold the incremental caches (c̃, e, m, g, cnt) to
// bit-equality against from-scratch recomputation.
var debugIterCheck func(p *matrix.Problem, sc *Scratch)

// Subgradient runs the two-sided subgradient scheme of §3.2–3.3 on the
// compact problem p: the primal lagrangian multipliers λ are pushed
// toward the linear-relaxation optimum with update (2), while the dual
// lagrangian multipliers μ descend toward the dual optimum; each side
// supplies the bound the other uses in its step size.  init may carry
// multipliers from a previous phase (nil for a cold start, which seeds
// λ from dual ascent and μ from a greedy cover).  ub0, if positive, is
// a known feasible cost used as an external upper bound: it tightens
// the stopping tests and step sizes but never masquerades as Best —
// Result.BestCost is always the cost of Result.Best.
//
// Every iteration is charged to tr (nil for no budget) and the ascent
// stops as soon as the budget runs out.  The result is still usable —
// the initial greedy solution guarantees Best is a feasible cover (when
// one exists) even with zero iterations, and LB only ever reports
// bounds actually certified by some multiplier vector.
//
// sc is caller-owned scratch (nil for a throwaway one), which the
// fixing loop and the restart portfolio reuse across phases.  All
// per-iteration state — the lagrangian costs c̃ = c − A'λ, the dual
// partials e_i = 1 − Σμ, the inner dual solution m and its subgradient
// g = c − A'm — lives in sc and is updated incrementally: a multiplier
// step regathers only the columns (rows) whose value actually changed,
// over the problem's CSC mirror, and each regather replays the exact
// subtraction sequence of a full rebuild, so every float is
// bit-identical to the from-scratch computation (see DESIGN.md §9).
// Steady-state iterations perform no heap allocation.
func Subgradient(p *matrix.Problem, prm Params, init *Multipliers, ub0 int, tr *budget.Tracker, sc *Scratch) *Result {
	if sc == nil {
		sc = &Scratch{}
	}
	prm.fill()
	nr, nc := len(p.Rows), p.NCol
	res := &Result{}
	if nr == 0 {
		res.Best = []int{}
		res.ProvedOptimal = true
		return res
	}
	start, idx := p.CSC()
	sc.attach(p)
	cbar := sc.cbar

	// ----- initial feasible solution (upper bound) -----
	sc.trueCosts = growF64(sc.trueCosts, nc)
	trueCosts := sc.trueCosts
	for j := 0; j < nc; j++ {
		trueCosts[j] = float64(p.Cost[j])
	}
	bestSol := sc.bestGreedy(p, trueCosts)
	if bestSol == nil {
		// Some row is uncoverable; report infeasibility by a nil Best.
		return res
	}
	res.Best = append(make([]int, 0, nc), bestSol...)
	res.BestCost = p.CostOf(res.Best)
	// ubKnown is the tightest feasible cost known anywhere — our own
	// Best or the caller's external bound.  It drives the stopping
	// tests and step sizes; Best/BestCost stay a consistent pair.
	ubKnown := res.BestCost
	if ub0 > 0 && ub0 < ubKnown {
		ubKnown = ub0
	}

	// ----- multiplier initialisation -----
	sc.lambda = growF64(sc.lambda, nr)
	sc.mu = growF64(sc.mu, nc)
	lambda, mu := sc.lambda, sc.mu
	if init != nil && len(init.Lambda) == nr && len(init.Mu) == nc {
		copy(lambda, init.Lambda)
		copy(mu, init.Mu)
	} else {
		// λ₀ from dual ascent (§3.3), μ₀ from the primal heuristic.
		m, _ := sc.da.run(p, nil, tr)
		copy(lambda, m)
		for j := range mu {
			mu[j] = 0
		}
		for _, j := range res.Best {
			mu[j] = 1
		}
	}

	res.Lambda = append([]float64(nil), lambda...)
	res.Mu = append([]float64(nil), mu...)
	res.CTilde = make([]float64, nc)
	res.LB = math.Inf(-1)
	res.UBDual = math.Inf(1)

	// ----- incremental caches at (λ₀, μ₀) -----
	// c̃_j gathered down column j subtracts the λ_i in ascending row
	// order — the same sequence the row-major scatter produces — and
	// cnt[i] counts the c̃ ≤ 0 columns of each row.  negCt mirrors the
	// sign of every c̃_j, so both refresh paths can update cnt purely by
	// sign flips (an exact integer delta) instead of rebuilding it.
	sc.ctilde = growF64(sc.ctilde, nc)
	sc.cnt = growI32(sc.cnt, nr)
	ctilde, cnt := sc.ctilde, sc.cnt
	for i := range cnt {
		cnt[i] = 0
	}
	sc.negCt = bitmat.GrowVec(sc.negCt, nc)
	negCt := sc.negCt
	negCt.Zero()
	for j := 0; j < nc; j++ {
		ctilde[j] = bitmat.GatherSub32(trueCosts[j], idx[start[j]:start[j+1]], lambda)
		if ctilde[j] <= 0 {
			negCt.Set(j)
			for _, i := range idx[start[j]:start[j+1]] {
				cnt[i]++
			}
		}
	}
	// Dual side: e_i = 1 − Σ_{j∋i} μ_j, the inner solution m_i = c̄_i
	// when e_i > 0, and its subgradient g = c − A'm (gathering m down
	// each column; the zero m_i subtract as exact no-ops, so skipping
	// or including them is bit-identical).
	sc.e = growF64(sc.e, nr)
	sc.m = growF64(sc.m, nr)
	e, m := sc.e, sc.m
	for i := 0; i < nr; i++ {
		e[i] = bitmat.GatherSub(1.0, p.Rows[i], mu)
		if e[i] > 0 {
			m[i] = cbar[i]
		} else {
			m[i] = 0
		}
	}
	sc.g = growF64(sc.g, nc)
	g := sc.g
	for j := 0; j < nc; j++ {
		g[j] = bitmat.GatherSub32(trueCosts[j], idx[start[j]:start[j+1]], m)
	}
	sc.s = growF64(sc.s, nr)
	s := sc.s
	sc.dirtyCols = bitmat.GrowVec(sc.dirtyCols, nc)
	sc.dirtyRows = bitmat.GrowVec(sc.dirtyRows, nr)
	sc.gDirty = bitmat.GrowVec(sc.gDirty, nc)
	dirtyCols, dirtyRows, gDirty := sc.dirtyCols, sc.dirtyRows, sc.gDirty
	sc.chRows = growI32(sc.chRows, nr)
	sc.chCols = growI32(sc.chCols, nc)
	chRows, chCols := sc.chRows, sc.chCols

	t := prm.T0
	sinceImprove := 0
	variant := GammaPerRow

	// zlL carries Σλ between iterations: the λ step re-accumulates it
	// over the freshly written multipliers in the same ascending order
	// as this seed loop, so the running value is always bit-identical
	// to a from-scratch sum.
	zlL := 0.0
	for i := 0; i < nr; i++ {
		zlL += lambda[i]
	}

	for k := 0; k < prm.MaxIters; k++ {
		if tr.AddIters(1) {
			break // budget exhausted: keep the bounds certified so far
		}
		res.Iters = k + 1

		// ----- bound ingredients, fused -----
		// One pass over the columns and one over the rows compute every
		// per-iteration aggregate: z_λ (seeded with Σλ, then the c̃ ≤ 0
		// terms in ascending column order), w_LD (μ·c terms first, then
		// the e·c̄ terms — the exact order of the two-loop spelling),
		// ‖g‖² and ‖s‖².  Each accumulator still sums its own terms in
		// its own ascending order, so fusing changes no bits; g, e and
		// cnt are untouched between here and their use below, so hoisting
		// the norms costs nothing but a wasted sum on an early break.
		zl := zlL
		wld := 0.0
		gnorm := 0.0
		for j := 0; j < nc; j++ {
			if ctilde[j] <= 0 {
				zl += ctilde[j]
			}
			wld += mu[j] * trueCosts[j]
			gnorm += g[j] * g[j]
		}
		norm := 0.0
		for i := 0; i < nr; i++ {
			if e[i] > 0 {
				wld += e[i] * cbar[i]
			}
			si := 1 - float64(cnt[i])
			s[i] = si
			norm += si * si
		}
		improved := false
		if zl > res.LB {
			res.LB = zl
			copy(res.Lambda, lambda)
			improved = true
		}

		// ----- primal heuristic on the lagrangian costs -----
		if improved || k%prm.GreedyEvery == 0 {
			sol := sc.greedySparse(p, ctilde, variant, cnt)
			variant = (variant + 1) % 4
			if sol != nil {
				if c := p.CostOf(sol); c < res.BestCost {
					res.Best = append(res.Best[:0], sol...)
					res.BestCost = c
					if c < ubKnown {
						ubKnown = c
					}
				}
			}
		}

		// Integer costs: a feasible cost matching ⌈LB⌉ ends the ascent
		// (the closing check below decides whether our own Best earns
		// the optimality certificate).
		if float64(ubKnown) <= math.Ceil(res.LB-1e-9) {
			break
		}

		// ----- dual lagrangian value at μ, from the cached partials -----
		if wld < res.UBDual {
			res.UBDual = wld
			copy(res.Mu, mu)
		}

		ub := math.Min(res.UBDual, float64(ubKnown))

		// ----- stopping tests -----
		if ub-zl < prm.Delta {
			break
		}
		if improved {
			sinceImprove = 0
		} else {
			sinceImprove++
			if sinceImprove >= prm.NT {
				t /= 2
				sinceImprove = 0
			}
		}
		if t < prm.TMin {
			break
		}

		// ----- primal subgradient step (formula 2) -----
		// s_i = 1 − |{j ∈ row i : c̃_j ≤ 0}| straight from the
		// maintained counts (s and ‖s‖² were filled in the fused pass).
		if norm == 0 {
			// The relaxed solution is feasible and tight: λ is optimal.
			break
		}
		step := t * math.Abs(ub-zl) / norm
		nch := 0
		zlL = 0
		for i := 0; i < nr; i++ {
			// Branch clamp, bit-identical to math.Max(·, 0): every
			// non-positive value (including −0) maps to +0, NaN passes.
			nl := lambda[i] + step*s[i]
			if nl <= 0 {
				nl = 0
			}
			// Bit compare: one integer test covering both a value change
			// and a ±0 sign flip.
			if math.Float64bits(nl) != math.Float64bits(lambda[i]) {
				lambda[i] = nl
				chRows[nch] = int32(i)
				nch++
			}
			zlL += lambda[i]
		}
		// Both refresh paths below produce bit-identical c̃ and cnt — a
		// full column gather replays the exact subtraction order of a
		// rebuild — so the dense/sparse choice is purely a cost decision:
		// when most of the matrix changed, straight loops beat paying
		// bitset marking on top of the same regathers.  The volume proxy
		// is the changed-row count against the row count (average row
		// length cancels), which keeps the step loop free of per-row
		// length lookups.
		if nch*4 >= nr {
			// Row-major scatter instead of per-column gathers: for any
			// fixed column the subtractions still arrive in ascending row
			// order — the gather's exact sequence — and rows with λ_i = 0
			// are skipped outright, which is a bitwise no-op (x − (+0)
			// keeps every payload, and the clamp never produces −0).
			copy(ctilde, trueCosts)
			for i := 0; i < nr; i++ {
				if li := lambda[i]; li != 0 {
					for _, j := range p.Rows[i] {
						ctilde[j] -= li
					}
				}
			}
			// cnt by sign flips against the negCt mirror — an exact
			// integer delta, so no clear-and-rebuild pass over the rows.
			for j := 0; j < nc; j++ {
				if now := ctilde[j] <= 0; now != negCt.Has(j) {
					if now {
						negCt.Set(j)
						for _, i := range idx[start[j]:start[j+1]] {
							cnt[i]++
						}
					} else {
						negCt.Clear(j)
						for _, i := range idx[start[j]:start[j+1]] {
							cnt[i]--
						}
					}
				}
			}
		} else if nch > 0 {
			for _, i := range chRows[:nch] {
				for _, j := range p.Rows[i] {
					dirtyCols.Set(j)
				}
			}
			dirtyCols.Range(func(j int) bool {
				nv := bitmat.GatherSub32(trueCosts[j], idx[start[j]:start[j+1]], lambda)
				ctilde[j] = nv
				if now := nv <= 0; now != negCt.Has(j) {
					if now {
						negCt.Set(j)
						for _, i := range idx[start[j]:start[j+1]] {
							cnt[i]++
						}
					} else {
						negCt.Clear(j)
						for _, i := range idx[start[j]:start[j+1]] {
							cnt[i]--
						}
					}
				}
				return true
			})
			dirtyCols.Zero()
		}

		// ----- dual subgradient step (descent on w_LD) -----
		// ‖g‖² comes from the fused pass: g last changed in the previous
		// iteration's dual refresh, so the early value is the same value.
		if gnorm > 0 {
			// LB is the tightest available lower estimate of z*_P for
			// sizing the descent step on the dual side.
			dstep := t * math.Abs(wld-res.LB) / gnorm
			nch = 0
			for j := 0; j < nc; j++ {
				// Branch clamp, bit-identical to Min(Max(·, 0), 1).
				nv := mu[j] - dstep*g[j]
				if nv <= 0 {
					nv = 0
				} else if nv > 1 {
					nv = 1
				}
				if math.Float64bits(nv) != math.Float64bits(mu[j]) {
					mu[j] = nv
					chCols[nch] = int32(j)
					nch++
				}
			}
			// Same dense/sparse split as the primal side: the full path
			// regathers every e, m and g — bit-identical to the selective
			// refresh, since unchanged inputs regather to unchanged bits.
			if nch*4 >= nc {
				// Scatter both halves with zero skipping.  e: start from
				// the all-ones vector and subtract each non-zero μ_j down
				// its column — for a fixed row the subtractions arrive in
				// ascending column order, the per-row gather's exact
				// sequence, and skipping μ_j = 0 is a bitwise no-op.
				// g: scatter the m_i > 0 rows into c, same argument on
				// the other axis (ascending row order down each column).
				for i := 0; i < nr; i++ {
					e[i] = 1
				}
				for j := 0; j < nc; j++ {
					if mj := mu[j]; mj != 0 {
						for _, i := range idx[start[j]:start[j+1]] {
							e[i] -= mj
						}
					}
				}
				copy(g, trueCosts)
				for i := 0; i < nr; i++ {
					if e[i] > 0 {
						mi := cbar[i]
						m[i] = mi
						for _, j := range p.Rows[i] {
							g[j] -= mi
						}
					} else {
						m[i] = 0
					}
				}
			} else if nch > 0 {
				for _, j := range chCols[:nch] {
					for _, i := range idx[start[j]:start[j+1]] {
						dirtyRows.Set(int(i))
					}
				}
				// Refresh e for the touched rows; when the inner solution
				// m_i flips, the columns of row i need their g regathered.
				dirtyRows.Range(func(i int) bool {
					e[i] = bitmat.GatherSub(1.0, p.Rows[i], mu)
					nm := 0.0
					if e[i] > 0 {
						nm = cbar[i]
					}
					if nm != m[i] {
						m[i] = nm
						for _, j := range p.Rows[i] {
							gDirty.Set(j)
						}
					}
					return true
				})
				dirtyRows.Zero()
				gDirty.Range(func(j int) bool {
					g[j] = bitmat.GatherSub32(trueCosts[j], idx[start[j]:start[j+1]], m)
					return true
				})
				gDirty.Zero()
			}
		}

		if debugIterCheck != nil {
			debugIterCheck(p, sc)
		}
	}

	// One gather at exit replaces a copy on every LB improvement: the
	// incremental cache invariant says c̃ at any λ equals the full
	// column gather at that λ bit for bit, so gathering at res.Lambda
	// reproduces exactly the cache contents the improving iteration saw.
	for j := 0; j < nc; j++ {
		res.CTilde[j] = bitmat.GatherSub32(trueCosts[j], idx[start[j]:start[j+1]], res.Lambda)
	}
	if float64(res.BestCost) <= math.Ceil(res.LB-1e-9) {
		res.ProvedOptimal = true
	}
	return res
}

// Sigma rates every column with the fixing score σ_j = c̃_j − α·μ_j of
// §3.7: the smaller the score, the more likely the column belongs to
// an optimal solution.
func Sigma(ctilde, mu []float64, alpha float64) []float64 {
	s := make([]float64, len(ctilde))
	for j := range s {
		s[j] = ctilde[j] - alpha*mu[j]
	}
	return s
}

// Promising returns the columns satisfying both fixing conditions of
// §3.7: lagrangian cost below CHat and dual value above MuHat.
func Promising(ctilde, mu []float64, prm Params) []int {
	prm.fill()
	var out []int
	for j := range ctilde {
		if ctilde[j] <= prm.CHat && mu[j] >= prm.MuHat {
			out = append(out, j)
		}
	}
	return out
}
