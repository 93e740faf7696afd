package lagrangian

import (
	"math"
	"math/rand"
	"testing"

	"ucp/internal/matrix"
)

// refSubgradient is the pre-scratch engine: full O(nnz) rebuilds of
// c̃, e, and g every iteration, exactly as the loop stood before the
// incremental rewrite.  The differential tests below hold the
// incremental engine to bit-identical Results against it.
func refSubgradient(p *matrix.Problem, prm Params, init *Multipliers, ub0 int) *Result {
	prm.fill()
	nr, nc := len(p.Rows), p.NCol
	res := &Result{}
	if nr == 0 {
		res.Best = []int{}
		res.ProvedOptimal = true
		return res
	}

	refBest := func(ctilde []float64) []int {
		var best []int
		bestCost := math.MaxInt
		for v := GammaPerRow; v <= GammaRowImportance; v++ {
			sol := GreedyLagrangian(p, ctilde, v)
			if sol == nil {
				continue
			}
			if c := p.CostOf(sol); c < bestCost {
				best, bestCost = sol, c
			}
		}
		return best
	}

	best := refBest(FloatCosts(p))
	if best == nil {
		return res
	}
	res.Best, res.BestCost = best, p.CostOf(best)
	ubKnown := res.BestCost
	if ub0 > 0 && ub0 < ubKnown {
		ubKnown = ub0
	}

	var lambda, mu []float64
	if init != nil && len(init.Lambda) == nr && len(init.Mu) == nc {
		lambda = append([]float64(nil), init.Lambda...)
		mu = append([]float64(nil), init.Mu...)
	} else {
		m, _ := DualAscent(p, nil, nil)
		lambda = m
		mu = make([]float64, nc)
		for _, j := range best {
			mu[j] = 1
		}
	}

	res.Lambda = append([]float64(nil), lambda...)
	res.Mu = append([]float64(nil), mu...)
	res.LB = math.Inf(-1)
	res.UBDual = math.Inf(1)

	ctilde := make([]float64, nc)
	s := make([]float64, nr)
	g := make([]float64, nc)
	m := make([]float64, nr)
	cbar := make([]float64, nr)
	for i, r := range p.Rows {
		cb := math.Inf(1)
		for _, j := range r {
			if float64(p.Cost[j]) < cb {
				cb = float64(p.Cost[j])
			}
		}
		cbar[i] = cb
	}

	t := prm.T0
	sinceImprove := 0
	variant := GammaPerRow

	for k := 0; k < prm.MaxIters; k++ {
		res.Iters = k + 1

		for j := 0; j < nc; j++ {
			ctilde[j] = float64(p.Cost[j])
		}
		zl := 0.0
		for i := 0; i < nr; i++ {
			zl += lambda[i]
			for _, j := range p.Rows[i] {
				ctilde[j] -= lambda[i]
			}
		}
		for j := 0; j < nc; j++ {
			if ctilde[j] <= 0 {
				zl += ctilde[j]
			}
		}
		improved := false
		if zl > res.LB {
			res.LB = zl
			copy(res.Lambda, lambda)
			res.CTilde = append(res.CTilde[:0], ctilde...)
			improved = true
		}

		if improved || k%prm.GreedyEvery == 0 {
			sol := GreedyLagrangian(p, ctilde, variant)
			variant = (variant + 1) % 4
			if sol != nil {
				if c := p.CostOf(sol); c < res.BestCost {
					res.Best, res.BestCost = sol, c
					if c < ubKnown {
						ubKnown = c
					}
				}
			}
		}

		if float64(ubKnown) <= math.Ceil(res.LB-1e-9) {
			break
		}

		wld := 0.0
		for j := 0; j < nc; j++ {
			wld += mu[j] * float64(p.Cost[j])
		}
		for i := 0; i < nr; i++ {
			et := 1.0
			for _, j := range p.Rows[i] {
				et -= mu[j]
			}
			if et > 0 {
				m[i] = cbar[i]
				wld += et * cbar[i]
			} else {
				m[i] = 0
			}
		}
		if wld < res.UBDual {
			res.UBDual = wld
			copy(res.Mu, mu)
		}

		ub := math.Min(res.UBDual, float64(ubKnown))

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

		norm := 0.0
		for i := 0; i < nr; i++ {
			s[i] = 1
			for _, j := range p.Rows[i] {
				if ctilde[j] <= 0 {
					s[i]--
				}
			}
			norm += s[i] * s[i]
		}
		if norm == 0 {
			break
		}
		step := t * math.Abs(ub-zl) / norm
		for i := 0; i < nr; i++ {
			lambda[i] = math.Max(lambda[i]+step*s[i], 0)
		}

		gnorm := 0.0
		for j := 0; j < nc; j++ {
			g[j] = float64(p.Cost[j])
		}
		for i := 0; i < nr; i++ {
			if m[i] > 0 {
				for _, j := range p.Rows[i] {
					g[j] -= m[i]
				}
			}
		}
		for j := 0; j < nc; j++ {
			gnorm += g[j] * g[j]
		}
		if gnorm > 0 {
			dstep := t * math.Abs(wld-res.LB) / gnorm
			for j := 0; j < nc; j++ {
				mu[j] = math.Min(math.Max(mu[j]-dstep*g[j], 0), 1)
			}
		}
	}

	if res.CTilde == nil {
		res.CTilde = make([]float64, nc)
		for j := 0; j < nc; j++ {
			res.CTilde[j] = float64(p.Cost[j])
		}
		for i := 0; i < nr; i++ {
			for _, j := range p.Rows[i] {
				res.CTilde[j] -= res.Lambda[i]
			}
		}
	}
	if float64(res.BestCost) <= math.Ceil(res.LB-1e-9) {
		res.ProvedOptimal = true
	}
	return res
}

func f64BitsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

func intsEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

func compareResults(t *testing.T, trial int, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.LB) != math.Float64bits(want.LB) {
		t.Fatalf("trial %d: LB %v != reference %v", trial, got.LB, want.LB)
	}
	if math.Float64bits(got.UBDual) != math.Float64bits(want.UBDual) {
		t.Fatalf("trial %d: UBDual %v != reference %v", trial, got.UBDual, want.UBDual)
	}
	if got.Iters != want.Iters {
		t.Fatalf("trial %d: Iters %d != reference %d", trial, got.Iters, want.Iters)
	}
	if got.BestCost != want.BestCost || !intsEq(got.Best, want.Best) {
		t.Fatalf("trial %d: Best %v (%d) != reference %v (%d)",
			trial, got.Best, got.BestCost, want.Best, want.BestCost)
	}
	if got.ProvedOptimal != want.ProvedOptimal {
		t.Fatalf("trial %d: ProvedOptimal %v != reference %v", trial, got.ProvedOptimal, want.ProvedOptimal)
	}
	if !f64BitsEq(got.Lambda, want.Lambda) {
		t.Fatalf("trial %d: Lambda differs from reference", trial)
	}
	if !f64BitsEq(got.Mu, want.Mu) {
		t.Fatalf("trial %d: Mu differs from reference", trial)
	}
	if !f64BitsEq(got.CTilde, want.CTilde) {
		t.Fatalf("trial %d: CTilde differs from reference", trial)
	}
}

// TestIncrementalMatchesReference holds the incremental engine to
// bit-identical Results against the full-rebuild reference, cold and
// warm starts alike, with one Scratch reused across every trial (so
// stale buffer contents are exercised too).
func TestIncrementalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sc := &Scratch{}
	for trial := 0; trial < 120; trial++ {
		p := randomProblem(rng, 14, 14, 4)
		want := refSubgradient(p, Params{}, nil, 0)
		got := Subgradient(p, Params{}, nil, 0, nil, sc)
		compareResults(t, trial, got, want)

		// Warm start from the cold result's multipliers.
		init := &Multipliers{Lambda: want.Lambda, Mu: want.Mu}
		want2 := refSubgradient(p, Params{}, init, 0)
		got2 := Subgradient(p, Params{}, init, 0, nil, sc)
		compareResults(t, trial, got2, want2)
	}
}

// TestIncrementalMatchesReferenceLarger runs fewer, bigger instances
// so the dirty sets stay sparse for many iterations (the regime the
// incremental updates are for).
func TestIncrementalMatchesReferenceLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	sc := &Scratch{}
	for trial := 0; trial < 8; trial++ {
		p := randomProblem(rng, 60, 80, 9)
		want := refSubgradient(p, Params{}, nil, 0)
		got := Subgradient(p, Params{}, nil, 0, nil, sc)
		compareResults(t, trial, got, want)
	}
}

// TestIncrementalCachesBitIdentical recomputes every engine cache from
// scratch at the end of each iteration — via the debug hook — and
// holds the cached values to bit-equality with the row-major scatter
// the caches replaced.
func TestIncrementalCachesBitIdentical(t *testing.T) {
	defer func() { debugIterCheck = nil }()
	iters := 0
	debugIterCheck = func(p *matrix.Problem, sc *Scratch) {
		iters++
		nr, nc := len(p.Rows), p.NCol
		// c̃ by full row-major scatter.
		fresh := make([]float64, nc)
		for j := 0; j < nc; j++ {
			fresh[j] = float64(p.Cost[j])
		}
		for i := 0; i < nr; i++ {
			for _, j := range p.Rows[i] {
				fresh[j] -= sc.lambda[i]
			}
		}
		if !f64BitsEq(sc.ctilde[:nc], fresh) {
			t.Fatal("cached ctilde differs from scatter rebuild")
		}
		// cnt from the fresh c̃.
		for i := 0; i < nr; i++ {
			n := int32(0)
			for _, j := range p.Rows[i] {
				if fresh[j] <= 0 {
					n++
				}
			}
			if sc.cnt[i] != n {
				t.Fatalf("cached cnt[%d] = %d, fresh %d", i, sc.cnt[i], n)
			}
		}
		// e and m by full row recomputation.
		for i := 0; i < nr; i++ {
			et := 1.0
			for _, j := range p.Rows[i] {
				et -= sc.mu[j]
			}
			if math.Float64bits(sc.e[i]) != math.Float64bits(et) {
				t.Fatalf("cached e[%d] differs from rebuild", i)
			}
			var em float64
			if et > 0 {
				em = sc.cbar[i]
			}
			if math.Float64bits(sc.m[i]) != math.Float64bits(em) {
				t.Fatalf("cached m[%d] differs from rebuild", i)
			}
		}
		// g by full row-major scatter of the inner solution.
		gf := make([]float64, nc)
		for j := 0; j < nc; j++ {
			gf[j] = float64(p.Cost[j])
		}
		for i := 0; i < nr; i++ {
			if sc.m[i] > 0 {
				for _, j := range p.Rows[i] {
					gf[j] -= sc.m[i]
				}
			}
		}
		if !f64BitsEq(sc.g[:nc], gf) {
			t.Fatal("cached g differs from scatter rebuild")
		}
	}

	rng := rand.New(rand.NewSource(63))
	sc := &Scratch{}
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 20, 20, 5)
		Subgradient(p, Params{}, nil, 0, nil, sc)
	}
	if iters == 0 {
		t.Fatal("debug hook never ran")
	}
}

// TestExternalBoundKeepsBestConsistent is the regression test for the
// old Best/BestCost mismatch: with an external bound below anything
// the heuristic finds, the result used to report ub0 as BestCost while
// Best held the pricier cover.  BestCost must always price Best.
func TestExternalBoundKeepsBestConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	tightened := 0
	for trial := 0; trial < 120; trial++ {
		p := randomProblem(rng, 10, 10, 4)
		base := Subgradient(p, Params{}, nil, 0, nil, nil)
		if base.Best == nil {
			t.Fatalf("trial %d: no solution", trial)
		}
		for _, ub0 := range []int{base.BestCost, base.BestCost - 1, 1} {
			res := Subgradient(p, Params{}, nil, ub0, nil, nil)
			if res.Best == nil {
				t.Fatalf("trial %d: no solution with ub0=%d", trial, ub0)
			}
			if !p.IsCover(res.Best) {
				t.Fatalf("trial %d ub0=%d: Best is not a cover", trial, ub0)
			}
			if got := p.CostOf(res.Best); got != res.BestCost {
				t.Fatalf("trial %d ub0=%d: BestCost %d but CostOf(Best) %d",
					trial, ub0, res.BestCost, got)
			}
			if res.ProvedOptimal && float64(res.BestCost) > math.Ceil(res.LB-1e-9) {
				t.Fatalf("trial %d ub0=%d: certificate without a matching Best", trial, ub0)
			}
			if ub0 < res.BestCost {
				tightened++
			}
		}
	}
	if tightened == 0 {
		t.Fatal("no trial exercised an external bound below the heuristic cover")
	}
}

// TestScratchReuseBitIdentical interleaves differently sized problems
// through one Scratch and checks each result is bit-identical to a
// fresh-scratch solve — reuse (and therefore pooling in the restart
// portfolio) cannot leak state between phases.
func TestScratchReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	shared := &Scratch{}
	for trial := 0; trial < 60; trial++ {
		var p *matrix.Problem
		if trial%2 == 0 {
			p = randomProblem(rng, 30, 30, 6)
		} else {
			p = randomProblem(rng, 6, 40, 3)
		}
		got := Subgradient(p, Params{}, nil, 0, nil, shared)
		want := Subgradient(p, Params{}, nil, 0, nil, &Scratch{})
		compareResults(t, trial, got, want)
	}
}

// TestSubgradientSteadyStateAllocs pins the per-iteration heap
// allocation count of the scratch engine to zero: two runs differing
// only in MaxIters must allocate exactly the same once the scratch
// high-water marks are warm.
func TestSubgradientSteadyStateAllocs(t *testing.T) {
	// Keep every stopping test out of the way so both runs execute
	// exactly MaxIters iterations.
	prm := func(iters int) Params {
		return Params{Delta: 1e-300, TMin: 1e-300, NT: 1 << 30, MaxIters: iters}
	}
	const n1, n2 = 40, 160
	sc := &Scratch{}
	// Find an instance whose duality gap keeps the ascent running for
	// the full budget (most random instances certify early and stop).
	var p *matrix.Problem
	for seed := int64(1); seed < 64; seed++ {
		q := randomProblem(rand.New(rand.NewSource(seed)), 60, 80, 19)
		if r := Subgradient(q, prm(n2), nil, 0, nil, sc); r.Iters == n2 {
			p = q
			break
		}
	}
	if p == nil {
		t.Fatal("no probe instance ran the full iteration budget")
	}
	a1 := testing.AllocsPerRun(5, func() {
		Subgradient(p, prm(n1), nil, 0, nil, sc)
	})
	a2 := testing.AllocsPerRun(5, func() {
		Subgradient(p, prm(n2), nil, 0, nil, sc)
	})
	if a2 != a1 {
		t.Fatalf("steady-state iterations allocate: %v allocs at %d iters vs %v at %d (%.3f allocs/iter)",
			a2, n2, a1, n1, (a2-a1)/float64(n2-n1))
	}
}
