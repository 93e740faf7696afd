package lagrangian

import (
	"math"
	"math/rand"
	"testing"

	"ucp/internal/matrix"
	"ucp/internal/simplex"
)

func randomProblem(rng *rand.Rand, maxRows, maxCols, maxCost int) *matrix.Problem {
	nr := 1 + rng.Intn(maxRows)
	nc := 1 + rng.Intn(maxCols)
	rows := make([][]int, nr)
	for i := range rows {
		for j := 0; j < nc; j++ {
			if rng.Intn(3) == 0 {
				rows[i] = append(rows[i], j)
			}
		}
		if len(rows[i]) == 0 {
			rows[i] = append(rows[i], rng.Intn(nc))
		}
	}
	cost := make([]int, nc)
	for j := range cost {
		cost[j] = 1 + rng.Intn(maxCost)
	}
	p, _ := matrix.New(rows, nc, cost)
	q, _ := p.Compact()
	return q
}

func bruteForce(p *matrix.Problem) int {
	best := math.MaxInt
	for mask := 0; mask < 1<<p.NCol; mask++ {
		var cols []int
		for j := 0; j < p.NCol; j++ {
			if mask>>j&1 == 1 {
				cols = append(cols, j)
			}
		}
		if p.IsCover(cols) {
			if c := p.CostOf(cols); c < best {
				best = c
			}
		}
	}
	return best
}

// lpBound computes the exact linear-relaxation bound with the simplex
// solver (including the x ≤ 1 box).
func lpBound(p *matrix.Problem) float64 {
	n := p.NCol
	var a [][]float64
	var b []float64
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
		panic(err)
	}
	return z
}

func TestDualAscentFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng, 8, 8, 4)
		m, w := DualAscent(p, nil, nil)
		if !DualFeasible(p, m, 1e-9) {
			t.Fatalf("trial %d: dual ascent infeasible", trial)
		}
		sum := 0.0
		for _, v := range m {
			sum += v
		}
		if math.Abs(sum-w) > 1e-9 {
			t.Fatalf("trial %d: reported value %v != Σm %v", trial, w, sum)
		}
		if opt := bruteForce(p); w > float64(opt)+1e-9 {
			t.Fatalf("trial %d: dual bound %v exceeds optimum %d", trial, w, opt)
		}
	}
}

// TestBoundDominanceChain verifies Proposition 1 on random instances:
// LB_MIS ≤ LB_DA ≤ z*_P (linear relaxation) ≤ optimum, and with
// uniform costs LB_MIS = LB_DA for the dual solutions that correspond
// to independent sets (the ascent may do better, so only ≤ is
// asserted there).
func TestBoundDominanceChain(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng, 8, 8, 3)
		mis, _ := matrix.MISBound(p)
		_, da := DualAscent(p, nil, nil)
		lp := lpBound(p)
		opt := bruteForce(p)
		if float64(mis) > da+1e-6 {
			t.Fatalf("trial %d: MIS %d > dual ascent %v", trial, mis, da)
		}
		if da > lp+1e-6 {
			t.Fatalf("trial %d: dual ascent %v > LP %v", trial, da, lp)
		}
		if lp > float64(opt)+1e-6 {
			t.Fatalf("trial %d: LP %v > optimum %d", trial, lp, opt)
		}
	}
}

func TestGreedyProducesIrredundantCover(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng, 9, 9, 4)
		for v := GammaPerRow; v <= GammaRowImportance; v++ {
			sol := GreedyLagrangian(p, FloatCosts(p), v)
			if sol == nil {
				t.Fatalf("trial %d: greedy failed on feasible problem", trial)
			}
			if !p.IsCover(sol) {
				t.Fatalf("trial %d variant %d: not a cover", trial, v)
			}
			for k := range sol {
				rest := append(append([]int(nil), sol[:k]...), sol[k+1:]...)
				if p.IsCover(rest) {
					t.Fatalf("trial %d variant %d: redundant column in %v", trial, v, sol)
				}
			}
		}
	}
}

func TestSubgradientBoundsAndOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	proved, total := 0, 0
	for trial := 0; trial < 150; trial++ {
		p := randomProblem(rng, 9, 9, 3)
		opt := bruteForce(p)
		res := Subgradient(p, Params{}, nil, 0, nil, nil)
		if res.Best == nil {
			t.Fatalf("trial %d: no solution on feasible problem", trial)
		}
		if !p.IsCover(res.Best) {
			t.Fatalf("trial %d: best not a cover", trial)
		}
		if res.BestCost < opt {
			t.Fatalf("trial %d: impossible cost %d < optimum %d", trial, res.BestCost, opt)
		}
		if math.Ceil(res.LB-1e-9) > float64(opt) {
			t.Fatalf("trial %d: lower bound %v exceeds optimum %d", trial, res.LB, opt)
		}
		if lp := lpBound(p); res.LB > lp+1e-6 {
			t.Fatalf("trial %d: lagrangian LB %v above LP bound %v", trial, res.LB, lp)
		}
		if res.ProvedOptimal {
			if res.BestCost != opt {
				t.Fatalf("trial %d: claimed optimal %d but optimum is %d", trial, res.BestCost, opt)
			}
			proved++
		}
		total++
	}
	// The paper reports near-universal optimality proofs on easy
	// problems; demand a healthy fraction on these tiny instances.
	if proved*2 < total {
		t.Fatalf("only %d/%d instances proved optimal", proved, total)
	}
}

func TestSubgradientWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	p := randomProblem(rng, 10, 10, 3)
	res := Subgradient(p, Params{}, nil, 0, nil, nil)
	init := &Multipliers{Lambda: res.Lambda, Mu: res.Mu}
	res2 := Subgradient(p, Params{}, init, res.BestCost, nil, nil)
	if res2.LB < res.LB-1e-6 && !res2.ProvedOptimal {
		// A warm start must not be catastrophically worse; allow tiny
		// slack for the oscillating nature of the method.
		if res.LB-res2.LB > 1 {
			t.Fatalf("warm start lost the bound: %v vs %v", res2.LB, res.LB)
		}
	}
}

func TestSubgradientEmptyProblem(t *testing.T) {
	p, _ := matrix.New(nil, 0, nil)
	res := Subgradient(p, Params{}, nil, 0, nil, nil)
	if !res.ProvedOptimal || len(res.Best) != 0 || res.BestCost != 0 {
		t.Fatal("empty problem should be trivially optimal")
	}
}

func TestLagrangianPenaltiesSound(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 150; trial++ {
		p := randomProblem(rng, 8, 8, 3)
		res := Subgradient(p, Params{}, nil, 0, nil, nil)
		if res.Best == nil {
			continue
		}
		pen := LagrangianPenalties(res.CTilde, res.LB, res.BestCost)
		// Soundness: every solution strictly cheaper than BestCost
		// must include every FixIn column and exclude every FixOut
		// column.
		for mask := 0; mask < 1<<p.NCol; mask++ {
			var cols []int
			for j := 0; j < p.NCol; j++ {
				if mask>>j&1 == 1 {
					cols = append(cols, j)
				}
			}
			if !p.IsCover(cols) || p.CostOf(cols) >= res.BestCost {
				continue
			}
			has := make(map[int]bool)
			for _, j := range cols {
				has[j] = true
			}
			for _, j := range pen.FixIn {
				if !has[j] {
					t.Fatalf("trial %d: cheaper solution %v misses FixIn col %d", trial, cols, j)
				}
			}
			for _, j := range pen.FixOut {
				if has[j] {
					t.Fatalf("trial %d: cheaper solution %v uses FixOut col %d", trial, cols, j)
				}
			}
		}
	}
}

func TestDualPenaltiesSound(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 80; trial++ {
		p := randomProblem(rng, 7, 7, 3)
		res := Subgradient(p, Params{}, nil, 0, nil, nil)
		if res.Best == nil {
			continue
		}
		pen := DualPenalties(p, res.Lambda, res.BestCost)
		for mask := 0; mask < 1<<p.NCol; mask++ {
			var cols []int
			for j := 0; j < p.NCol; j++ {
				if mask>>j&1 == 1 {
					cols = append(cols, j)
				}
			}
			if !p.IsCover(cols) || p.CostOf(cols) >= res.BestCost {
				continue
			}
			has := make(map[int]bool)
			for _, j := range cols {
				has[j] = true
			}
			for _, j := range pen.FixIn {
				if !has[j] {
					t.Fatalf("trial %d: cheaper solution misses dual FixIn col %d", trial, j)
				}
			}
			for _, j := range pen.FixOut {
				if has[j] {
					t.Fatalf("trial %d: cheaper solution uses dual FixOut col %d", trial, j)
				}
			}
		}
	}
}

func TestDualPenaltiesRestoreCosts(t *testing.T) {
	p := matrix.MustNew([][]int{{0, 1}, {1, 2}}, 3, []int{2, 3, 4})
	orig := append([]int(nil), p.Cost...)
	DualPenalties(p, nil, 100)
	for j := range orig {
		if p.Cost[j] != orig[j] {
			t.Fatal("DualPenalties mutated the cost vector")
		}
	}
}

func TestSigmaAndPromising(t *testing.T) {
	ctilde := []float64{0.0005, 2, -1}
	mu := []float64{1, 0.9995, 0.5}
	s := Sigma(ctilde, mu, 2)
	if math.Abs(s[0]-(0.0005-2)) > 1e-12 || math.Abs(s[1]-(2-2*0.9995)) > 1e-12 {
		t.Fatalf("sigma = %v", s)
	}
	prom := Promising(ctilde, mu, Params{})
	if len(prom) != 1 || prom[0] != 0 {
		t.Fatalf("promising = %v", prom)
	}
}

func TestMergeDetectsContradiction(t *testing.T) {
	a := &Penalties{FixIn: []int{3}}
	b := &Penalties{FixOut: []int{3}}
	m := a.Merge(b)
	if !m.NoBetter {
		t.Fatal("contradictory fixes should set NoBetter")
	}
}

func TestLimitBoundSubsumedByDualPenalties(t *testing.T) {
	// Proposition 3: any column removable by the limit bound theorem
	// is also removed by the dual penalties.
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng, 7, 7, 3)
		zbest := bruteForce(p) + 1 // a genuine upper bound
		lbMIS, rows := matrix.MISBound(p)
		removable := LimitBound(p, rows, lbMIS, zbest)
		if len(removable) == 0 {
			continue
		}
		// Build the dual solution corresponding to the MIS and verify
		// each removable column also satisfies dual penalty (6) with
		// that m as warm start.
		m := make([]float64, len(p.Rows))
		for _, i := range rows {
			cb := math.Inf(1)
			for _, j := range p.Rows[i] {
				if float64(p.Cost[j]) < cb {
					cb = float64(p.Cost[j])
				}
			}
			m[i] = cb
		}
		pen := DualPenalties(p, m, zbest)
		outSet := make(map[int]bool)
		for _, j := range pen.FixOut {
			outSet[j] = true
		}
		for _, j := range removable {
			if !outSet[j] {
				t.Fatalf("trial %d: limit bound removes col %d but dual penalties do not", trial, j)
			}
		}
	}
}

// TestSubgradientArbitraryInitStillSound: any non-negative multiplier
// initialisation must yield a valid lower bound — warm starts coming
// from a previous fixing phase are only heuristically related to the
// new problem, so soundness cannot depend on them.
func TestSubgradientArbitraryInitStillSound(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for trial := 0; trial < 150; trial++ {
		p := randomProblem(rng, 8, 8, 3)
		opt := bruteForce(p)
		init := &Multipliers{
			Lambda: make([]float64, len(p.Rows)),
			Mu:     make([]float64, p.NCol),
		}
		for i := range init.Lambda {
			init.Lambda[i] = rng.Float64() * 5
		}
		for j := range init.Mu {
			init.Mu[j] = rng.Float64()
		}
		res := Subgradient(p, Params{}, init, 0, nil, nil)
		if res.Best == nil {
			t.Fatalf("trial %d: no solution", trial)
		}
		if math.Ceil(res.LB-1e-9) > float64(opt) {
			t.Fatalf("trial %d: warm-started LB %v above optimum %d", trial, res.LB, opt)
		}
		if res.BestCost < opt {
			t.Fatalf("trial %d: impossible cost", trial)
		}
		if res.ProvedOptimal && res.BestCost != opt {
			t.Fatalf("trial %d: false certificate", trial)
		}
	}
}
