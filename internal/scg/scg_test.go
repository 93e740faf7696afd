package scg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/bnb"
	"ucp/internal/matrix"
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
	return matrix.MustNew(rows, nc, cost)
}

func TestSolveValidAndNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	hit, total := 0, 0
	for trial := 0; trial < 150; trial++ {
		p := randomProblem(rng, 10, 10, 3)
		opt := bnb.Solve(p, bnb.Options{})
		res := Solve(p, Options{Seed: int64(trial)})
		if res.Solution == nil {
			t.Fatalf("trial %d: no solution on feasible problem", trial)
		}
		if !p.IsCover(res.Solution) {
			t.Fatalf("trial %d: not a cover", trial)
		}
		if res.Cost < opt.Cost {
			t.Fatalf("trial %d: impossible cost %d < optimum %d", trial, res.Cost, opt.Cost)
		}
		if math.Ceil(res.LB-1e-9) > float64(opt.Cost) {
			t.Fatalf("trial %d: invalid lower bound %v > optimum %d", trial, res.LB, opt.Cost)
		}
		if res.ProvedOptimal && res.Cost != opt.Cost {
			t.Fatalf("trial %d: claimed optimal %d, true optimum %d", trial, res.Cost, opt.Cost)
		}
		if res.Cost == opt.Cost {
			hit++
		}
		total++
	}
	// The paper reports nearly always hitting the optimum; on tiny
	// instances we should essentially always match it.
	if hit*20 < total*19 {
		t.Fatalf("optimum hit only %d/%d times", hit, total)
	}
}

func TestSolveUniformCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	hit := 0
	for trial := 0; trial < 100; trial++ {
		p := randomProblem(rng, 12, 12, 1)
		opt := bnb.Solve(p, bnb.Options{})
		res := Solve(p, Options{Seed: int64(trial)})
		if res.Cost == opt.Cost {
			hit++
		}
		if res.Cost < opt.Cost {
			t.Fatalf("trial %d: cost below optimum", trial)
		}
	}
	if hit < 95 {
		t.Fatalf("optimum hit only %d/100 times on uniform costs", hit)
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := &matrix.Problem{Rows: [][]int{{}}, NCol: 2, Cost: []int{1, 1}}
	res := Solve(p, Options{})
	if res.Solution != nil {
		t.Fatal("infeasible problem returned a cover")
	}
}

func TestSolveEmptyProblem(t *testing.T) {
	p := matrix.MustNew(nil, 4, nil)
	res := Solve(p, Options{})
	if res.Solution == nil || len(res.Solution) != 0 || res.Cost != 0 || !res.ProvedOptimal {
		t.Fatalf("empty problem: %+v", res)
	}
}

func TestSolveReductionOnlyProblem(t *testing.T) {
	// Chain of essentials: reductions alone solve it; no subgradient
	// phase should be needed and optimality is certified.
	p := matrix.MustNew([][]int{{0}, {1}, {0, 1, 2}}, 3, nil)
	res := Solve(p, Options{})
	if !res.ProvedOptimal || res.Cost != 2 {
		t.Fatalf("got %+v", res)
	}
	if res.Stats.SubgradIters != 0 {
		t.Fatalf("subgradient ran on an empty core (%d iters)", res.Stats.SubgradIters)
	}
}

func TestMoreItersNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 14, 14, 2)
		r1 := Solve(p, Options{NumIter: 1, Seed: 7})
		r5 := Solve(p, Options{NumIter: 5, Seed: 7})
		if r5.Cost > r1.Cost {
			t.Fatalf("trial %d: NumIter=5 cost %d worse than NumIter=1 cost %d", trial, r5.Cost, r1.Cost)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	p := randomProblem(rng, 15, 15, 2)
	a := Solve(p, Options{NumIter: 4, Seed: 42})
	b := Solve(p, Options{NumIter: 4, Seed: 42})
	if a.Cost != b.Cost || len(a.Solution) != len(b.Solution) {
		t.Fatal("same seed produced different results")
	}
	for i := range a.Solution {
		if a.Solution[i] != b.Solution[i] {
			t.Fatal("same seed produced different solutions")
		}
	}
}

func TestAblationsStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	for trial := 0; trial < 60; trial++ {
		p := randomProblem(rng, 10, 10, 3)
		opt := bnb.Solve(p, bnb.Options{})
		for _, o := range []Options{
			{DisablePenalties: true},
			{DisablePromising: true},
			{DisableWarmStart: true},
			{DisablePartition: true},
			{DisablePenalties: true, DisablePromising: true, DisableWarmStart: true, DisablePartition: true},
		} {
			o.Seed = int64(trial)
			res := Solve(p, o)
			if res.Solution == nil || !p.IsCover(res.Solution) {
				t.Fatalf("trial %d opts %+v: invalid result", trial, o)
			}
			if res.Cost < opt.Cost {
				t.Fatalf("trial %d: cost below optimum", trial)
			}
			if res.ProvedOptimal && res.Cost != opt.Cost {
				t.Fatalf("trial %d opts %+v: false optimality claim", trial, o)
			}
		}
	}
}

func TestImplicitReducePreservesOptimum(t *testing.T) {
	// Both paths of the phase must preserve the optimum: thresholds of
	// (1, 1) run the ZDD to its fixpoint, and (100, 100) let the
	// explicit shortcut claim these small instances.
	for _, limit := range []int{1, 100} {
		rng := rand.New(rand.NewSource(86))
		for trial := 0; trial < 150; trial++ {
			p := randomProblem(rng, 9, 9, 3)
			want := bnb.Solve(p, bnb.Options{}).Cost
			ir := ImplicitReduceBudgetWorkers(p, limit, limit, 0, nil, 1)
			if ir.Infeasible {
				t.Fatalf("limit=%d trial %d: feasible problem reported infeasible", limit, trial)
			}
			got := p.CostOf(ir.Essential)
			if len(ir.Core.Rows) > 0 {
				got += bnb.Solve(ir.Core, bnb.Options{}).Cost
			}
			if got != want {
				t.Fatalf("limit=%d trial %d: implicit reduction changed optimum: %d != %d\nrows=%v cost=%v ess=%v core=%v",
					limit, trial, got, want, p.Rows, p.Cost, ir.Essential, ir.Core.Rows)
			}
		}
	}
}

// implicitAgreement checks the ZDD phase against the explicit
// reduction the solve runs: the phase followed by
// matrix.ReduceBudgetWorkers on its core must reach the explicit
// fixpoint's feasibility verdict, sorted essential set and core row
// multiset (the phase decodes its core in ZDD enumeration order).  It
// returns "" on agreement.  The caller picks the ZDD engine with
// SetZDDChain.
func implicitAgreement(p *matrix.Problem) string {
	er := matrix.ReduceBudgetWorkers(p, nil, 1)
	ir := ImplicitReduceBudgetWorkers(p, 1, 1, 0, nil, 1) // tiny thresholds: run to fixpoint
	switch {
	case ir.Aborted:
		return "phase aborted without a cap"
	case ir.Infeasible != er.Infeasible:
		return fmt.Sprintf("infeasible: phase %v, explicit %v", ir.Infeasible, er.Infeasible)
	case ir.Infeasible:
		return ""
	}
	fin := matrix.ReduceBudgetWorkers(ir.Core, nil, 1)
	if fin.Infeasible {
		return "the explicit finish of the phase's core is infeasible"
	}
	ess := append(slices.Clone(ir.Essential), fin.Essential...)
	sort.Ints(ess)
	if !slices.Equal(ess, er.Essential) {
		return fmt.Sprintf("essentials: phase+finish %v, explicit %v", ess, er.Essential)
	}
	if got, want := sortedRows(fin.Core.Rows), sortedRows(er.Core.Rows); !slices.EqualFunc(got, want, slices.Equal[[]int]) {
		return fmt.Sprintf("core rows: phase+finish %v, explicit %v", got, want)
	}
	return ""
}

func sortedRows(rows [][]int) [][]int {
	out := slices.Clone(rows)
	slices.SortFunc(out, slices.Compare[[]int])
	return out
}

// TestImplicitReduceAgreesWithExplicit makes the ZDD phase the explicit
// reductions' exact oracle, on both ZDD engines: random matrices,
// cyclic coverings and random coverings, with unit costs and with
// costs 1–4.
func TestImplicitReduceAgreesWithExplicit(t *testing.T) {
	for _, chain := range []bool{true, false} {
		restore := SetZDDChain(chain)
		rng := rand.New(rand.NewSource(87))
		var inputs []*matrix.Problem
		for trial := 0; trial < 100; trial++ {
			inputs = append(inputs, randomProblem(rng, 9, 9, 1), randomProblem(rng, 9, 9, 4))
		}
		for seed := int64(1); seed <= 30; seed++ {
			cyc := benchmarks.CyclicCovering(seed, 12+rng.Intn(30), 8+rng.Intn(16), 2+rng.Intn(2))
			cost := make([]int, cyc.NCol)
			for j := range cost {
				cost[j] = 1 + rng.Intn(4)
			}
			inputs = append(inputs, cyc, matrix.MustNew(cyc.Rows, cyc.NCol, cost),
				benchmarks.RandomCovering(seed, 10+rng.Intn(30), 6+rng.Intn(14), 0.15+0.3*rng.Float64(), 4))
		}
		for k, p := range inputs {
			if msg := implicitAgreement(p); msg != "" {
				t.Fatalf("chain=%v input %d: %s\nrows=%v cost=%v", chain, k, msg, p.Rows, p.Cost)
			}
		}
		restore()
	}
}

// FuzzImplicitAgreesWithExplicit runs implicitAgreement on arbitrary
// small matrices, on both ZDD engines.  The first byte picks the
// column count (1–12), the next ones the costs (1–4), and the rest
// decodes to rows of 0–5 column ids; an empty row exercises the
// infeasibility verdicts.
func FuzzImplicitAgreesWithExplicit(f *testing.F) {
	f.Add([]byte{5, 1, 1, 1, 1, 1, 2, 0, 1, 2, 1, 2, 2, 0, 2})
	f.Add([]byte{7, 3, 1, 4, 2, 2, 1, 3, 3, 0, 1, 2, 3, 3, 4, 5, 3, 5, 6, 0, 2, 2, 6, 1, 1})
	f.Add([]byte{3, 1, 2, 3, 1, 0, 0, 2, 1, 2})
	f.Add([]byte{11, 4, 3, 2, 1, 4, 3, 2, 1, 4, 3, 2, 5, 0, 3, 5, 7, 9, 4, 1, 2, 4, 8, 3, 10, 6, 2, 2, 9, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		ncol := 1 + int(data[0]%12)
		data = data[1:]
		cost := make([]int, ncol)
		for j := range cost {
			cost[j] = 1
			if j < len(data) {
				cost[j] += int(data[j] % 4)
			}
		}
		data = data[min(ncol, len(data)):]
		var rows [][]int
		for pos := 0; pos < len(data); {
			n := int(data[pos] % 6)
			pos++
			row := []int{}
			for ; n > 0 && pos < len(data); n-- {
				row = append(row, int(data[pos])%ncol)
				pos++
			}
			rows = append(rows, row)
		}
		p := matrix.MustNew(rows, ncol, cost)
		for _, chain := range []bool{true, false} {
			restore := SetZDDChain(chain)
			msg := implicitAgreement(p)
			restore()
			if msg != "" {
				t.Fatalf("chain=%v: %s\nrows=%v cost=%v", chain, msg, p.Rows, p.Cost)
			}
		}
	})
}

func TestImplicitReduceInfeasible(t *testing.T) {
	p := &matrix.Problem{Rows: [][]int{{}, {0}}, NCol: 1, Cost: []int{1}}
	ir := ImplicitReduceBudgetWorkers(p, 100, 100, 0, nil, 1)
	if !ir.Infeasible {
		t.Fatal("empty row not detected in implicit phase")
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	p := randomProblem(rng, 15, 15, 2)
	res := Solve(p, Options{NumIter: 2, Seed: 1})
	if res.Stats.TotalTime <= 0 {
		t.Fatal("total time not measured")
	}
}

func TestPartitionedCore(t *testing.T) {
	// Two disjoint triangles plus one forced column: the components
	// must be solved independently and the bounds combined, certifying
	// the optimum 2 + 2 + 1.
	p := matrix.MustNew([][]int{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
		{6},
	}, 7, nil)
	res := Solve(p, Options{})
	if res.Cost != 5 || !res.ProvedOptimal {
		t.Fatalf("got cost %d optimal=%v, want 5 certified", res.Cost, res.ProvedOptimal)
	}
	// And the same result with partitioning disabled.
	res2 := Solve(p, Options{DisablePartition: true})
	if res2.Cost != 5 {
		t.Fatalf("without partitioning: cost %d", res2.Cost)
	}
}

func TestPartitionAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 60; trial++ {
		// Stitch two independent random blocks into one problem.
		a := randomProblem(rng, 8, 8, 2)
		b := randomProblem(rng, 8, 8, 2)
		rows := append([][]int(nil), a.Rows...)
		for _, r := range b.Rows {
			shifted := make([]int, len(r))
			for k, j := range r {
				shifted[k] = j + a.NCol
			}
			rows = append(rows, shifted)
		}
		cost := append(append([]int(nil), a.Cost...), b.Cost...)
		p := matrix.MustNew(rows, a.NCol+b.NCol, cost)
		want := bnb.Solve(p, bnb.Options{}).Cost
		res := Solve(p, Options{Seed: int64(trial)})
		if res.Cost < want {
			t.Fatalf("trial %d: cost below optimum", trial)
		}
		if res.ProvedOptimal && res.Cost != want {
			t.Fatalf("trial %d: false certificate (%d vs %d)", trial, res.Cost, want)
		}
	}
}
