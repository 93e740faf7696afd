package bnb

import (
	"math"
	"math/rand"
	"testing"

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

func bruteForce(p *matrix.Problem) int {
	active := p.ActiveCols()
	best := math.MaxInt
	for mask := 0; mask < 1<<len(active); mask++ {
		var cols []int
		for b, j := range active {
			if mask>>b&1 == 1 {
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

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		p := randomProblem(rng, 9, 9, 4)
		want := bruteForce(p)
		res := Solve(p, Options{})
		if !res.Optimal {
			t.Fatalf("trial %d: not optimal without node cap", trial)
		}
		if res.Solution == nil {
			t.Fatalf("trial %d: no solution on feasible problem", trial)
		}
		if !p.IsCover(res.Solution) {
			t.Fatalf("trial %d: solution is not a cover", trial)
		}
		if res.Cost != want {
			t.Fatalf("trial %d: cost %d, brute force %d\nrows=%v cost=%v sol=%v",
				trial, res.Cost, want, p.Rows, p.Cost, res.Solution)
		}
	}
}

func TestSolveUniformCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng, 10, 10, 1)
		want := bruteForce(p)
		res := Solve(p, Options{})
		if res.Cost != want {
			t.Fatalf("trial %d: cost %d, want %d", trial, res.Cost, want)
		}
	}
}

func TestSolveInfeasible(t *testing.T) {
	p := &matrix.Problem{Rows: [][]int{{}}, NCol: 1, Cost: []int{1}}
	res := Solve(p, Options{})
	if res.Solution != nil {
		t.Fatal("infeasible problem returned a solution")
	}
}

// TestVerifyCoverPanicsOnNonCover: the incumbent check must fire on
// every instance, including one too small for a bit-matrix.
func TestVerifyCoverPanicsOnNonCover(t *testing.T) {
	p := matrix.MustNew([][]int{{0}, {1}, {2}}, 3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("verifyCover accepted a non-cover of a 3-row problem")
		}
	}()
	verifyCover(p, []int{0, 1})
}

func TestSolveEmpty(t *testing.T) {
	p := matrix.MustNew(nil, 3, nil)
	res := Solve(p, Options{})
	if res.Cost != 0 || !res.Optimal || res.Solution == nil || len(res.Solution) != 0 {
		t.Fatalf("empty problem: %+v", res)
	}
}

func TestInitialUBDoesNotBreakOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng, 8, 8, 3)
		want := bruteForce(p)
		res := Solve(p, Options{InitialUB: want}) // tight bound
		if res.Cost != want || res.Solution == nil {
			t.Fatalf("trial %d: with tight UB got %d want %d", trial, res.Cost, want)
		}
		res2 := Solve(p, Options{InitialUB: want + 2})
		if res2.Cost != want {
			t.Fatalf("trial %d: with loose UB got %d want %d", trial, res2.Cost, want)
		}
	}
}

func TestAblationsStillExact(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 150; trial++ {
		p := randomProblem(rng, 8, 8, 3)
		want := bruteForce(p)
		for _, opt := range []Options{
			{DisableLimitBound: true},
			{DisablePartition: true},
			{DisableLimitBound: true, DisablePartition: true},
		} {
			res := Solve(p, opt)
			if res.Cost != want {
				t.Fatalf("trial %d opts %+v: cost %d want %d", trial, opt, res.Cost, want)
			}
		}
	}
}

func TestMaxNodesCapsSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	// A biggish random instance to make the cap bite.
	p := randomProblem(rng, 40, 40, 1)
	res := Solve(p, Options{MaxNodes: 3})
	if res.Optimal && res.Nodes > 3 {
		t.Fatal("node cap exceeded while claiming optimality")
	}
	if res.Nodes == 0 {
		t.Fatal("no nodes counted")
	}
}

func TestPartitionedProblem(t *testing.T) {
	// Two disjoint triangles: optimum is 2+2 with unit costs.
	p := matrix.MustNew([][]int{
		{0, 1}, {1, 2}, {0, 2},
		{3, 4}, {4, 5}, {3, 5},
	}, 6, nil)
	res := Solve(p, Options{})
	if res.Cost != 4 {
		t.Fatalf("cost = %d, want 4", res.Cost)
	}
}

func TestTranspositionDifferential(t *testing.T) {
	// TT on vs off must agree on the optimum cost, optimality, and
	// cover validity on every instance; the TT may return a different
	// (equally optimal) cover, and must never visit more nodes.
	rng := rand.New(rand.NewSource(99))
	hits := int64(0)
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng, 12, 12, 3)
		if trial%10 == 0 {
			// Mix in repeated-structure instances, where the table
			// actually fires (random soup rarely repeats a core).
			p = isoBlocks(int64(trial), 2+trial%3, 12, 9, 3)
		}
		on := Solve(p, Options{})
		off := Solve(p, Options{DisableTT: true})
		if on.Optimal != off.Optimal || on.Cost != off.Cost {
			t.Fatalf("trial %d: TT changed the optimum: on=(%d,%v) off=(%d,%v)",
				trial, on.Cost, on.Optimal, off.Cost, off.Optimal)
		}
		if (on.Solution == nil) != (off.Solution == nil) {
			t.Fatalf("trial %d: TT changed feasibility", trial)
		}
		if on.Solution != nil {
			if !p.IsCover(on.Solution) || p.CostOf(on.Solution) != on.Cost {
				t.Fatalf("trial %d: TT solution invalid", trial)
			}
		}
		if on.Nodes > off.Nodes {
			t.Fatalf("trial %d: TT increased nodes: %d > %d", trial, on.Nodes, off.Nodes)
		}
		if off.TTHits != 0 || off.TTStores != 0 {
			t.Fatalf("trial %d: DisableTT still counted TT activity", trial)
		}
		hits += on.TTHits
	}
	if hits == 0 {
		t.Fatal("transposition table never hit across 300 random instances")
	}
}

func TestTranspositionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := randomProblem(rng, 12, 12, 3)
		a := Solve(p, Options{})
		b := Solve(p, Options{})
		if a.Cost != b.Cost || a.Nodes != b.Nodes || a.TTHits != b.TTHits {
			t.Fatalf("trial %d: repeated solves differ", trial)
		}
		if len(a.Solution) != len(b.Solution) {
			t.Fatalf("trial %d: solutions differ", trial)
		}
		for i := range a.Solution {
			if a.Solution[i] != b.Solution[i] {
				t.Fatalf("trial %d: solutions differ at %d", trial, i)
			}
		}
	}
}
