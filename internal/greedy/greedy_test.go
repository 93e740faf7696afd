package greedy

import (
	"errors"
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

func TestGreedyCoversAndIsIrredundant(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng, 10, 10, 4)
		sol, _, err := Solve(p, nil)
		if err != nil {
			t.Fatalf("trial %d: greedy failed on feasible problem: %v", trial, err)
		}
		if !p.IsCover(sol) {
			t.Fatalf("trial %d: not a cover", trial)
		}
		for k := range sol {
			rest := append(append([]int(nil), sol[:k]...), sol[k+1:]...)
			if p.IsCover(rest) {
				t.Fatalf("trial %d: redundant column", trial)
			}
		}
	}
}

func TestGreedyInfeasible(t *testing.T) {
	p := &matrix.Problem{Rows: [][]int{{}}, NCol: 1, Cost: []int{1}}
	sol, _, err := Solve(p, nil)
	if !errors.Is(err, matrix.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if sol != nil {
		t.Fatal("greedy returned a cover for an uncoverable row")
	}
}

// TestGreedyApproximationRatio checks Chvátal's H_n guarantee: the
// greedy cost is at most H(max row frequency per column)·opt; we use
// the weaker but simple H(#rows) bound.
func TestGreedyApproximationRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng, 9, 9, 3)
		sol, _, _ := Solve(p, nil)
		opt := bruteForce(p)
		h := 0.0
		for k := 1; k <= len(p.Rows); k++ {
			h += 1 / float64(k)
		}
		if float64(p.CostOf(sol)) > h*float64(opt)+1e-9 {
			t.Fatalf("trial %d: greedy %d exceeds H_n bound %v (opt %d)",
				trial, p.CostOf(sol), h*float64(opt), opt)
		}
	}
}

func TestGreedyPicksRatioNotCost(t *testing.T) {
	// Column 2 covers both rows at cost 3 (ratio 1.5); columns 0 and 1
	// cover one row each at cost 1 (ratio 1).  Greedy takes the unit
	// columns and wins here.
	p := matrix.MustNew([][]int{{0, 2}, {1, 2}}, 3, []int{1, 1, 3})
	sol, _, _ := Solve(p, nil)
	if p.CostOf(sol) != 2 {
		t.Fatalf("cost = %d, want 2 (sol %v)", p.CostOf(sol), sol)
	}
}
