package matrix

import (
	"math/rand"
	"reflect"
	"testing"
)

func randReduceProblem(rng *rand.Rand, maxRows, maxCols, maxCost int, allowEmpty bool) *Problem {
	nr := 1 + rng.Intn(maxRows)
	nc := 1 + rng.Intn(maxCols)
	rows := make([][]int, nr)
	for i := range rows {
		for j := 0; j < nc; j++ {
			if rng.Intn(3) == 0 {
				rows[i] = append(rows[i], j)
			}
		}
		if len(rows[i]) == 0 && !allowEmpty {
			rows[i] = append(rows[i], rng.Intn(nc))
		}
	}
	cost := make([]int, nc)
	for j := range cost {
		cost[j] = 1 + rng.Intn(maxCost)
	}
	p := &Problem{Rows: rows, NCol: nc, Cost: cost}
	return p
}

// TestDenseSparseReductionsAgree is the differential contract of the
// two reduction engines: on any instance they must produce the exact
// same essentials, core rows and row provenance — they are one
// algorithm in two data layouts.
func TestDenseSparseReductionsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		p := randReduceProblem(rng, 30, 30, 3, trial%5 == 0)

		restore := SetReduceEngine("sparse")
		want := ReduceBudgetWorkers(p, nil, 1)
		restore()

		restore = SetReduceEngine("dense")
		got := ReduceBudgetWorkers(p, nil, 1)
		restore()

		if got.Infeasible != want.Infeasible {
			t.Fatalf("trial %d: infeasibility disagreement (dense %v, sparse %v)",
				trial, got.Infeasible, want.Infeasible)
		}
		if !reflect.DeepEqual(got.Essential, want.Essential) {
			t.Fatalf("trial %d: essentials differ: dense %v sparse %v", trial, got.Essential, want.Essential)
		}
		if len(got.Core.Rows) != len(want.Core.Rows) {
			t.Fatalf("trial %d: core sizes differ: dense %d sparse %d",
				trial, len(got.Core.Rows), len(want.Core.Rows))
		}
		for i := range want.Core.Rows {
			g, w := got.Core.Rows[i], want.Core.Rows[i]
			if len(g) == 0 && len(w) == 0 {
				continue // nil vs empty slice are the same row
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("trial %d row %d: dense %v sparse %v", trial, i, g, w)
			}
		}
		if !reflect.DeepEqual(got.RowOrigin, want.RowOrigin) {
			t.Fatalf("trial %d: row origins differ: dense %v sparse %v", trial, got.RowOrigin, want.RowOrigin)
		}
	}
}

// TestDenseReductionPreservesOptimumInvariants: the dense core must be
// an equivalent problem — every original row either was solved by an
// essential or descends to a core row that is a subset of it.
func TestDenseReductionOriginValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	restore := SetReduceEngine("dense")
	defer restore()
	for trial := 0; trial < 200; trial++ {
		p := randReduceProblem(rng, 25, 25, 3, false)
		red := ReduceBudgetWorkers(p, nil, 1)
		if red.Infeasible {
			continue
		}
		if len(red.RowOrigin) != len(red.Core.Rows) {
			t.Fatalf("trial %d: origin length mismatch", trial)
		}
		for i, o := range red.RowOrigin {
			if o < 0 || o >= len(p.Rows) {
				t.Fatalf("trial %d: origin %d out of range", trial, o)
			}
			if !isSubsetSorted(red.Core.Rows[i], p.Rows[o]) {
				t.Fatalf("trial %d: core row %v not a subset of its origin %v",
					trial, red.Core.Rows[i], p.Rows[o])
			}
		}
	}
}

func TestDenseEligibleThresholds(t *testing.T) {
	// A mid-size, reasonably dense instance qualifies.
	rng := rand.New(rand.NewSource(43))
	p := randReduceProblem(rng, 200, 100, 1, false)
	for len(p.Rows) < denseMinRows {
		p.Rows = append(p.Rows, []int{0})
	}
	if !DenseEligible(p) {
		t.Fatal("mid-size dense instance rejected")
	}
	// An ultra-sparse, very wide matrix must stay sparse: one element
	// per row over a huge universe.
	wide := &Problem{NCol: 100000, Cost: make([]int, 100000)}
	for i := 0; i < 5000; i++ {
		wide.Rows = append(wide.Rows, []int{i * 17 % 100000})
	}
	if DenseEligible(wide) {
		t.Fatal("ultra-sparse wide matrix accepted")
	}
	// Degenerate sizes.
	if DenseEligible(&Problem{NCol: 4, Cost: []int{1, 1, 1, 1}}) {
		t.Fatal("empty problem accepted")
	}
}
