package matrix

import (
	"math/rand"
	"testing"
)

func checkCSC(t *testing.T, p *Problem) {
	t.Helper()
	start, idx := p.CSC()
	if len(start) != p.NCol+1 {
		t.Fatalf("len(start) = %d, want %d", len(start), p.NCol+1)
	}
	cols := p.ColumnRows()
	if int(start[p.NCol]) != len(idx) {
		t.Fatalf("start[NCol] = %d, want nnz %d", start[p.NCol], len(idx))
	}
	for j := 0; j < p.NCol; j++ {
		got := idx[start[j]:start[j+1]]
		if len(got) != len(cols[j]) {
			t.Fatalf("column %d: %d rows, want %d", j, len(got), len(cols[j]))
		}
		for k, i := range got {
			if int(i) != cols[j][k] {
				t.Fatalf("column %d: row list %v, want %v (ascending)", j, got, cols[j])
			}
		}
	}
}

func TestCSCMatchesColumnRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nr, nc := 1+rng.Intn(30), 1+rng.Intn(30)
		rows := make([][]int, nr)
		cost := make([]int, nc)
		for j := range cost {
			cost[j] = 1 + rng.Intn(9)
		}
		for i := range rows {
			for j := 0; j < nc; j++ {
				if rng.Intn(3) == 0 {
					rows[i] = append(rows[i], j)
				}
			}
		}
		p := &Problem{Rows: rows, NCol: nc, Cost: cost}
		checkCSC(t, p)
		// Cached second call returns the identical slices.
		s1, i1 := p.CSC()
		s2, i2 := p.CSC()
		if &s1[0] != &s2[0] || (len(i1) > 0 && &i1[0] != &i2[0]) {
			t.Fatal("second CSC call rebuilt the index")
		}
	}
}

// TestCSCInvalidatedByReductions checks the cache follows Rows through
// the in-place reduction passes: after a reduction the core's CSC
// must describe the reduced matrix, not the original.
func TestCSCInvalidatedByReductions(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		nr, nc := 8+rng.Intn(12), 8+rng.Intn(12)
		rows := make([][]int, nr)
		cost := make([]int, nc)
		for j := range cost {
			cost[j] = 1 + rng.Intn(4)
		}
		for i := range rows {
			for j := 0; j < nc; j++ {
				// Skewed density produces essential columns, dominated
				// rows and dominated columns — all three in-place edits.
				if rng.Intn(4) != 0 {
					rows[i] = append(rows[i], j)
				}
			}
			if len(rows[i]) == 0 {
				rows[i] = append(rows[i], rng.Intn(nc))
			}
		}
		p := MustNew(rows, nc, cost)
		p.CSC() // populate the cache before the reductions mutate Rows
		red := ReduceBudgetWorkers(p, nil, 1)
		checkCSC(t, red.Core)
	}
}

func TestInvalidateCSC(t *testing.T) {
	p := MustNew([][]int{{0, 1}, {1, 2}}, 3, []int{1, 1, 1})
	checkCSC(t, p)
	p.Rows[0] = []int{0}
	p.InvalidateCSC()
	checkCSC(t, p)
}
