package matrix

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// bruteForce returns the optimal cover cost of p by exhaustive search
// over column subsets, or -1 when no cover exists.  Only usable for
// small column counts.
func bruteForce(p *Problem) int {
	active := p.ActiveCols()
	best := -1
	for mask := 0; mask < 1<<len(active); mask++ {
		var cols []int
		for b, j := range active {
			if mask>>b&1 == 1 {
				cols = append(cols, j)
			}
		}
		if !p.IsCover(cols) {
			continue
		}
		c := p.CostOf(cols)
		if best < 0 || c < best {
			best = c
		}
	}
	return best
}

func randomProblem(rng *rand.Rand, maxRows, maxCols int) *Problem {
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
		cost[j] = 1 + rng.Intn(4)
	}
	return MustNew(rows, nc, cost)
}

func TestNewValidation(t *testing.T) {
	if _, err := New([][]int{{0, 5}}, 3, nil); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, err := New([][]int{{0}}, 2, []int{1}); err == nil {
		t.Fatal("short cost vector accepted")
	}
	if _, err := New([][]int{{0}}, 1, []int{-2}); err == nil {
		t.Fatal("negative cost accepted")
	}
	p := MustNew([][]int{{2, 0, 2, 1}}, 3, nil)
	if len(p.Rows[0]) != 3 || p.Rows[0][0] != 0 || p.Rows[0][2] != 2 {
		t.Fatalf("row not sorted/deduped: %v", p.Rows[0])
	}
}

func TestIsCoverAndCost(t *testing.T) {
	p := MustNew([][]int{{0, 1}, {1, 2}, {0, 2}}, 3, []int{2, 3, 4})
	if p.IsCover([]int{0}) {
		t.Fatal("partial cover accepted")
	}
	if !p.IsCover([]int{0, 1}) {
		t.Fatal("valid cover rejected")
	}
	if p.CostOf([]int{0, 2}) != 6 {
		t.Fatal("cost wrong")
	}
}

func TestReduceEssential(t *testing.T) {
	// Row {1} forces column 1; the rows containing 1 then vanish.
	p := MustNew([][]int{{1}, {1, 2}, {0, 2}}, 3, nil)
	r := ReduceBudgetWorkers(p, nil, 1)
	if r.Infeasible {
		t.Fatal("feasible problem reported infeasible")
	}
	// Column 1 is essential; the remaining row {0,2} collapses by
	// column dominance (equal coverage and cost keeps the smaller id),
	// making column 0 essential in the next pass.
	if len(r.Essential) != 2 || r.Essential[0] != 0 || r.Essential[1] != 1 {
		t.Fatalf("essential = %v", r.Essential)
	}
	if len(r.Core.Rows) != 0 {
		t.Fatalf("core should be empty, has %d rows", len(r.Core.Rows))
	}
}

func TestReduceInfeasible(t *testing.T) {
	p := &Problem{Rows: [][]int{{}}, NCol: 2, Cost: []int{1, 1}}
	r := ReduceBudgetWorkers(p, nil, 1)
	if !r.Infeasible {
		t.Fatal("empty row not flagged infeasible")
	}
}

func TestReducePreservesOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng, 7, 7)
		want := bruteForce(p)
		r := ReduceBudgetWorkers(p, nil, 1)
		if r.Infeasible {
			t.Fatalf("trial %d: random problem infeasible", trial)
		}
		got := p.CostOf(r.Essential)
		if bf := bruteForce(r.Core); bf >= 0 {
			got += bf
		} else if len(r.Core.Rows) > 0 {
			t.Fatalf("trial %d: core unsolvable", trial)
		}
		if got != want {
			t.Fatalf("trial %d: reduced optimum %d, original %d\nrows=%v cost=%v ess=%v core=%v",
				trial, got, want, p.Rows, p.Cost, r.Essential, r.Core.Rows)
		}
	}
}

func TestCyclicCoreIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		p := randomProblem(rng, 8, 8)
		r := ReduceBudgetWorkers(p, nil, 1)
		r2 := ReduceBudgetWorkers(r.Core, nil, 1)
		if len(r2.Essential) != 0 {
			t.Fatalf("trial %d: core not stable, found essentials %v", trial, r2.Essential)
		}
		if len(r2.Core.Rows) != len(r.Core.Rows) {
			t.Fatalf("trial %d: core shrank on second reduction", trial)
		}
	}
}

func TestIrredundant(t *testing.T) {
	p := MustNew([][]int{{0, 1}, {1, 2}, {2, 3}}, 4, []int{1, 1, 1, 5})
	// {0,1,2,3} is redundant: {1,2} suffices.
	sol := p.Irredundant([]int{0, 1, 2, 3})
	if !p.IsCover(sol) {
		t.Fatal("irredundant result is not a cover")
	}
	if len(sol) != 2 {
		t.Fatalf("sol = %v, want 2 columns", sol)
	}
	for _, j := range sol {
		if j == 3 {
			t.Fatal("highest-cost redundant column kept")
		}
	}
}

func TestIrredundantProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		p := randomProblem(rng, 8, 8)
		all := p.ActiveCols()
		// Repeated entries own no rows, so they must go too.
		for k := 0; k < 3 && len(all) > 0; k++ {
			all = append(all, all[rng.Intn(len(all))])
		}
		sol := p.Irredundant(all)
		if !p.IsCover(sol) {
			t.Fatalf("trial %d: not a cover", trial)
		}
		// No column of sol may be removable.
		for k := range sol {
			rest := append(append([]int(nil), sol[:k]...), sol[k+1:]...)
			if p.IsCover(rest) {
				t.Fatalf("trial %d: solution still redundant: %v", trial, sol)
			}
		}
	}
}

func TestFixAndRemoveColumn(t *testing.T) {
	p := MustNew([][]int{{0, 1}, {1, 2}, {2}}, 3, nil)
	q := p.FixColumn(1)
	if len(q.Rows) != 1 || q.Rows[0][0] != 2 {
		t.Fatalf("FixColumn rows = %v", q.Rows)
	}
	r := p.RemoveColumn(1)
	if len(r.Rows) != 3 {
		t.Fatal("RemoveColumn dropped rows")
	}
	if len(r.Rows[0]) != 1 || r.Rows[0][0] != 0 {
		t.Fatalf("RemoveColumn row 0 = %v", r.Rows[0])
	}
}

func TestComponents(t *testing.T) {
	p := MustNew([][]int{{0, 1}, {1, 2}, {3, 4}, {4}}, 5, nil)
	comps := Components(p)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if len(comps[0].RowIdx) != 2 || comps[0].RowIdx[0] != 0 {
		t.Fatalf("component 0 rows = %v", comps[0].RowIdx)
	}
	if len(comps[1].RowIdx) != 2 || comps[1].RowIdx[0] != 2 {
		t.Fatalf("component 1 rows = %v", comps[1].RowIdx)
	}
}

func TestComponentsSolveIndependently(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 100; trial++ {
		p := randomProblem(rng, 8, 8)
		whole := bruteForce(p)
		sum := 0
		for _, c := range Components(p) {
			sum += bruteForce(c.Problem)
		}
		if sum != whole {
			t.Fatalf("trial %d: component sum %d != whole %d", trial, sum, whole)
		}
	}
}

func TestCompact(t *testing.T) {
	p := MustNew([][]int{{2, 7}, {7, 9}}, 10, nil)
	q, ids := p.Compact()
	if q.NCol != 3 {
		t.Fatalf("compact NCol = %d", q.NCol)
	}
	want := []int{2, 7, 9}
	for k, j := range want {
		if ids[k] != j {
			t.Fatalf("ids = %v", ids)
		}
	}
	if q.Rows[0][0] != 0 || q.Rows[0][1] != 1 || q.Rows[1][1] != 2 {
		t.Fatalf("compact rows = %v", q.Rows)
	}
}

func TestMISBoundValid(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng, 8, 8)
		lb, rows := MISBound(p)
		if !IndependentRows(p, rows) {
			t.Fatalf("trial %d: MIS rows not independent", trial)
		}
		opt := bruteForce(p)
		if lb > opt {
			t.Fatalf("trial %d: MIS bound %d exceeds optimum %d", trial, lb, opt)
		}
	}
}

func TestMISBoundExact(t *testing.T) {
	// Three pairwise disjoint rows: bound = sum of cheapest columns.
	p := MustNew([][]int{{0, 1}, {2, 3}, {4}}, 5, []int{3, 1, 2, 2, 7})
	lb, rows := MISBound(p)
	if lb != 1+2+7 {
		t.Fatalf("lb = %d, want 10", lb)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestQuickReduceNeverRaisesOptimum(t *testing.T) {
	// Property: reduction plus brute force of the core equals brute
	// force of the original, for arbitrary small matrices.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 6, 6)
		r := ReduceBudgetWorkers(p, nil, 1)
		got := p.CostOf(r.Essential)
		if len(r.Core.Rows) > 0 {
			got += bruteForce(r.Core)
		}
		return got == bruteForce(p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestActiveColsSorted(t *testing.T) {
	p := MustNew([][]int{{9, 1}, {4}}, 10, nil)
	got := p.ActiveCols()
	if !sort.IntsAreSorted(got) || len(got) != 3 {
		t.Fatalf("ActiveCols = %v", got)
	}
}

func TestReduceTrackedProvenance(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(rng, 9, 9)
		tr := ReduceBudgetWorkers(p, nil, 1)
		if tr.Infeasible {
			continue
		}
		if len(tr.RowOrigin) != len(tr.Core.Rows) {
			t.Fatalf("trial %d: %d origins for %d core rows", trial, len(tr.RowOrigin), len(tr.Core.Rows))
		}
		seen := map[int]bool{}
		for i, o := range tr.RowOrigin {
			if o < 0 || o >= len(p.Rows) {
				t.Fatalf("trial %d: origin %d out of range", trial, o)
			}
			if seen[o] {
				t.Fatalf("trial %d: origin %d repeated", trial, o)
			}
			seen[o] = true
			// A core row must be a sub-row of its origin (columns may
			// have been removed by dominance, never added).
			if !isSubsetSorted(tr.Core.Rows[i], p.Rows[o]) {
				t.Fatalf("trial %d: core row %v not within origin %v", trial, tr.Core.Rows[i], p.Rows[o])
			}
		}
	}
}

func TestFixColumnTracked(t *testing.T) {
	p := MustNew([][]int{{0, 1}, {1, 2}, {2}}, 3, nil)
	q, kept := p.FixColumnTracked(1)
	if len(q.Rows) != 1 || len(kept) != 1 || kept[0] != 2 {
		t.Fatalf("rows=%v kept=%v", q.Rows, kept)
	}
}
