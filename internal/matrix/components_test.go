package matrix

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// TestComponentsEmptyRows: a row with no columns is uncoverable but
// must still surface as its own singleton component at its canonical
// position, so a partitioned solve reports infeasibility at the same
// fold step as the whole-problem solve.
func TestComponentsEmptyRows(t *testing.T) {
	p := MustNew([][]int{{0, 1}, {}, {1, 2}, {}}, 3, nil)
	comps := Components(p)
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	if !reflect.DeepEqual(comps[0].RowIdx, []int{0, 2}) {
		t.Fatalf("component 0 rows = %v, want [0 2]", comps[0].RowIdx)
	}
	if !reflect.DeepEqual(comps[1].RowIdx, []int{1}) {
		t.Fatalf("component 1 rows = %v, want [1]", comps[1].RowIdx)
	}
	if !reflect.DeepEqual(comps[2].RowIdx, []int{3}) {
		t.Fatalf("component 2 rows = %v, want [3]", comps[2].RowIdx)
	}
	if len(comps[1].Problem.Rows[0]) != 0 {
		t.Fatal("empty row lost its emptiness")
	}
	// A problem that is nothing but empty rows: one component per row.
	q := MustNew([][]int{{}, {}, {}}, 2, nil)
	if got := Components(q); len(got) != 3 {
		t.Fatalf("all-empty problem: %d components, want 3", len(got))
	}
}

// TestComponentsSingletonColumns: rows covered by pairwise-distinct
// single columns never connect — n rows, n components, in row order.
func TestComponentsSingletonColumns(t *testing.T) {
	rows := [][]int{{3}, {0}, {4}, {1}, {2}}
	p := MustNew(rows, 5, nil)
	comps := Components(p)
	if len(comps) != len(rows) {
		t.Fatalf("got %d components, want %d", len(comps), len(rows))
	}
	for i, c := range comps {
		if !reflect.DeepEqual(c.RowIdx, []int{i}) {
			t.Fatalf("component %d rows = %v, want [%d]", i, c.RowIdx, i)
		}
		if !reflect.DeepEqual(c.Problem.Rows[0], rows[i]) {
			t.Fatalf("component %d kept row %v, want %v", i, c.Problem.Rows[0], rows[i])
		}
	}
	// The same rows sharing one column collapse to a single component,
	// which Partition reports as "connected" (nil).
	for i := range rows {
		rows[i] = append(rows[i], 4)
	}
	q := MustNew(rows, 5, nil)
	if got := Components(q); len(got) != 1 {
		t.Fatalf("shared column: %d components, want 1", len(got))
	}
	if Partition(q) != nil {
		t.Fatal("Partition of a connected problem should be nil")
	}
}

// TestComponentsFullyConnected: a dense instance is one component, and
// Partition avoids materialising it.
func TestComponentsFullyConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(rng, 12, 9)
	// Chain every row through column 0 so the instance is connected no
	// matter what the generator produced.
	for i := range p.Rows {
		p.Rows[i] = append([]int{}, p.Rows[i]...)
		p.Rows[i] = append(p.Rows[i], 0)
		sort.Ints(p.Rows[i])
	}
	p = MustNew(p.Rows, p.NCol, p.Cost)
	comps := Components(p)
	if len(comps) != 1 {
		t.Fatalf("got %d components, want 1", len(comps))
	}
	if len(comps[0].Problem.Rows) != len(p.Rows) {
		t.Fatalf("component kept %d rows, want %d", len(comps[0].Problem.Rows), len(p.Rows))
	}
	if Partition(p) != nil {
		t.Fatal("Partition of a fully connected problem should be nil")
	}
}

// TestComponentsPermutationDeterminism: permuting rows permutes the
// decomposition but never changes the component row-sets, and the
// canonical order (ascending smallest row index, rows in input order
// inside each component) is always honoured.
func TestComponentsPermutationDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		p := randomProblem(rng, 10, 12)
		base := Components(p)

		perm := rng.Perm(len(p.Rows))
		rows := make([][]int, len(p.Rows))
		for i, pi := range perm {
			rows[pi] = p.Rows[i] // row i moves to position perm[i]
		}
		q := MustNew(rows, p.NCol, p.Cost)
		permuted := Components(q)
		if len(base) != len(permuted) {
			t.Fatalf("trial %d: %d components before, %d after permutation", trial, len(base), len(permuted))
		}

		// Components as sets of original row ids must be identical.
		canon := func(comps []Component, back func(int) int) []string {
			keys := make([]string, len(comps))
			for k, c := range comps {
				ids := make([]int, len(c.RowIdx))
				for t, i := range c.RowIdx {
					ids[t] = back(i)
				}
				sort.Ints(ids)
				keys[k] = intsKey(ids)
			}
			sort.Strings(keys)
			return keys
		}
		inv := make([]int, len(perm))
		for i, pi := range perm {
			inv[pi] = i
		}
		before := canon(base, func(i int) int { return i })
		after := canon(permuted, func(i int) int { return inv[i] })
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("trial %d: component row-sets changed under permutation\nbefore %v\nafter  %v", trial, before, after)
		}

		// Canonical order invariants on both decompositions.
		for _, comps := range [][]Component{base, permuted} {
			prevMin := -1
			for k, c := range comps {
				if !sort.IntsAreSorted(c.RowIdx) {
					t.Fatalf("trial %d: component %d rows out of input order: %v", trial, k, c.RowIdx)
				}
				if c.RowIdx[0] <= prevMin {
					t.Fatalf("trial %d: component %d first row %d not after previous %d", trial, k, c.RowIdx[0], prevMin)
				}
				prevMin = c.RowIdx[0]
			}
		}
	}
}

func intsKey(ids []int) string {
	b := make([]byte, 0, len(ids)*3)
	for _, v := range ids {
		b = append(b, byte(v), ',')
	}
	return string(b)
}

// sortsToCompact reports whether CompactSparse takes its sort path on
// p: its nonzeros span more than 64 × nnz columns.
func sortsToCompact(p *Problem) bool {
	lo, hi := p.NCol, -1
	for _, r := range p.Rows {
		for _, j := range r {
			lo, hi = min(lo, j), max(hi, j)
		}
	}
	return hi-lo+1 > 64*p.NNZ()
}

// TestCompactSparseMatchesCompact: the sparse compaction must be
// bit-identical to Compact — the partition-first pipeline and the
// sharded driver both rely on it — on both of its paths: the bitmap
// over a span of at most 64 × nnz columns, and the sort beyond it.
// Parts of a wide universe, rows left empty and a rowless problem are
// among the inputs.
func TestCompactSparseMatchesCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const wide = 1 << 16
	wideCost := make([]int, wide)
	for j := range wideCost {
		wideCost[j] = 1 + rng.Intn(9)
	}
	probs := []*Problem{
		MustNew(nil, 5, nil),
		MustNew([][]int{{}, {}}, 5, nil),
		MustNew([][]int{{0, wide - 1}}, wide, wideCost),
		MustNew([][]int{{3}, {}, {70, 200}, {3, 4000}}, wide, wideCost),
	}
	for trial := 0; trial < 50; trial++ {
		probs = append(probs, randomProblem(rng, 8, 20))
	}
	for trial := 0; trial < 100; trial++ {
		// A few rows, some empty, clustered at a random base within 64
		// columns or spread over the whole universe.
		spread := 64
		if trial%2 == 1 {
			spread = wide
		}
		base := rng.Intn(wide - spread + 1)
		rows := make([][]int, 1+rng.Intn(6))
		for i := range rows {
			for k := rng.Intn(4); k > 0; k-- {
				rows[i] = append(rows[i], base+rng.Intn(spread))
			}
		}
		probs = append(probs, MustNew(rows, wide, wideCost))
	}
	var paths [2]int
	for trial, p := range probs {
		q1, ids1 := p.Compact()
		q2, ids2 := p.CompactSparse()
		if !reflect.DeepEqual(ids1, ids2) {
			t.Fatalf("trial %d: active cols %v != %v", trial, ids2, ids1)
		}
		if !reflect.DeepEqual(q1.Rows, q2.Rows) || q1.NCol != q2.NCol || !reflect.DeepEqual(q1.Cost, q2.Cost) {
			t.Fatalf("trial %d: compact problems differ: %+v != %+v", trial, q2, q1)
		}
		if sortsToCompact(p) {
			paths[1]++
		} else {
			paths[0]++
		}
	}
	if paths[0] == 0 || paths[1] == 0 {
		t.Fatalf("%d inputs took the bitmap and %d the sort; want both", paths[0], paths[1])
	}
}

// TestCompactSparseScratchIgnoresNCol: compacting a few nonzeros of a
// 2²⁴-column universe allocates under 64 KiB on either path, where
// Compact's universe-wide table alone takes 64 MiB.
func TestCompactSparseScratchIgnoresNCol(t *testing.T) {
	const ncol = 1 << 24
	cost := make([]int, ncol)
	cost[0], cost[ncol-1], cost[ncol/2] = 3, 5, 7
	for _, tc := range []struct {
		rows [][]int
		ids  []int
	}{
		{[][]int{{0, ncol - 1}, {}, {ncol - 1}}, []int{0, ncol - 1}},
		{[][]int{{ncol / 2, ncol/2 + 9}, {ncol/2 + 1}}, []int{ncol / 2, ncol/2 + 1, ncol/2 + 9}},
	} {
		p := &Problem{Rows: tc.rows, NCol: ncol, Cost: cost}
		q, ids := p.CompactSparse()
		if !reflect.DeepEqual(ids, tc.ids) || q.NCol != len(tc.ids) {
			t.Fatalf("%v: active columns %v, want %v", tc.rows, ids, tc.ids)
		}
		for k, j := range ids {
			if q.Cost[k] != cost[j] {
				t.Fatalf("%v: compact cost %v", tc.rows, q.Cost)
			}
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			p.CompactSparse()
		}
		runtime.ReadMemStats(&after)
		if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= 64<<10 {
			t.Fatalf("%v: CompactSparse allocates %d bytes per call", tc.rows, perCall)
		}
	}
}

// componentsBFS is the oracle for Components: a breadth-first search
// over rows, two rows adjacent when they share a column, started from
// each unvisited row in index order.  It returns each component's
// sorted row indices.
func componentsBFS(p *Problem) [][]int {
	colRows := p.ColumnRows()
	seen := make([]bool, len(p.Rows))
	var out [][]int
	for s := range p.Rows {
		if seen[s] {
			continue
		}
		seen[s] = true
		comp := []int{s}
		for q := 0; q < len(comp); q++ {
			for _, j := range p.Rows[comp[q]] {
				for _, i := range colRows[j] {
					if !seen[i] {
						seen[i] = true
						comp = append(comp, i)
					}
				}
			}
		}
		sort.Ints(comp)
		out = append(out, comp)
	}
	return out
}

// TestComponentsMatchesBFS: Components finds the oracle's parts in the
// oracle's order with the same RowIdx, each part's rows alias the
// input's, and Partition is nil exactly when there is at most one part.
func TestComponentsMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	problems := []*Problem{
		MustNew(nil, 0, nil),
		MustNew(nil, 4, nil),
		MustNew([][]int{{}, {}}, 2, nil),
		MustNew([][]int{{0, 1}, {}, {1, 2}, {3}, {}, {3, 4}, {5}}, 6, nil),
	}
	for trial := 0; trial < 200; trial++ {
		nr, nc := rng.Intn(40), 1+rng.Intn(30)
		rows := make([][]int, nr)
		for i := range rows {
			for k := rng.Intn(4); k > 0; k-- { // 0 to 3 columns: empty rows and singletons are common
				rows[i] = append(rows[i], rng.Intn(nc))
			}
		}
		problems = append(problems, MustNew(rows, nc, nil))
	}
	for n, p := range problems {
		want := componentsBFS(p)
		got := Components(p)
		if len(got) != len(want) {
			t.Fatalf("problem %d: %d components, oracle %d", n, len(got), len(want))
		}
		for k, c := range got {
			if !reflect.DeepEqual(c.RowIdx, want[k]) {
				t.Fatalf("problem %d: component %d rows %v, oracle %v", n, k, c.RowIdx, want[k])
			}
			if c.Problem.NCol != p.NCol || len(c.Problem.Rows) != len(c.RowIdx) {
				t.Fatalf("problem %d: component %d has %d rows over %d columns", n, k, len(c.Problem.Rows), c.Problem.NCol)
			}
			for t2, i := range c.RowIdx {
				r := c.Problem.Rows[t2]
				if len(r) != len(p.Rows[i]) || (len(r) > 0 && &r[0] != &p.Rows[i][0]) {
					t.Fatalf("problem %d: component %d row %d does not alias input row %d", n, k, t2, i)
				}
			}
		}
		if split := Partition(p); (split == nil) != (len(want) <= 1) || (split != nil && len(split) != len(got)) {
			t.Fatalf("problem %d: Partition gave %d parts for %d components", n, len(split), len(want))
		}
	}
}
