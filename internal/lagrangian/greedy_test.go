package lagrangian

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ucp/internal/matrix"
)

// naiveGreedy is the greedy heuristic of §3.5 recounted from scratch
// at every pick: for every column, count the still uncovered rows it
// covers, rate it, and take the minimum under the full order
// (γ, true cost, column id).  It shares no state with the incremental
// kernel, only the definitions the kernel must reproduce bit for bit:
//   - the start set is every non-empty column with c̃_j ≤ 0, listed in
//     ascending id order ahead of the picks;
//   - row i weighs 1/(|row i|−1), or 1e9 when one column covers it,
//     and w_j starts as the sum of its rows' weights in ascending row
//     order;
//   - w_j loses the weight of each of its rows as that row is covered,
//     in cover order: the start set's rows in ascending row order, then
//     each pick's newly covered rows in ascending row order.  The
//     oracle replays that order onto the start value at every pick, so
//     its subtractions come in the kernel's order.
//
// It returns the irredundant cleanup of the cover, or nil when some
// row has no column.
func naiveGreedy(p *matrix.Problem, ctilde []float64, v GammaVariant) []int {
	nr, nc := len(p.Rows), p.NCol
	cols := make([][]int, nc) // rows of column j, ascending
	for i, r := range p.Rows {
		for _, j := range r {
			cols[j] = append(cols[j], i)
		}
	}
	weight := make([]float64, nr)
	for i, r := range p.Rows {
		if len(r) <= 1 {
			weight[i] = 1e9
		} else {
			weight[i] = 1 / float64(len(r)-1)
		}
	}

	covered := make([]bool, nr)
	sol := []int{}
	for j := 0; j < nc; j++ {
		if ctilde[j] <= 0 && len(cols[j]) > 0 {
			sol = append(sol, j)
			for _, i := range cols[j] {
				covered[i] = true
			}
		}
	}
	var coverOrder []int // covered rows in cover order
	for i := 0; i < nr; i++ {
		if covered[i] {
			coverOrder = append(coverOrder, i)
		}
	}

	for len(coverOrder) < nr {
		best, bestGamma := -1, 0.0
		for j := 0; j < nc; j++ {
			n := 0
			for _, i := range cols[j] {
				if !covered[i] {
					n++
				}
			}
			if n == 0 {
				continue
			}
			var gamma float64
			switch v {
			case GammaPerRow:
				gamma = ctilde[j] / float64(n)
			case GammaLog:
				gamma = ctilde[j] / math.Log2(float64(n)+1)
			case GammaRowLog:
				gamma = ctilde[j] / (float64(n) * math.Log2(float64(n)+1))
			case GammaRowImportance:
				w := 0.0
				for _, i := range cols[j] {
					w += weight[i]
				}
				for _, i := range coverOrder {
					if slices.Contains(p.Rows[i], j) {
						w -= weight[i]
					}
				}
				gamma = ctilde[j] / w
			}
			if best < 0 || gamma < bestGamma || gamma == bestGamma &&
				(p.Cost[j] < p.Cost[best] || p.Cost[j] == p.Cost[best] && j < best) {
				best, bestGamma = j, gamma
			}
		}
		if best < 0 {
			return nil
		}
		sol = append(sol, best)
		for _, i := range cols[best] {
			if !covered[i] {
				covered[i] = true
				coverOrder = append(coverOrder, i)
			}
		}
	}
	return p.Irredundant(sol)
}

// checkGreedyMatchesNaive holds both starts of the greedy kernel to
// the oracle for every rating variant: GreedyLagrangian, which replays
// the start columns, and the count-derived start the subgradient
// engine takes, fed the per-row counts of c̃ ≤ 0 columns.  It reports
// whether the instance is infeasible.
func checkGreedyMatchesNaive(t *testing.T, p *matrix.Problem, ctilde []float64, sc *Scratch) bool {
	t.Helper()
	rowCnt := make([]int32, len(p.Rows))
	for i, r := range p.Rows {
		for _, j := range r {
			if ctilde[j] <= 0 {
				rowCnt[i]++
			}
		}
	}
	sc.attach(p)
	infeasible := false
	for v := GammaPerRow; v <= GammaRowImportance; v++ {
		want := naiveGreedy(p, ctilde, v)
		infeasible = want == nil
		got := GreedyLagrangian(p, ctilde, v)
		if (got == nil) != infeasible || !slices.Equal(got, want) {
			t.Fatalf("variant %d: GreedyLagrangian %v, naive %v\nrows %v cost %v c̃ %v", v, got, want, p.Rows, p.Cost, ctilde)
		}
		got = sc.greedySparse(p, ctilde, v, rowCnt)
		if (got == nil) != infeasible || !slices.Equal(got, want) {
			t.Fatalf("variant %d: count-derived start %v, naive %v\nrows %v cost %v c̃ %v", v, got, want, p.Rows, p.Cost, ctilde)
		}
	}
	return infeasible
}

// TestGreedyMatchesNaive runs the oracle check on random instances.
// c̃ comes from a coarse grid with non-positive points, so start sets,
// γ ties and true-cost ties all occur; one instance in eight gets an
// empty row, which no column covers.  One Scratch serves every trial,
// so stale buffers from differently sized instances are exercised.
func TestGreedyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sc := &Scratch{}
	infeasible := 0
	for trial := 0; trial < 400; trial++ {
		nr, nc := 1+rng.Intn(40), 1+rng.Intn(40)
		density := 2 + rng.Intn(6)
		rows := make([][]int, nr)
		for i := range rows {
			for j := 0; j < nc; j++ {
				if rng.Intn(density) == 0 {
					rows[i] = append(rows[i], j)
				}
			}
			if len(rows[i]) == 0 {
				rows[i] = append(rows[i], rng.Intn(nc))
			}
		}
		if rng.Intn(8) == 0 {
			rows[rng.Intn(nr)] = nil
		}
		cost := make([]int, nc)
		ctilde := make([]float64, nc)
		for j := range cost {
			cost[j] = 1 + rng.Intn(3)
			if rng.Intn(2) == 0 {
				ctilde[j] = float64(rng.Intn(12)-3) / 4
			} else {
				ctilde[j] = rng.Float64()*4 - 1
			}
		}
		if checkGreedyMatchesNaive(t, matrix.MustNew(rows, nc, cost), ctilde, sc) {
			infeasible++
		}
	}
	if infeasible == 0 {
		t.Fatal("no trial exercised an uncoverable row")
	}
}

// TestDenseSparseGreedyAgree runs the oracle check on instances of
// density 1/3, the shape a bit-matrix kernel once took in place of the
// sparse one: both start paths of the one kernel must give the naive
// greedy's cover on them too.
func TestDenseSparseGreedyAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sc := &Scratch{}
	for trial := 0; trial < 300; trial++ {
		nr, nc := 1+rng.Intn(40), 1+rng.Intn(40)
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
		ctilde := make([]float64, nc)
		for j := range cost {
			cost[j] = 1 + rng.Intn(4)
			ctilde[j] = rng.Float64()*4 - 1
		}
		if checkGreedyMatchesNaive(t, matrix.MustNew(rows, nc, cost), ctilde, sc) {
			t.Fatalf("trial %d: every row has a column, yet the greedy found no cover", trial)
		}
	}
}

// TestDenseGreedyInfeasible: a row no column covers must yield nil
// from both start paths, for every rating variant.
func TestDenseGreedyInfeasible(t *testing.T) {
	p := &matrix.Problem{Rows: [][]int{{0}, {}}, NCol: 2, Cost: []int{1, 1}}
	ctilde := []float64{1, 1}
	sc := &Scratch{}
	sc.attach(p)
	rowCnt := make([]int32, len(p.Rows))
	for v := GammaPerRow; v <= GammaRowImportance; v++ {
		if got := GreedyLagrangian(p, ctilde, v); got != nil {
			t.Fatalf("variant %d: GreedyLagrangian returned %v on infeasible problem", v, got)
		}
		if got := sc.greedySparse(p, ctilde, v, rowCnt); got != nil {
			t.Fatalf("variant %d: count-derived start returned %v on infeasible problem", v, got)
		}
	}
	if !checkGreedyMatchesNaive(t, p, ctilde, sc) {
		t.Fatal("oracle check did not report the empty row as infeasible")
	}
}

// FuzzGreedyMatchesNaive is the oracle check on instances the fuzzer
// shapes directly.  raw[0] sets the column count; the next byte per
// column gives its true cost (high bits) and its c̃ on a grid of
// quarters from −1 (low bits); every following 4 bytes are one row as a
// column bitmask, so an all-zero mask is an uncoverable row.
func FuzzGreedyMatchesNaive(f *testing.F) {
	f.Add([]byte{3, 0x14, 0x24, 0x38, 0b011, 0, 0, 0, 0b110, 0, 0, 0, 0b101, 0, 0, 0})
	f.Add([]byte{2, 0x08, 0x18, 0b01, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{5, 0x02, 0x15, 0x26, 0x37, 0x04, 0x1f, 0, 0, 0, 0x13, 0, 0, 0, 0x0c, 0, 0, 0, 0x11, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		nc := 1 + int(raw[0])%32
		raw = raw[1:]
		if len(raw) < nc {
			return
		}
		cost := make([]int, nc)
		ctilde := make([]float64, nc)
		for j, b := range raw[:nc] {
			cost[j] = 1 + int(b>>4)%4
			ctilde[j] = float64(int(b&0xf)-4) / 4
		}
		raw = raw[nc:]
		var rows [][]int
		for len(raw) >= 4 && len(rows) < 48 {
			mask := uint32(raw[0]) | uint32(raw[1])<<8 | uint32(raw[2])<<16 | uint32(raw[3])<<24
			raw = raw[4:]
			var r []int
			for j := 0; j < nc; j++ {
				if mask>>j&1 == 1 {
					r = append(r, j)
				}
			}
			rows = append(rows, r)
		}
		checkGreedyMatchesNaive(t, matrix.MustNew(rows, nc, cost), ctilde, &Scratch{})
	})
}
