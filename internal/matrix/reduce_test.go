package matrix

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
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

// TestReduceOriginValid: the core must be an equivalent problem —
// every original row either was solved by an essential or descends to
// a core row that is a subset of it.
func TestReduceOriginValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
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

// naiveReduction is what naiveReduce finds: the fields of a
// Reduction.
type naiveReduction struct {
	infeasible bool
	ess        []int
	rows       [][]int
	origin     []int
}

// naiveReduce is the reference for the reduction fixpoint: the same
// passes in the same order (empty-row check, singleton essentials, row
// dominance, column dominance) until a round changes nothing, written
// with plain set membership — no signatures, no hashing, no sharding.
// Row b dies when an earlier row in (length, index) order is a subset
// of it.  Column k dies when some j ≠ k with cost_j ≤ cost_k covers
// every row k covers, unless rows and costs are equal and j > k.
func naiveReduce(p *Problem) naiveReduction {
	var res naiveReduction
	subset := func(a, b []int) bool {
		in := make(map[int]bool, len(b))
		for _, x := range b {
			in[x] = true
		}
		for _, x := range a {
			if !in[x] {
				return false
			}
		}
		return true
	}
	rows := make([][]int, len(p.Rows))
	origin := make([]int, len(p.Rows))
	for i, r := range p.Rows {
		rows[i], origin[i] = slices.Clone(r), i
	}
	keepRows := func(drop func(i int) bool) {
		var kr [][]int
		var ko []int
		for i := range rows {
			if !drop(i) {
				kr, ko = append(kr, rows[i]), append(ko, origin[i])
			}
		}
		rows, origin = kr, ko
	}
	isEss := make([]bool, p.NCol)
	for changed := true; changed; {
		changed = false
		for _, r := range rows {
			if len(r) == 0 {
				res.infeasible = true
				return res
			}
		}

		for _, r := range rows {
			if len(r) == 1 && !isEss[r[0]] {
				isEss[r[0]] = true
				res.ess = append(res.ess, r[0])
				changed = true
			}
		}
		keepRows(func(i int) bool { return slices.ContainsFunc(rows[i], func(j int) bool { return isEss[j] }) })

		order := make([]int, len(rows))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool { return len(rows[order[x]]) < len(rows[order[y]]) })
		killed := make([]bool, len(rows))
		for pos, b := range order {
			killed[b] = slices.ContainsFunc(order[:pos], func(a int) bool { return subset(rows[a], rows[b]) })
			changed = changed || killed[b]
		}
		keepRows(func(i int) bool { return killed[i] })

		colRows := make([][]int, p.NCol)
		for i, r := range rows {
			for _, j := range r {
				colRows[j] = append(colRows[j], i)
			}
		}
		dead := make([]bool, p.NCol)
		for k, rk := range colRows {
			if len(rk) == 0 {
				continue
			}
			for j, rj := range colRows {
				if j == k || p.Cost[j] > p.Cost[k] || !subset(rk, rj) {
					continue
				}
				if len(rj) == len(rk) && p.Cost[j] == p.Cost[k] && j > k {
					continue
				}
				dead[k] = true
				changed = true
				break
			}
		}
		for i, r := range rows {
			rows[i] = slices.DeleteFunc(r, func(j int) bool { return dead[j] })
		}
	}
	sort.Ints(res.ess)
	res.rows, res.origin = rows, origin
	return res
}

// checkReduceMatchesNaive holds the reduction at each worker count to
// naiveReduce: infeasibility, sorted essentials, core rows and row
// origins.
func checkReduceMatchesNaive(t *testing.T, label string, p *Problem) {
	t.Helper()
	want := naiveReduce(p)
	for _, workers := range []int{1, 2, 4, 8} {
		got := ReduceBudgetWorkers(p, nil, workers)
		tag := fmt.Sprintf("%s workers=%d", label, workers)
		if got.Infeasible != want.infeasible {
			t.Fatalf("%s: infeasible %v, naive %v\nrows=%v", tag, got.Infeasible, want.infeasible, p.Rows)
		}
		if want.infeasible {
			continue
		}
		switch {
		case !slices.Equal(got.Essential, want.ess):
			t.Fatalf("%s: essentials %v, naive %v\nrows=%v cost=%v", tag, got.Essential, want.ess, p.Rows, p.Cost)
		case !slices.EqualFunc(got.Core.Rows, want.rows, slices.Equal[[]int]):
			t.Fatalf("%s: core %v, naive %v\nrows=%v cost=%v", tag, got.Core.Rows, want.rows, p.Rows, p.Cost)
		case !slices.Equal(got.RowOrigin, want.origin):
			t.Fatalf("%s: origins %v, naive %v\nrows=%v cost=%v", tag, got.RowOrigin, want.origin, p.Rows, p.Cost)
		}
	}
}

// randDupProblem draws a problem rich in what the row-dominance pass
// handles apart from the subset scan: copies of earlier rows, whole
// length groups, an empty row in one problem of eight, and costs of 1
// or 2, so that columns tie often.
func randDupProblem(rng *rand.Rand) *Problem {
	nc := 1 + rng.Intn(12)
	groupLen := 1 + rng.Intn(nc)
	var rows [][]int
	for i := 1 + rng.Intn(30); i > 0; i-- {
		switch x := rng.Intn(10); {
		case x < 3 && len(rows) > 0:
			rows = append(rows, slices.Clone(rows[rng.Intn(len(rows))]))
		case x < 6:
			rows = append(rows, rng.Perm(nc)[:groupLen])
		default:
			var r []int
			for j := 0; j < nc; j++ {
				if rng.Intn(3) == 0 {
					r = append(r, j)
				}
			}
			if len(r) == 0 {
				r = append(r, rng.Intn(nc))
			}
			rows = append(rows, r)
		}
	}
	if rng.Intn(8) == 0 {
		rows = append(rows, nil)
	}
	cost := make([]int, nc)
	for j := range cost {
		cost[j] = 1 + rng.Intn(2)
	}
	return MustNew(rows, nc, cost)
}

// TestReduceMatchesNaive is the reduction fixpoint's oracle, with the
// shard floor at 1 so every worker count really fans out.
func TestReduceMatchesNaive(t *testing.T) {
	defer SetParMinShard(1)()
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 600; trial++ {
		checkReduceMatchesNaive(t, fmt.Sprintf("trial %d", trial), randDupProblem(rng))
	}
}

// FuzzReduceMatchesNaive runs the oracle on arbitrary small matrices.
// The first byte picks the column count (1–12), the next ones the
// costs (1–3), and the rest decodes to rows of 0–5 column ids.
func FuzzReduceMatchesNaive(f *testing.F) {
	f.Add([]byte{5, 1, 1, 1, 1, 1, 2, 0, 1, 2, 1, 2, 2, 0, 1, 2, 2, 3})
	f.Add([]byte{4, 1, 2, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 1, 2, 3, 2, 0, 1, 2, 2, 3})
	f.Add([]byte{3, 1, 1, 1, 1, 0, 0, 2, 1, 2, 2, 2, 1})
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
				cost[j] += int(data[j] % 3)
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
		defer SetParMinShard(1)()
		checkReduceMatchesNaive(t, "fuzz", MustNew(rows, ncol, cost))
	})
}
