package matrix

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// checkSplitEssentials holds the essential prepass to the fixpoint it
// is the first step of: SplitEssentials followed by a reduction of the
// residual must agree with reducing the whole problem on
// infeasibility, the essentials, the core rows and, mapped to the
// input rows the residual keeps, their origins.
func checkSplitEssentials(t *testing.T, label string, p *Problem) {
	t.Helper()
	ess, rest, infeasible := p.SplitEssentials()
	if !sort.IntsAreSorted(ess) {
		t.Fatalf("%s: essentials %v not ascending", label, ess)
	}
	// kept lists the input rows no essential covers, the rows the
	// residual must hold in order.
	var kept []int
	for i, r := range p.Rows {
		if !slices.ContainsFunc(r, func(j int) bool { _, ok := slices.BinarySearch(ess, j); return ok }) {
			kept = append(kept, i)
		}
	}
	if !infeasible {
		if len(ess) == 0 && rest != p {
			t.Fatalf("%s: no essential, yet the residual is not the problem itself", label)
		}
		if len(kept) != len(rest.Rows) {
			t.Fatalf("%s: %d residual rows, %d input rows no essential covers", label, len(rest.Rows), len(kept))
		}
		for i, r := range rest.Rows {
			if len(r) < 2 {
				t.Fatalf("%s: residual row %d = %v is empty or a singleton", label, i, r)
			}
			if &r[0] != &p.Rows[kept[i]][0] {
				t.Fatalf("%s: residual row %d does not alias input row %d", label, i, kept[i])
			}
		}
	}
	want := ReduceBudgetWorkers(p, nil, 1)
	if infeasible != want.Infeasible {
		t.Fatalf("%s: prepass infeasible %v, fixpoint %v", label, infeasible, want.Infeasible)
	}
	if infeasible {
		return
	}
	got := ReduceBudgetWorkers(rest, nil, 1)
	all := append(append([]int{}, ess...), got.Essential...)
	sort.Ints(all)
	if fmt.Sprint(all) != fmt.Sprint(want.Essential) {
		t.Fatalf("%s: essentials %v (prepass %v), fixpoint %v", label, all, ess, want.Essential)
	}
	if len(got.Core.Rows) != len(want.Core.Rows) {
		t.Fatalf("%s: %d core rows, fixpoint %d", label, len(got.Core.Rows), len(want.Core.Rows))
	}
	for i, r := range want.Core.Rows {
		if !slices.Equal(got.Core.Rows[i], r) {
			t.Fatalf("%s: core row %d = %v, fixpoint %v", label, i, got.Core.Rows[i], r)
		}
		if o := kept[got.RowOrigin[i]]; o != want.RowOrigin[i] {
			t.Fatalf("%s: core row %d from input row %d, fixpoint %d", label, i, o, want.RowOrigin[i])
		}
	}
}

// TestSplitEssentialsMatchesReduce runs the differential check on the
// prepass's edge cases and on random problems seeded with singleton
// and empty rows.
func TestSplitEssentialsMatchesReduce(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows [][]int
		ncol int
	}{
		{"rowless", nil, 3},
		{"empty row", [][]int{{0, 1}, {}, {2}}, 3},
		{"empty row after singletons", [][]int{{2}, {0, 1}, {}}, 3},
		{"duplicate singletons", [][]int{{1}, {1}, {0, 1}, {0, 2}, {2, 3}, {3}, {1}}, 4},
		{"only singletons", [][]int{{2}, {0}, {2}, {4}}, 5},
		{"no singleton", [][]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {0, 3}}, 4},
		{"cascade", [][]int{{0}, {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5}, {2, 4}}, 6},
		{"all covered", [][]int{{0, 1}, {1}, {1, 2}, {2}}, 3},
	} {
		checkSplitEssentials(t, tc.name, MustNew(tc.rows, tc.ncol, nil))
	}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 300; trial++ {
		p := randReduceProblem(rng, 30, 20, 3, trial%7 == 0)
		for k := rng.Intn(6); k > 0; k-- {
			i := rng.Intn(len(p.Rows))
			p.Rows[i] = []int{rng.Intn(p.NCol)}
		}
		checkSplitEssentials(t, fmt.Sprintf("trial %d", trial), p)
	}
}

// TestSplitEssentialsNoSingletonAllocs: without a singleton row the
// prepass is one length scan that returns the problem itself.
func TestSplitEssentialsNoSingletonAllocs(t *testing.T) {
	p := MustNew([][]int{{0, 1}, {1, 2}, {0, 2}}, 3, nil)
	allocs := testing.AllocsPerRun(100, func() {
		if _, rest, _ := p.SplitEssentials(); rest != p {
			t.Fatal("a problem without singleton rows must come back as its own residual")
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per call, want 0", allocs)
	}
}

// FuzzSplitEssentials decodes raw into rows over ncol columns (0xff
// ends a row, so empty rows and singletons are common) and runs the
// prepass-versus-fixpoint differential on it.
func FuzzSplitEssentials(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0xff, 0, 1, 0xff, 1, 2, 0xff, 3})
	f.Add(uint8(3), []byte{0, 1, 0xff, 0xff, 2})
	f.Add(uint8(5), []byte{2, 0xff, 2, 0xff, 4})
	f.Add(uint8(6), []byte{0, 1, 0xff, 1, 2, 0xff, 0, 2, 0xff, 3, 4, 5})
	f.Fuzz(func(t *testing.T, ncol uint8, raw []byte) {
		nc := 1 + int(ncol)%24
		rows := [][]int{{}}
		for _, b := range raw {
			if len(rows) > 40 {
				break
			}
			if b == 0xff {
				rows = append(rows, []int{})
				continue
			}
			rows[len(rows)-1] = append(rows[len(rows)-1], int(b)%nc)
		}
		cost := make([]int, nc)
		for j := range cost {
			cost[j] = 1 + j*7%3
		}
		checkSplitEssentials(t, "fuzz", MustNew(rows, nc, cost))
	})
}
