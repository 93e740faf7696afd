package matrix

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkSplitParts holds the one-pass split to what it replaces:
// Partition (one part for a connected or rowless problem) followed by
// SplitEssentials on every part.  They must agree on the part count
// and order, each part's essentials and its residual rows in order,
// and infeasibility, which puts each empty row in a part of its own.
func checkSplitParts(t *testing.T, label string, p *Problem) {
	t.Helper()
	s := p.SplitParts()
	comps := Partition(p)
	if comps == nil {
		comps = []Component{{Problem: p}}
	}
	if s.NCol != p.NCol || s.NRows != len(p.Rows) || s.NParts != len(comps) {
		t.Fatalf("%s: split has %d cols, %d rows, %d parts; want %d, %d, %d",
			label, s.NCol, s.NRows, s.NParts, p.NCol, len(p.Rows), len(comps))
	}
	if !slices.IsSorted(s.Ess) || len(s.EssPart) != len(s.Ess) || len(s.RestPart) != len(s.Rest) {
		t.Fatalf("%s: malformed split %+v", label, s)
	}
	gotEss, gotRest := s.Bucket()
	for k, c := range comps {
		ess, rest, _, infeasible := c.Problem.SplitEssentials()
		empty := slices.ContainsFunc(gotRest[k].Rows, func(r []int) bool { return len(r) == 0 })
		if empty != infeasible {
			t.Fatalf("%s: part %d holds an empty row %v, prepass infeasible %v", label, k, empty, infeasible)
		}
		if infeasible && (len(c.Problem.Rows) != 1 || len(gotRest[k].Rows) != 1) {
			t.Fatalf("%s: empty-row part %d is %v, split residual %v", label, k, c.Problem.Rows, gotRest[k].Rows)
		}
		if fmt.Sprint(gotEss[k]) != fmt.Sprint(ess) {
			t.Fatalf("%s: part %d essentials %v, prepass %v", label, k, gotEss[k], ess)
		}
		if fmt.Sprint(gotRest[k].Rows) != fmt.Sprint(rest.Rows) {
			t.Fatalf("%s: part %d residual %v, prepass %v", label, k, gotRest[k].Rows, rest.Rows)
		}
		if gotRest[k].NCol != p.NCol || &gotRest[k].Cost[0] != &p.Cost[0] {
			t.Fatalf("%s: part %d is not over the problem's columns", label, k)
		}
	}
}

// randSplitProblem draws a problem of many small parts: rows of zero
// to three columns over a wide universe, some of them singletons that
// repeat an earlier row's column.
func randSplitProblem(rng *rand.Rand) *Problem {
	nc := 1 + rng.Intn(40)
	rows := make([][]int, rng.Intn(30))
	for i := range rows {
		switch k := rng.Intn(10); {
		case k == 0 && rng.Intn(4) == 0:
			// an empty row
		case k <= 2 && i > 0 && len(rows[i-1]) > 0:
			rows[i] = []int{rows[i-1][rng.Intn(len(rows[i-1]))]} // a duplicate or covered singleton
		default:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				rows[i] = append(rows[i], rng.Intn(nc))
			}
		}
	}
	cost := make([]int, nc)
	for j := range cost {
		cost[j] = 1 + rng.Intn(3)
	}
	return MustNew(rows, nc, cost)
}

// TestSplitPartsMatchesPartition runs the differential check on edge
// cases and on random problems of many parts.
func TestSplitPartsMatchesPartition(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows [][]int
		ncol int
	}{
		{"rowless", nil, 3},
		{"empty row between parts", [][]int{{0, 1}, {}, {2}, {1}}, 3},
		{"empty rows only", [][]int{{}, {}}, 2},
		{"duplicate singletons", [][]int{{1}, {1}, {0, 1}, {2, 3}, {3}, {1}}, 4},
		{"connected", [][]int{{0, 1}, {1, 2}, {0, 2}}, 3},
		// {0, 1} and {0, 2} join 1 and 2 through the essential 0, so the
		// residual {1, 2}'s part is the whole problem's.
		{"joined through an essential", [][]int{{3, 4}, {0, 1}, {0}, {0, 2}, {1, 2}}, 5},
		{"settled part", [][]int{{4, 5}, {0}, {0, 1}, {2, 3}, {5, 6}}, 7},
	} {
		checkSplitParts(t, tc.name, MustNew(tc.rows, tc.ncol, nil))
	}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 500; trial++ {
		checkSplitParts(t, fmt.Sprintf("trial %d", trial), randSplitProblem(rng))
	}
}

// FuzzSplitParts decodes raw into rows over ncol columns (0xff ends a
// row, so empty rows and singletons are common, and a wide universe
// leaves many parts) and runs the split-versus-partition differential.
func FuzzSplitParts(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0xff, 0, 1, 0xff, 1, 2, 0xff, 3})
	f.Add(uint8(3), []byte{0, 1, 0xff, 0xff, 2})
	f.Add(uint8(30), []byte{2, 0xff, 2, 0xff, 4, 9, 0xff, 17, 0xff, 0xff, 9, 12})
	f.Add(uint8(6), []byte{3, 4, 0xff, 0, 1, 0xff, 0, 0xff, 0, 2, 0xff, 1, 2})
	f.Fuzz(func(t *testing.T, ncol uint8, raw []byte) {
		nc := 1 + int(ncol)%48
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
		checkSplitParts(t, "fuzz", MustNew(rows, nc, cost))
	})
}
