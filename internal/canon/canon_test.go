package canon

import (
	"math/rand"
	"slices"
	"testing"

	"ucp/internal/matrix"
)

// mustProblem builds a problem, failing the test on malformed input.
func mustProblem(t *testing.T, rows [][]int, cost []int) *matrix.Problem {
	t.Helper()
	p, err := matrix.New(rows, len(cost), cost)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	return p
}

// permuteProblem relabels columns by colPerm (old id → new id) and
// shuffles the row order, yielding an isomorphic instance.
func permuteProblem(p *matrix.Problem, colPerm []int, rng *rand.Rand) *matrix.Problem {
	rows := make([][]int, len(p.Rows))
	for i, r := range p.Rows {
		rr := make([]int, len(r))
		for t, j := range r {
			rr[t] = colPerm[j]
		}
		slices.Sort(rr)
		rows[i] = rr
	}
	rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
	cost := make([]int, p.NCol)
	for j, c := range p.Cost {
		cost[colPerm[j]] = c
	}
	q, err := matrix.New(rows, p.NCol, cost)
	if err != nil {
		panic(err)
	}
	return q
}

func randPerm(n int, rng *rand.Rand) []int { return rng.Perm(n) }

func TestCanonicalizePermutationInvariant(t *testing.T) {
	cases := []struct {
		name string
		rows [][]int
		cost []int
	}{
		{"varied", [][]int{{0, 1}, {1, 2, 3}, {0, 3}, {2}}, []int{1, 2, 3, 4}},
		// A bipartite 4-cycle with unit costs: colour refinement alone
		// cannot separate the columns, so this exercises the
		// individualisation search.
		{"cycle4", [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, []int{1, 1, 1, 1}},
		// Twin columns and twin rows.
		{"twins", [][]int{{0, 1, 2}, {0, 1, 2}, {3, 4}, {3, 4}}, []int{2, 2, 2, 5, 5}},
		// Two disjoint cycles of different lengths.
		{"cycles46", [][]int{
			{0, 1}, {1, 2}, {2, 3}, {3, 0},
			{4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 4},
		}, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := mustProblem(t, tc.rows, tc.cost)
			c0 := Canonicalize(p)
			if !c0.Exact {
				t.Fatalf("expected exact canonicalisation for %s", tc.name)
			}
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 20; trial++ {
				q := permuteProblem(p, randPerm(p.NCol, rng), rng)
				cq := Canonicalize(q)
				if !cq.Exact {
					t.Fatalf("trial %d: permuted copy not exact", trial)
				}
				if cq.FP != c0.FP {
					t.Fatalf("trial %d: fingerprint changed under permutation: %v vs %v", trial, cq.FP, c0.FP)
				}
				if !slices.Equal(cq.Serial(), c0.Serial()) {
					t.Fatalf("trial %d: canonical serials differ", trial)
				}
			}
		})
	}
}

func TestCanonicalizeDistinguishes(t *testing.T) {
	p1 := mustProblem(t, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, []int{1, 1, 1, 1})
	// One 8-cycle vs two 4-cycles: same degrees everywhere, different
	// structure.
	p2 := mustProblem(t, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}, []int{1, 1, 1, 1, 1})
	if Canonicalize(p1).FP == Canonicalize(p2).FP {
		t.Fatal("structurally distinct problems share a fingerprint")
	}
	// Cost changes must change the fingerprint.
	p3 := mustProblem(t, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, []int{1, 1, 1, 2})
	if Canonicalize(p1).FP == Canonicalize(p3).FP {
		t.Fatal("cost change did not change the fingerprint")
	}
}

func TestCanonicalizeInactiveColumnsIgnored(t *testing.T) {
	p1 := mustProblem(t, [][]int{{0, 2}, {2}}, []int{1, 7, 3})
	p2 := mustProblem(t, [][]int{{0, 1}, {1}}, []int{1, 3})
	c1, c2 := Canonicalize(p1), Canonicalize(p2)
	if c1.FP != c2.FP {
		t.Fatal("instances differing only in inactive columns should share a fingerprint")
	}
	if c1.NCols != 2 || len(c1.ColPerm) != 2 {
		t.Fatalf("NCols=%d len(ColPerm)=%d, want 2", c1.NCols, len(c1.ColPerm))
	}
}

func TestCanonicalColPermRoundTrip(t *testing.T) {
	p := mustProblem(t, [][]int{{0, 1}, {1, 2, 3}, {0, 3}, {2}}, []int{1, 2, 3, 4})
	c := Canonicalize(p)
	inv := c.InverseCol(p.NCol)
	for k, j := range c.ColPerm {
		if inv[j] != int32(k) {
			t.Fatalf("InverseCol mismatch at canonical %d / original %d", k, j)
		}
	}
	// Translating a solution original→canonical→original must be the
	// identity.
	sol := []int{0, 2, 3}
	for _, j := range sol {
		if got := c.ColPerm[inv[j]]; got != j {
			t.Fatalf("round trip %d → %d", j, got)
		}
	}
}

func TestSubFingerprintRowOrderInvariant(t *testing.T) {
	p := mustProblem(t, [][]int{{0, 1}, {1, 2, 3}, {0, 3}, {2}}, []int{1, 2, 3, 4})
	fp := SubFingerprint(p)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		rows := make([][]int, len(p.Rows))
		copy(rows, p.Rows)
		rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
		q := mustProblem(t, rows, p.Cost)
		if SubFingerprint(q) != fp {
			t.Fatalf("trial %d: SubFingerprint changed under row reorder", trial)
		}
	}
	// Column ids matter (it is a label-space hash).
	q := mustProblem(t, [][]int{{0, 2}, {1, 2, 3}, {0, 3}, {2}}, []int{1, 2, 3, 4})
	if SubFingerprint(q) == fp {
		t.Fatal("distinct structure shares a SubFingerprint")
	}
}

func TestDeriveChangesFingerprint(t *testing.T) {
	fp := Fingerprint{Hi: 3, Lo: 9}
	if fp.Derive(1) == fp || fp.Derive(1) == fp.Derive(2) {
		t.Fatal("Derive must separate salts")
	}
	if fp.Derive(1) != fp.Derive(1) {
		t.Fatal("Derive must be deterministic")
	}
	if !(Fingerprint{}).IsZero() || fp.IsZero() {
		t.Fatal("IsZero sentinel broken")
	}
}

// decodeFuzzProblem builds a small problem deterministically from fuzz
// bytes: nothing here may panic for any input.
func decodeFuzzProblem(data []byte) *matrix.Problem {
	if len(data) < 4 {
		return nil
	}
	ncol := int(data[0]%6) + 1
	nrow := int(data[1]%6) + 1
	cost := make([]int, ncol)
	for j := range cost {
		cost[j] = int(data[2+(j%2)]%9) + 1
	}
	rows := make([][]int, 0, nrow)
	pos := 4
	for i := 0; i < nrow; i++ {
		var r []int
		seen := make(map[int]bool)
		for t := 0; t < 3; t++ {
			if pos >= len(data) {
				break
			}
			j := int(data[pos]) % ncol
			pos++
			if !seen[j] {
				seen[j] = true
				r = append(r, j)
			}
		}
		if len(r) == 0 {
			r = []int{i % ncol}
		}
		slices.Sort(r)
		rows = append(rows, r)
	}
	p, err := matrix.New(rows, ncol, cost)
	if err != nil {
		return nil
	}
	return p
}

// FuzzCanonFingerprint checks, for random instances, that (a) random
// row/column permutations fingerprint identically when the search is
// exact, and (b) fingerprint equality between mutated variants implies
// exact canonical-form equality — i.e. no structural false positives
// hide behind the hash.
func FuzzCanonFingerprint(f *testing.F) {
	f.Add([]byte{4, 4, 1, 2, 0, 1, 1, 2, 2, 3, 3, 0}, int64(1))
	f.Add([]byte{2, 2, 1, 1, 0, 1, 1, 0}, int64(7))
	f.Add([]byte{5, 3, 2, 4, 0, 1, 2, 3, 4, 0, 2, 4}, int64(99))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		p := decodeFuzzProblem(data)
		if p == nil {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		c0 := Canonicalize(p)

		// Permutation invariance.
		q := permuteProblem(p, randPerm(p.NCol, rng), rng)
		cq := Canonicalize(q)
		if c0.Exact && cq.Exact {
			if cq.FP != c0.FP {
				t.Fatalf("fingerprint not permutation invariant")
			}
			if !slices.Equal(cq.Serial(), c0.Serial()) {
				t.Fatalf("canonical serials differ for isomorphic instances")
			}
		}

		// Collision cross-check: perturb a cost; if fingerprints
		// collide the canonical serials must still be equal.
		cost2 := append([]int(nil), p.Cost...)
		cost2[int(data[0])%len(cost2)] += 1 + int(seed&3)
		p2, err := matrix.New(p.Rows, p.NCol, cost2)
		if err != nil {
			t.Fatalf("NewProblem on perturbed costs: %v", err)
		}
		c2 := Canonicalize(p2)
		if c2.FP == c0.FP && !slices.Equal(c2.Serial(), c0.Serial()) {
			t.Fatalf("fingerprint collision between distinct canonical forms")
		}

		// The canonical solution-translation contract: every canonical
		// index maps to an active original column and back.
		inv := c0.InverseCol(p.NCol)
		for k, j := range c0.ColPerm {
			if j < 0 || j >= p.NCol || inv[j] != int32(k) {
				t.Fatalf("ColPerm/InverseCol inconsistent")
			}
		}
	})
}

// TestLabelFingerprint: an equal copy shares the label fingerprint, a
// row swap, a column relabelling or a cost change does not, and the
// hash allocates nothing.
func TestLabelFingerprint(t *testing.T) {
	rows := [][]int{{0, 1}, {1, 2, 3}, {0, 3}, {2, 4}}
	cost := []int{1, 2, 3, 4, 5}
	p := mustProblem(t, rows, cost)
	fp := LabelFingerprint(p)
	if got := LabelFingerprint(mustProblem(t, rows, slices.Clone(cost))); got != fp {
		t.Fatalf("equal copy: %v vs %v", got, fp)
	}
	swapped := slices.Clone(rows)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	cost2 := slices.Clone(cost)
	cost2[4]++
	for name, q := range map[string]*matrix.Problem{
		"row swap":    mustProblem(t, swapped, cost),
		"relabelled":  permuteProblem(p, []int{1, 0, 2, 3, 4}, rand.New(rand.NewSource(1))),
		"cost change": mustProblem(t, rows, cost2),
		"wider":       &matrix.Problem{Rows: p.Rows, NCol: 6, Cost: append(slices.Clone(cost), 1)},
	} {
		if LabelFingerprint(q) == fp {
			t.Fatalf("%s: shares the fingerprint of the original", name)
		}
	}
	if n := testing.AllocsPerRun(100, func() { LabelFingerprint(p) }); n != 0 {
		t.Fatalf("%v allocs per call, want 0", n)
	}
}
