package bitmat

import (
	"math/rand"
	"testing"
)

func randSets(rng *rand.Rand, n, universe int) [][]int {
	out := make([][]int, n)
	for i := range out {
		seen := make(map[int]bool)
		for k := 0; k < rng.Intn(universe+1); k++ {
			j := rng.Intn(universe)
			if !seen[j] {
				seen[j] = true
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

func naiveSubset(a, b []int) bool {
	in := make(map[int]bool)
	for _, j := range b {
		in[j] = true
	}
	for _, j := range a {
		if !in[j] {
			return false
		}
	}
	return true
}

// build loads a sparse row list into a fresh matrix.
func build(rows [][]int, ncols int) *Matrix {
	m := New(len(rows), ncols)
	for i, r := range rows {
		for _, j := range r {
			m.SetBit(i, j)
		}
	}
	return m
}

func TestVecOpsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		universe := 1 + rng.Intn(300) // spans 1..5 words incl. partial tails
		sets := randSets(rng, 2, universe)
		a, b := GrowVec(nil, universe), GrowVec(nil, universe)
		for _, j := range sets[0] {
			a.Set(j)
		}
		for _, j := range sets[1] {
			b.Set(j)
		}
		subset := naiveSubset(sets[0], sets[1])
		if got := a.SubsetOf(b); got != subset {
			t.Fatalf("subset %v != %v (%v vs %v)", got, subset, sets[0], sets[1])
		}
		if subset && a.Fold()&^b.Fold() != 0 {
			t.Fatalf("fold signature rejects a true subset (%v vs %v)", sets[0], sets[1])
		}
		var bitsOut []int
		bitsOut = a.Bits(bitsOut[:0])
		if len(bitsOut) != len(sets[0]) {
			t.Fatalf("bits returned %d indices, want %d", len(bitsOut), len(sets[0]))
		}
		for k := 1; k < len(bitsOut); k++ {
			if bitsOut[k-1] >= bitsOut[k] {
				t.Fatal("bits not ascending")
			}
		}
		for _, j := range sets[0] {
			a.Clear(j)
			if a.Has(j) {
				t.Fatal("clear left the bit set")
			}
		}
		if a.First() != -1 {
			t.Fatal("clearing every bit left a set bit")
		}
	}
}

func TestVecFirstRangeEarlyStop(t *testing.T) {
	v := GrowVec(nil, 200)
	if v.First() != -1 {
		t.Fatal("empty vec has a first bit")
	}
	v.Set(77)
	v.Set(140)
	if v.First() != 77 {
		t.Fatalf("first = %d", v.First())
	}
	count := 0
	v.Range(func(i int) bool {
		count++
		return false // stop immediately
	})
	if count != 1 {
		t.Fatalf("range visited %d bits after stop", count)
	}
}

func TestMatrixViewsStayInSync(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		nr, nc := 1+rng.Intn(80), 1+rng.Intn(130)
		rows := randSets(rng, nr, nc)
		m := build(rows, nc)
		check := func() {
			for i := 0; i < nr; i++ {
				for j := 0; j < nc; j++ {
					if m.Row(i).Has(j) != m.Col(j).Has(i) {
						t.Fatalf("orientation mismatch at (%d,%d)", i, j)
					}
				}
			}
		}
		check()
		// Kill a few random rows and columns; views must stay in sync.
		for k := 0; k < 5; k++ {
			if rng.Intn(2) == 0 {
				m.KillRow(rng.Intn(nr))
			} else {
				m.KillCol(rng.Intn(nc))
			}
		}
		check()
	}
}
