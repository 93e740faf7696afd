package bitmat

import (
	"math/rand"
	"slices"
	"sort"
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

// isZero reports whether no bit of v is set.
func isZero(v Vec) bool {
	for _, w := range v {
		if w != 0 {
			return false
		}
	}
	return true
}

func TestVecOpsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		universe := 1 + rng.Intn(300) // spans 1..5 words incl. partial tails
		set := randSets(rng, 1, universe)[0]
		v := GrowVec(nil, universe)
		in := make([]bool, universe)
		for _, j := range set {
			v.Set(j)
			in[j] = true
		}
		for j := range in {
			if v.Has(j) != in[j] {
				t.Fatalf("has(%d) = %v, want %v", j, v.Has(j), in[j])
			}
		}
		var got []int
		v.Range(func(i int) bool {
			got = append(got, i)
			return true
		})
		want := slices.Clone(set)
		sort.Ints(want)
		if !slices.Equal(got, want) {
			t.Fatalf("range visited %v, want %v", got, want)
		}
		for _, j := range set {
			v.Clear(j)
			if v.Has(j) {
				t.Fatal("clear left the bit set")
			}
		}
		if !isZero(v) {
			t.Fatal("clearing every bit left a set bit")
		}
		v.Set(universe - 1)
		v.Zero()
		if !isZero(v) {
			t.Fatal("zero left a set bit")
		}
	}
}

// TestVecFirstRangeEarlyStop: Range visits the lowest set bit first
// and stops as soon as fn returns false.
func TestVecFirstRangeEarlyStop(t *testing.T) {
	v := GrowVec(nil, 200)
	v.Set(140)
	v.Set(77)
	var visited []int
	v.Range(func(i int) bool {
		visited = append(visited, i)
		return false // stop immediately
	})
	if !slices.Equal(visited, []int{77}) {
		t.Fatalf("range visited %v after stop, want [77]", visited)
	}
}
