package bitmat

import (
	"math"
	"math/rand"
	"testing"
)

// The gather kernels must replay the exact accumulation sequence of
// the naive loops they replace — the engine's bit-identity contract
// rests on it — so every comparison here is on float bits, not values.

func TestGatherSubBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
		k := rng.Intn(2 * n)
		idx32 := make([]int32, k)
		idx := make([]int, k)
		for q := 0; q < k; q++ {
			r := rng.Intn(n)
			idx32[q], idx[q] = int32(r), r
		}
		base := rng.NormFloat64()

		want := base
		for _, i := range idx {
			want -= v[i]
		}
		if got := GatherSub32(base, idx32, v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("GatherSub32 = %x, naive loop = %x", math.Float64bits(got), math.Float64bits(want))
		}
		if got := GatherSub(base, idx, v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("GatherSub = %x, naive loop = %x", math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestGrowVec(t *testing.T) {
	var v Vec
	v = GrowVec(v, 100)
	if len(v) != Words(100) {
		t.Fatalf("len = %d, want %d", len(v), Words(100))
	}
	v.Set(7)
	v.Set(99)
	// Shrinking reuses the backing array and must clear it.
	w := GrowVec(v, 64)
	if &w[0] != &v[0] {
		t.Fatal("GrowVec reallocated although capacity sufficed")
	}
	if !isZero(w) {
		t.Fatal("GrowVec returned a non-zero bitset")
	}
	// Growing past capacity allocates fresh zeros.
	g := GrowVec(w, 1000)
	if len(g) != Words(1000) || !isZero(g) {
		t.Fatal("GrowVec grow path wrong")
	}
}
