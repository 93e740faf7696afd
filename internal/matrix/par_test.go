package matrix

import (
	"math/rand"
	"reflect"
	"testing"
)

// sameTracked asserts two tracked reductions are bit-identical:
// essentials, core rows, provenance and flags.
func sameTracked(t *testing.T, label string, got, want *Reduction) {
	t.Helper()
	if got.Infeasible != want.Infeasible || got.Stopped != want.Stopped {
		t.Fatalf("%s: flags differ: got (inf %v, stop %v) want (inf %v, stop %v)",
			label, got.Infeasible, got.Stopped, want.Infeasible, want.Stopped)
	}
	if !reflect.DeepEqual(got.Essential, want.Essential) {
		t.Fatalf("%s: essentials differ: got %v want %v", label, got.Essential, want.Essential)
	}
	if len(got.Core.Rows) != len(want.Core.Rows) {
		t.Fatalf("%s: core sizes differ: got %d want %d", label, len(got.Core.Rows), len(want.Core.Rows))
	}
	for i := range want.Core.Rows {
		g, w := got.Core.Rows[i], want.Core.Rows[i]
		if len(g) == 0 && len(w) == 0 {
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: core row %d differs: got %v want %v", label, i, g, w)
		}
	}
	if !reflect.DeepEqual(got.RowOrigin, want.RowOrigin) {
		t.Fatalf("%s: origins differ: got %v want %v", label, got.RowOrigin, want.RowOrigin)
	}
}

// TestReduceWorkersBitIdentical is the determinism contract of the
// sharded dominance passes: for any worker count the reduction must
// reproduce the sequential one exactly — same essentials, same core,
// same provenance — on sparse rows (density 1/3) and on their
// complements (density 2/3, long rows in few length groups).  The
// shard floor is dropped to 1 so even the small random instances
// genuinely fan out goroutines (the suite runs under -race in
// `make check`).
func TestReduceWorkersBitIdentical(t *testing.T) {
	defer SetParMinShard(1)()
	for _, density := range []string{"sparse", "dense"} {
		t.Run(density, func(t *testing.T) {
			rng := rand.New(rand.NewSource(47))
			for trial := 0; trial < 150; trial++ {
				p := randReduceProblem(rng, 40, 40, 3, trial%7 == 0)
				if density == "dense" {
					for i, r := range p.Rows {
						var c []int
						for j := 0; j < p.NCol; j++ {
							if !containsSorted(r, j) {
								c = append(c, j)
							}
						}
						p.Rows[i] = c
					}
				}
				want := ReduceBudgetWorkers(p, nil, 1)
				for _, workers := range []int{2, 4, 8} {
					got := ReduceBudgetWorkers(p, nil, workers)
					sameTracked(t, density, got, want)
				}
			}
		})
	}
}

// TestReduceWorkersBitIdenticalLarge exercises the production shard
// floor: an instance wide enough that the passes really split without
// any test override.
func TestReduceWorkersBitIdenticalLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	rows := make([][]int, 900)
	for i := range rows {
		n := 2 + rng.Intn(6)
		seen := map[int]bool{}
		for len(rows[i]) < n {
			j := rng.Intn(700)
			if !seen[j] {
				seen[j] = true
				rows[i] = append(rows[i], j)
			}
		}
	}
	cost := make([]int, 700)
	for j := range cost {
		cost[j] = 1 + rng.Intn(3)
	}
	p := MustNew(rows, 700, cost)
	want := ReduceBudgetWorkers(p, nil, 1)
	for _, workers := range []int{2, 4, 8} {
		sameTracked(t, "large", ReduceBudgetWorkers(p, nil, workers), want)
	}
}

// TestParShardPartition: the chunks must cover [0, n) exactly once for
// any worker count, including degenerate ones.
func TestParShardPartition(t *testing.T) {
	defer SetParMinShard(1)()
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, workers := range []int{1, 2, 3, 8, 64} {
			hits := make([]int32, n) // distinct indices: no lock needed
			parShard(n, workers, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
		}
	}
}

// FuzzSignatureSubset cross-checks the signature prune against the
// exact merge test: sigOf must never reject a true subset (a ⊆ b ⇒
// sig(a) &^ sig(b) == 0), so the pruned predicate — reject on a set
// signature bit missing from b, else run the merge — must equal
// isSubsetSorted on every input.
func FuzzSignatureSubset(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{1, 2, 3, 4})
	f.Add([]byte{0, 64, 128}, []byte{0, 64})
	f.Add([]byte{}, []byte{5})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		decode := func(bs []byte) []int {
			seen := map[int]bool{}
			var out []int
			for k, c := range bs {
				if k >= 24 {
					break
				}
				// Spread ids across several multiples of 64 so aliasing
				// (distinct ids, same signature bit) is exercised.
				v := int(c) + (k%3)*256
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
			// Insertion sort keeps the helper dependency-free.
			for i := 1; i < len(out); i++ {
				for j := i; j > 0 && out[j] < out[j-1]; j-- {
					out[j], out[j-1] = out[j-1], out[j]
				}
			}
			return out
		}
		a, b := decode(ab), decode(bb)
		exact := isSubsetSorted(a, b)
		pruned := sigOf(a)&^sigOf(b) == 0 && isSubsetSorted(a, b)
		if exact != pruned {
			t.Fatalf("signature prune disagrees: a=%v b=%v exact=%v pruned=%v", a, b, exact, pruned)
		}
		if exact && sigOf(a)&^sigOf(b) != 0 {
			t.Fatalf("signature rejected a true subset: a=%v b=%v", a, b)
		}
	})
}
