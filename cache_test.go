package ucp

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ucp/internal/benchmarks"
)

// permuteCovering relabels the columns of p by colPerm (old id → new
// id) and shuffles its rows: an isomorphic instance under different
// labels, which the cache must treat as a different problem.
func permuteCovering(t *testing.T, p *Problem, colPerm []int, rng *rand.Rand) *Problem {
	t.Helper()
	rows := make([][]int, len(p.Rows))
	for i, r := range p.Rows {
		nr := make([]int, len(r))
		for k, j := range r {
			nr[k] = colPerm[j]
		}
		rows[i] = nr
	}
	rng.Shuffle(len(rows), func(a, b int) { rows[a], rows[b] = rows[b], rows[a] })
	cost := make([]int, p.NCol)
	for j, c := range p.Cost {
		cost[colPerm[j]] = c
	}
	q, err := NewProblem(rows, p.NCol, cost)
	if err != nil {
		t.Fatalf("permuted problem: %v", err)
	}
	return q
}

// scgComparable strips the fields exempt from the bit-identity
// contract: timings, and the cache counters that by construction
// differ between a computed and a served result.
func scgComparable(r *SCGResult) SCGResult {
	c := *r
	c.Stats.CyclicCoreTime = 0
	c.Stats.TotalTime = 0
	c.Stats.CacheHits = 0
	c.Stats.CacheMisses = 0
	return c
}

// TestCacheDifferentialSCG checks the heart of the memoization
// contract: for every worker count, a cache-served solve is
// bit-identical (Solution, Cost, LB, ProvedOptimal, Stats) to the
// uncached solve, both on the first (miss) and second (hit) encounter.
func TestCacheDifferentialSCG(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 12; trial++ {
		p := benchmarks.RandomCovering(rng.Int63(), 20+rng.Intn(30), 15+rng.Intn(25), 0.12, 4)
		for _, workers := range []int{1, 2, 4, 8} {
			opt := SCGOptions{Seed: int64(trial + 1), NumIter: 2, Workers: workers}
			ref := SolveSCG(p, opt)

			cached := opt
			cached.Cache = NewCache(64, 0) // admit everything
			first := SolveSCG(p, cached)
			second := SolveSCG(p, cached)

			if first.Stats.CacheMisses != 1 || first.Stats.CacheHits != 0 {
				t.Fatalf("trial %d w=%d: first solve hits=%d misses=%d",
					trial, workers, first.Stats.CacheHits, first.Stats.CacheMisses)
			}
			if second.Stats.CacheHits != 1 {
				t.Fatalf("trial %d w=%d: second solve not served from cache", trial, workers)
			}
			want := scgComparable(ref)
			for name, got := range map[string]*SCGResult{"miss": first, "hit": second} {
				if g := scgComparable(got); !equalSCG(&g, &want) {
					t.Fatalf("trial %d w=%d: %s result differs from uncached:\n got %+v\nwant %+v",
						trial, workers, name, g, want)
				}
			}
		}
	}
}

func equalSCG(a, b *SCGResult) bool {
	if a.Cost != b.Cost || a.LB != b.LB || a.ProvedOptimal != b.ProvedOptimal ||
		a.Interrupted != b.Interrupted || a.StopReason != b.StopReason || a.Stats != b.Stats {
		return false
	}
	if len(a.Solution) != len(b.Solution) {
		return false
	}
	for i := range a.Solution {
		if a.Solution[i] != b.Solution[i] {
			return false
		}
	}
	return true
}

// TestCachePermutedSCG: a row and column permutation of a cached
// problem is a different input to the solver, which is not
// label-invariant, so it must miss and return exactly what an uncached
// solve of the permuted input returns (Solution, Cost, LB, Stats).
// The instances are the solve service's miss shape.
func TestCachePermutedSCG(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	opt := SCGOptions{Seed: 1, NumIter: 2}
	cached := opt
	cached.Cache = NewCache(256, 0) // admit everything
	for i := 0; i < 12; i++ {
		p := benchmarks.CyclicCovering(1_000_000+int64(i), 90, 60, 4)
		SolveSCG(p, cached)
		for k := 0; k < 3; k++ {
			q := permuteCovering(t, p, rng.Perm(p.NCol), rng)
			got := SolveSCG(q, cached)
			if got.Stats.CacheHits != 0 || got.Stats.CacheMisses != 1 {
				t.Fatalf("instance %d perm %d: hits=%d misses=%d, want a miss",
					i, k, got.Stats.CacheHits, got.Stats.CacheMisses)
			}
			g, want := scgComparable(got), scgComparable(SolveSCG(q, opt))
			if !equalSCG(&g, &want) {
				t.Fatalf("instance %d perm %d: cached result differs from uncached:\n got %+v\nwant %+v",
					i, k, g, want)
			}
		}
	}
}

// TestCacheDifferentialExact does the same for the exact solver, and
// additionally checks that a column-permuted, row-shuffled relabeling
// of a cached instance misses and gets what an uncached solve of it
// gets.
func TestCacheDifferentialExact(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	for trial := 0; trial < 12; trial++ {
		p := benchmarks.RandomCovering(rng.Int63(), 12+rng.Intn(12), 10+rng.Intn(10), 0.2, 3)
		ref := SolveExact(p, ExactOptions{})

		cache := NewCache(64, 0)
		first := SolveExact(p, ExactOptions{Cache: cache})
		second := SolveExact(p, ExactOptions{Cache: cache})
		if first.CacheHit {
			t.Fatalf("trial %d: first solve claims a cache hit", trial)
		}
		if !second.CacheHit {
			t.Fatalf("trial %d: second solve not served from cache", trial)
		}
		for name, got := range map[string]*ExactResult{"miss": first, "hit": second} {
			if got.Cost != ref.Cost || got.Optimal != ref.Optimal || got.LB != ref.LB {
				t.Fatalf("trial %d: %s result differs: got cost %d opt %v lb %d, want %d %v %d",
					trial, name, got.Cost, got.Optimal, got.LB, ref.Cost, ref.Optimal, ref.LB)
			}
		}
		if ref.Solution != nil && !equalInts(first.Solution, ref.Solution) {
			t.Fatalf("trial %d: miss solution differs from uncached", trial)
		}

		// A relabeling is another problem: it misses, and its result
		// is the uncached solve's.
		q := permuteCovering(t, p, rng.Perm(p.NCol), rng)
		pr := SolveExact(q, ExactOptions{Cache: cache})
		want := SolveExact(q, ExactOptions{})
		if pr.CacheHit {
			t.Fatalf("trial %d: the permuted instance hit the cache", trial)
		}
		if pr.Cost != want.Cost || pr.Optimal != want.Optimal || pr.LB != want.LB || !equalInts(pr.Solution, want.Solution) {
			t.Fatalf("trial %d: permuted result %v (cost %d) differs from uncached %v (cost %d)",
				trial, pr.Solution, pr.Cost, want.Solution, want.Cost)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCacheLeaderCancellation aims a budget cancellation at a
// singleflight leader while concurrent waiters queue on the same key:
// the waiters must neither deadlock nor inherit the interrupted
// result — they compute for themselves — and the cache must not be
// poisoned for later solves.  Run under -race this also exercises the
// cache's cross-goroutine publication.
func TestCacheLeaderCancellation(t *testing.T) {
	p := benchmarks.RandomCovering(77, 160, 140, 0.06, 5)
	ref := SolveSCG(p, SCGOptions{Seed: 9, NumIter: 3})
	cache := NewCache(64, 0)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	results := make([]*SCGResult, 5)

	// The leader solves under the doomed context; cancel fires shortly
	// after the goroutines start.  Whether the cancellation lands
	// mid-solve or the leader finishes first, every outcome below must
	// hold (the race just selects which code path is exercised).
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0] = SolveSCG(p, SCGOptions{Seed: 9, NumIter: 3, Cache: cache,
			Budget: Budget{Context: ctx}})
	}()
	for i := 1; i < 5; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = SolveSCG(p, SCGOptions{Seed: 9, NumIter: 3, Cache: cache})
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	cancel()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled singleflight leader deadlocked its waiters")
	}

	for i, r := range results {
		if r == nil || r.Solution == nil {
			t.Fatalf("goroutine %d: no result", i)
		}
		if !p.IsCover(r.Solution) {
			t.Fatalf("goroutine %d: infeasible solution", i)
		}
		if i > 0 && !r.Interrupted && r.Cost != ref.Cost {
			// Waiters run without a budget: their results must match
			// the uncached reference bit-for-bit.
			t.Fatalf("goroutine %d: cost %d != reference %d", i, r.Cost, ref.Cost)
		}
	}

	// The cache must hold either nothing or the completed result —
	// never the interrupted one.  A fresh solve must match the
	// reference exactly.
	after := SolveSCG(p, SCGOptions{Seed: 9, NumIter: 3, Cache: cache})
	if after.Interrupted {
		t.Fatal("cache served an interrupted result")
	}
	if after.Cost != ref.Cost || !equalInts(after.Solution, ref.Solution) {
		t.Fatalf("post-cancellation solve differs: cost %d want %d", after.Cost, ref.Cost)
	}
}

// TestSolverSessionThreading checks the public Solver handle threads
// its cache into each entry point.
func TestSolverSessionThreading(t *testing.T) {
	p := benchmarks.RandomCovering(31, 25, 20, 0.15, 3)
	s := NewSolver(SolverOptions{Cache: NewCache(32, 0)})
	s.SolveSCG(p, SCGOptions{Seed: 1})
	s.SolveSCG(p, SCGOptions{Seed: 1})
	s.SolveExact(p, ExactOptions{})
	s.SolveExact(p, ExactOptions{})
	cs := s.CacheStats()
	if cs.Hits < 2 || cs.Entries < 2 {
		t.Fatalf("session cache not threaded: %+v", cs)
	}
	// An uncached Solver is the package-level behaviour.
	u := NewSolver(SolverOptions{})
	if got := u.CacheStats(); got != (CacheStats{}) {
		t.Fatalf("uncached solver reports stats %+v", got)
	}
	r := u.SolveSCG(p, SCGOptions{Seed: 1})
	if r.Stats.CacheHits != 0 || r.Stats.CacheMisses != 0 {
		t.Fatal("uncached solver touched a cache")
	}
}
