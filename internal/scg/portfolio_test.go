package scg

import (
	"math/rand"
	"reflect"
	"testing"

	"ucp/internal/bnb"
	"ucp/internal/lagrangian"
	"ucp/internal/matrix"
)

// TestWorkersBitIdentical is the portfolio's determinism contract: for
// a fixed Seed, the solution, cost, bound, optimality claim and every
// Stats counter must be bit-identical no matter how many workers run
// the restarts — including on problems that split into independent
// blocks.  Run with -race this also shakes out data races in the
// worker pool.
func TestWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 25; trial++ {
		// Stitch two independent random blocks so the block dimension of
		// the portfolio is exercised, not just the restart dimension.
		a := randomProblem(rng, 10, 10, 3)
		b := randomProblem(rng, 10, 10, 3)
		rows := append([][]int(nil), a.Rows...)
		for _, r := range b.Rows {
			shifted := make([]int, len(r))
			for k, j := range r {
				shifted[k] = j + a.NCol
			}
			rows = append(rows, shifted)
		}
		cost := append(append([]int(nil), a.Cost...), b.Cost...)
		p := matrix.MustNew(rows, a.NCol+b.NCol, cost)

		base := Solve(p, Options{NumIter: 8, Seed: int64(trial), Workers: 1})
		for _, workers := range []int{2, 4, 8} {
			got := Solve(p, Options{NumIter: 8, Seed: int64(trial), Workers: workers})
			if !reflect.DeepEqual(got.Solution, base.Solution) {
				t.Fatalf("trial %d: workers=%d solution %v != sequential %v",
					trial, workers, got.Solution, base.Solution)
			}
			if got.Cost != base.Cost || got.LB != base.LB || got.ProvedOptimal != base.ProvedOptimal {
				t.Fatalf("trial %d: workers=%d result (%d, %v, %v) != sequential (%d, %v, %v)",
					trial, workers, got.Cost, got.LB, got.ProvedOptimal,
					base.Cost, base.LB, base.ProvedOptimal)
			}
			gs, bs := got.Stats, base.Stats
			gs.CyclicCoreTime, bs.CyclicCoreTime = 0, 0 // timings are
			gs.TotalTime, bs.TotalTime = 0, 0           // exempt from the contract
			if gs != bs {
				t.Fatalf("trial %d: workers=%d stats %+v != sequential %+v",
					trial, workers, gs, bs)
			}
		}
	}
}

// TestWorkersStillValid: the parallel portfolio must keep every solver
// guarantee — feasible covers, costs at or above the optimum, honest
// optimality certificates.
func TestWorkersStillValid(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 12, 12, 3)
		opt := bnb.Solve(p, bnb.Options{})
		res := Solve(p, Options{NumIter: 4, Seed: int64(trial), Workers: 4})
		if res.Solution == nil || !p.IsCover(res.Solution) {
			t.Fatalf("trial %d: invalid cover", trial)
		}
		if res.Cost < opt.Cost {
			t.Fatalf("trial %d: cost %d below optimum %d", trial, res.Cost, opt.Cost)
		}
		if res.ProvedOptimal && res.Cost != opt.Cost {
			t.Fatalf("trial %d: false optimality certificate", trial)
		}
	}
}

// TestDirtyScratchPoolBitIdentical seeds the portfolio's scratch pool
// with buffers already dirtied on unrelated problems — the worst case
// of cross-restart scratch reuse — and holds every result to
// bit-identity with a clean-pool solve at every worker count.
func TestDirtyScratchPoolBitIdentical(t *testing.T) {
	clean := newScratch
	defer func() { newScratch = clean }()

	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 10; trial++ {
		p := randomProblem(rng, 14, 14, 3)
		newScratch = clean
		base := Solve(p, Options{NumIter: 8, Seed: int64(trial), Workers: 1})

		// Every scratch the pool hands out starts full of state from a
		// differently-shaped problem.
		dirtySeed := int64(1000 + trial)
		newScratch = func() any {
			sc := &lagrangian.Scratch{}
			drng := rand.New(rand.NewSource(dirtySeed))
			q := randomProblem(drng, 25, 40, 6)
			lagrangian.Subgradient(q, lagrangian.Params{MaxIters: 25}, nil, 0, nil, sc)
			return sc
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got := Solve(p, Options{NumIter: 8, Seed: int64(trial), Workers: workers})
			if !reflect.DeepEqual(got.Solution, base.Solution) ||
				got.Cost != base.Cost || got.LB != base.LB ||
				got.ProvedOptimal != base.ProvedOptimal {
				t.Fatalf("trial %d workers=%d: dirty-pool result (%v, %d) != clean (%v, %d)",
					trial, workers, got.Solution, got.Cost, base.Solution, base.Cost)
			}
			gs, bs := got.Stats, base.Stats
			gs.CyclicCoreTime, bs.CyclicCoreTime = 0, 0
			gs.TotalTime, bs.TotalTime = 0, 0
			if gs != bs {
				t.Fatalf("trial %d workers=%d: dirty-pool stats %+v != clean %+v",
					trial, workers, gs, bs)
			}
		}
	}
}

// TestRunSeedStreamsDistinct: the per-(block, restart) seeds must not
// collide across a realistic portfolio footprint.
func TestRunSeedStreamsDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for _, seed := range []int64{0, 1, 42, -7} {
		for comp := int64(0); comp < 16; comp++ {
			for run := 1; run <= 64; run++ {
				s := runSeed(seed, comp, run)
				if seen[s] {
					t.Fatalf("seed collision at (%d, %d, %d)", seed, comp, run)
				}
				seen[s] = true
			}
		}
	}
}
