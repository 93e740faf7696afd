package scg

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"ucp/internal/budget"
	"ucp/internal/lagrangian"
	"ucp/internal/matrix"
)

// The restart portfolio.
//
// The cyclic core splits into independent blocks, and each block runs
// an initial subgradient phase plus NumIter stochastic constructive
// restarts.  All of that work is independent once two sequential
// couplings are cut:
//
//   - every restart of a block races the block's *initial* incumbent
//     (zBest from the first subgradient phase) instead of the evolving
//     one, so a restart's search path never depends on an earlier
//     restart's outcome;
//   - each (block, restart) pair draws from its own splitmix64-derived
//     RNG stream instead of sharing one cursor.
//
// The results are then folded sequentially in (block, restart) order,
// so the solution and the Stats counters are bit-identical for a given
// Seed no matter how many workers ran the jobs.  The sequential
// solver's early exit (stop restarting once the incumbent matches
// ⌈LB⌉) is preserved by tracking the same fold incrementally over the
// completed prefix of restarts: once the exit condition fires at
// restart r, restarts beyond r are skipped (or, if already running,
// executed but never merged).  Interrupted solves still return the
// best incumbent of every job that completed, but which jobs those are
// depends on timing, so the bit-identical contract covers
// uninterrupted solves only.

// compState carries one independent block of the cyclic core through
// the portfolio: the initial subgradient phase, the restart jobs, and
// the deterministic merge.
type compState struct {
	core *matrix.Problem
	idx  int // block index within its part, half of the RNG stream id
	part int // canonical index of the connected input part (see solvePart)

	// Initial phase results.
	ok        bool // block is coverable (always true post-reduction)
	noRuns    bool // initial incumbent already matches ⌈LB⌉
	initIters int
	best      []int
	bestCost  int
	lb        float64

	// Restart jobs, indexed run-1.
	runs []runResult

	// Early-exit tracking over the completed prefix of runs.  exitAt
	// (atomic: read lock-free by workers deciding whether to skip a
	// job) is 0 until the sequential fold over runs[0:prefixIdx] meets
	// the exit condition, then the 1-based run index it fired at.
	mu        sync.Mutex
	exitAt    atomic.Int32
	prefixIdx int
	prefBest  int
	prefLB    float64
}

// runResult is one restart's outcome.  ran distinguishes a job that
// executed (even interrupted mid-run) from one never claimed or
// skipped: the merge folds the executed prefix only.
type runResult struct {
	ran   bool
	sol   []int
	cost  int
	lb    float64
	iters int
	steps int
}

// runStates executes the portfolio for the listed (pending) blocks:
// one init job each, then one job per (block, restart), all on the
// shared worker pool.  Blocks outside pend are left untouched — a
// resolve passes states it carried over from a parent solve, already
// final.  obs (may be nil) collects per-block incumbents for the
// OnImprove hook.
func runStates(states []*compState, pend []int, opt Options, tr *budget.Tracker, obs *anytime) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// One scratch pool per solve: each worker goroutine checks out a
	// lagrangian.Scratch for its whole claim loop, so every restart it
	// runs reuses the same buffers.  Scratch contents never reach a
	// Result (see the ownership rules on lagrangian.Scratch), so the
	// pooling cannot perturb the bit-identical merge.
	pool := &sync.Pool{New: newScratch}

	// The init jobs run unconditionally (nil tracker: no claim guard):
	// even with the budget already exhausted the initial subgradient
	// phase must produce its greedy feasible cover — the bottom rung of
	// the degradation ladder.  Each job observes the real tracker
	// internally and returns promptly.
	parallelDo(len(pend), workers, nil, pool, func(k int, sc *lagrangian.Scratch) {
		c := pend[k]
		states[c].init(opt, tr, sc)
		if cs := states[c]; cs.ok {
			obs.update(c, cs.best, cs.bestCost, cs.lb)
		}
	})

	type job struct{ c, r int }
	var jobs []job
	for _, c := range pend {
		if cs := states[c]; cs.ok && !cs.noRuns {
			for r := 1; r <= len(cs.runs); r++ {
				jobs = append(jobs, job{c, r})
			}
		}
	}
	parallelDo(len(jobs), workers, tr, pool, func(k int, sc *lagrangian.Scratch) {
		states[jobs[k].c].runJob(jobs[k].r, opt, tr, sc, obs)
	})
}

// init runs the block's initial subgradient phase and prepares the
// restart slots.
func (cs *compState) init(opt Options, tr *budget.Tracker, sc *lagrangian.Scratch) {
	compact, ids := cs.core.Compact()
	sg := lagrangian.Subgradient(compact, opt.Params, nil, 0, tr, sc)
	cs.initIters = sg.Iters
	if sg.Best == nil {
		return // uncoverable block: ok stays false
	}
	cs.ok = true
	lb := sg.LB
	if math.IsInf(lb, -1) {
		// Zero iterations under an exhausted budget certify nothing
		// beyond the trivial bound (costs are non-negative).
		lb = 0
	}
	cs.lb = lb
	cs.best = cs.core.Irredundant(mapCols(sg.Best, ids))
	cs.bestCost = cs.core.CostOf(cs.best)
	if float64(cs.bestCost) <= math.Ceil(lb-1e-9) {
		cs.noRuns = true
		return
	}
	cs.runs = make([]runResult, opt.NumIter)
	cs.prefBest, cs.prefLB = cs.bestCost, cs.lb
}

// runJob executes restart r (1-based) of the block, then advances the
// early-exit fold over the completed prefix.
func (cs *compState) runJob(r int, opt Options, tr *budget.Tracker, sc *lagrangian.Scratch, obs *anytime) {
	if ex := cs.exitAt.Load(); ex > 0 && int(ex) < r {
		return // a completed prefix already met the exit condition
	}
	window := 1 // first restart: strictly best-rated column
	if r > 1 {
		window = opt.BestCol + (r - 2)
	}
	rng := rand.New(rand.NewSource(runSeed(opt.Seed, streamID(cs.part, cs.idx), r)))
	sol, cost, lbRun, iters, steps := runOnce(cs.core, cs.bestCost, opt, rng, window, tr, sc)
	obs.update(cs.idx, sol, cost, lbRun)

	cs.mu.Lock()
	rr := &cs.runs[r-1]
	rr.ran, rr.sol, rr.cost, rr.lb, rr.iters, rr.steps = true, sol, cost, lbRun, iters, steps
	// Advance the same fold merge() will do, over the prefix of runs
	// that have all completed; fire exitAt the moment it would break.
	for cs.exitAt.Load() == 0 && cs.prefixIdx < len(cs.runs) && cs.runs[cs.prefixIdx].ran {
		pr := &cs.runs[cs.prefixIdx]
		cs.prefixIdx++
		if pr.lb > cs.prefLB {
			cs.prefLB = pr.lb
		}
		if pr.sol != nil && pr.cost < cs.prefBest {
			cs.prefBest = pr.cost
		}
		if float64(cs.prefBest) <= math.Ceil(cs.prefLB-1e-9) {
			cs.exitAt.Store(int32(cs.prefixIdx))
		}
	}
	cs.mu.Unlock()
}

// merge folds the block's results in restart order — the authoritative
// sequential pass that defines the portfolio's semantics.  It stops at
// the first restart that never executed (budget interruption or
// early-exit skip) or as soon as the incumbent matches ⌈LB⌉, and only
// folded restarts contribute to the Stats counters.
func (cs *compState) merge(st *Stats) ([]int, float64, bool) {
	st.SubgradIters += cs.initIters
	if !cs.ok {
		return nil, 0, false
	}
	lb, best, bestCost := cs.lb, cs.best, cs.bestCost
	for r := range cs.runs {
		rr := &cs.runs[r]
		if !rr.ran {
			break
		}
		st.Runs++
		st.SubgradIters += rr.iters
		st.FixSteps += rr.steps
		if rr.lb > lb {
			lb = rr.lb
		}
		if rr.sol != nil && rr.cost < bestCost {
			best, bestCost = rr.sol, rr.cost
		}
		if float64(bestCost) <= math.Ceil(lb-1e-9) {
			break
		}
	}
	return best, lb, true
}

// newScratch feeds the per-solve pool.  It is a variable so the
// determinism tests can seed the pool with scratches already dirtied
// on unrelated problems, proving reuse cannot leak into results.
var newScratch = func() any { return &lagrangian.Scratch{} }

// parallelDo runs fn(0..n-1) on up to workers goroutines.  Indices are
// claimed in order from a shared counter, and claiming stops once the
// budget interrupts (tr nil: never) — in-flight jobs finish (they
// observe the interruption themselves), queued ones are abandoned, so
// every block is left with a clean executed prefix.  Each goroutine
// holds one pooled Scratch across its whole claim loop and passes it
// to every job it runs.
func parallelDo(n, workers int, tr *budget.Tracker, pool *sync.Pool, fn func(k int, sc *lagrangian.Scratch)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	work := func() {
		sc := pool.Get().(*lagrangian.Scratch)
		defer pool.Put(sc)
		for {
			k := int(next.Add(1)) - 1
			if k >= n || tr.Interrupted() {
				return
			}
			fn(k, sc)
		}
	}
	if workers <= 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// streamID packs a block's (part, block) identity into the 64-bit RNG
// stream selector.  Part 0 reduces to the bare block index, so solves
// of connected problems — every solve before the partition-first
// pipeline existed — keep their historical streams.
func streamID(part, idx int) int64 {
	return int64(part)<<32 | int64(idx)
}

// runSeed derives the RNG seed of restart run on block stream comp
// from the user's Seed with splitmix64 mixing: well-separated streams,
// and a fixed (comp, run) → seed map independent of scheduling.
func runSeed(seed int64, comp int64, run int) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	x = mix64(x + uint64(comp)*0xbf58476d1ce4e5b9)
	x = mix64(x + uint64(run)*0x94d049bb133111eb)
	return int64(x)
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
