package scg

import (
	"math"
	"time"

	"ucp/internal/canon"
	"ucp/internal/matrix"
	"ucp/internal/solvecache"
)

// resultWords lists, as digest words, every option that can change a
// solve's result; the cache key and the resolve parent check
// (sameResultOptions) both derive from it.  Workers is deliberately
// excluded — the portfolio's output is bit-identical for any worker
// count — and so are the observational and routing fields (OnImprove,
// MemBudget, SpillDir, Cache) and the whole budget: when one of its
// limits fires the solve reports Interrupted, is never cached and
// never serves as a resolve parent.
func resultWords(opt *Options) [17]uint64 {
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	pp := opt.Params
	return [...]uint64{
		uint64(opt.NumIter), uint64(opt.BestCol), uint64(opt.Seed),
		b2u(opt.DisablePenalties), b2u(opt.DisablePromising),
		b2u(opt.DisablePartition), b2u(opt.DisableWarmStart),
		math.Float64bits(pp.Alpha), math.Float64bits(pp.CHat),
		math.Float64bits(pp.MuHat), math.Float64bits(pp.Delta),
		math.Float64bits(pp.T0), math.Float64bits(pp.TMin),
		uint64(pp.NT), uint64(pp.MaxIters), uint64(pp.DualPen),
		uint64(pp.GreedyEvery),
	}
}

// cacheKey builds the cache key for one solve: the problem's label
// fingerprint (the rows in order, the costs, the column count) folded
// with a digest of resultWords.  The solve is not label-invariant, so
// only a verbatim resubmission may share a key; a row or column
// permutation of a cached problem misses.
func cacheKey(p *matrix.Problem, opt *Options) solvecache.Key {
	words := resultWords(opt)
	d := canon.DigestWords(0x5343_4731, words[:]...) // "SCG1"
	fp := canon.LabelFingerprint(p).Derive(d)
	return solvecache.Key{Hi: fp.Hi, Lo: fp.Lo}
}

// copyResult deep-copies a result so cached values never alias a
// caller's slices (defensive on both sides of the cache boundary).
func copyResult(r *Result) *Result {
	cp := *r
	if r.Solution != nil {
		cp.Solution = append([]int(nil), r.Solution...)
	}
	return &cp
}

// solveCached serves one solve through the cross-solve cache with
// singleflight deduplication.  The leader computes and returns its own
// result; a defensive copy enters the cache only when the solve ran to
// completion and took at least the cache's admission threshold.  A
// budget-interrupted leader shares nothing: its waiters compute for
// themselves under their own budgets (see solvecache.Do).  Hits verify
// that the stored solution covers the prober's matrix at the stored
// cost; a verification failure (a fingerprint collision, p < 2⁻¹²⁸)
// falls back to solving.
func solveCached(p *matrix.Problem, opt Options) *Result {
	key := cacheKey(p, &opt)
	// A budget-carrying solve passes its cancellation to the cache so a
	// waiter whose own context dies (client disconnect) stops waiting
	// on the leader and unwinds under its own budget immediately.
	var cancel <-chan struct{}
	if opt.Budget.Context != nil {
		cancel = opt.Budget.Context.Done()
	}
	var mine *Result
	v, _ := opt.Cache.DoChan(key, cancel, func() (any, time.Duration, bool) {
		t0 := time.Now()
		mine = solve(p, opt, nil)
		mine.Stats.CacheMisses = 1
		return copyResult(mine), time.Since(t0), !mine.Interrupted
	})
	if mine != nil {
		// This caller computed (leader, or waiter behind a failed
		// leader): its result is its own.
		return mine
	}
	res := copyResult(v.(*Result))
	if res.Solution != nil && !(p.IsCover(res.Solution) && p.CostOf(res.Solution) == res.Cost) {
		res = solve(p, opt, nil)
		res.Stats.CacheMisses = 1
		return res
	}
	res.Stats.CacheHits, res.Stats.CacheMisses = 1, 0
	return res
}
