package ucp

import (
	"time"

	"ucp/internal/solvecache"
)

// Cache is a cross-solve memoization cache shared by the solvers: a
// power-of-two-sharded LRU keyed by a 128-bit fingerprint of the
// problem as given (its rows in order, its costs and column count), so
// only a verbatim resubmission hits — a row or column permutation is
// another input to the solvers, which are not label-invariant, and is
// solved afresh.  Concurrent identical solves are deduplicated behind
// one computation, and admission is cost-aware — only solves that took
// at least the work threshold enter, so trivial results never evict
// expensive ones.
// Interrupted (budget-cut) solves are never cached, and solutions
// cross the cache boundary as defensive copies.
//
// A Cache is safe for concurrent use.  The nil *Cache is valid and
// always misses.  Construct one with NewCache and hand it to a Solver
// (or set it directly on SCGOptions.Cache / ExactOptions.Cache).
type Cache = solvecache.Cache

// CacheStats is a point-in-time snapshot of a Cache's counters: hits,
// misses, singleflight dedups, stores, evictions and resident entries.
type CacheStats = solvecache.Stats

// Defaults used by the CLIs' -cache flag; library callers pick their
// own.
const (
	// DefaultCacheSize is the entry capacity behind -cache.
	DefaultCacheSize = 4096
	// DefaultCacheMinWork is the admission threshold: a solve cheaper
	// than this is not worth an entry, so it never displaces an
	// expensive one.
	DefaultCacheMinWork = 200 * time.Microsecond
)

// NewCache builds a cache holding up to size entries, admitting only
// results whose computation took at least minWork.  size ≤ 0 returns
// the nil always-miss cache.
func NewCache(size int, minWork time.Duration) *Cache {
	return solvecache.New(size, minWork)
}
