// Package solvecache is a sharded, singleflight-deduplicated LRU for
// solver results keyed by 128-bit problem fingerprints.
//
// The cache is sized in entries and split over a power-of-two number
// of shards, each with its own lock and LRU list, so concurrent
// portfolio workers and serving threads do not serialise on one
// mutex.  Admission is cost-aware: a computed result enters the cache
// only when producing it took at least the configured work threshold,
// so trivial solves do not evict expensive ones.
//
// Do deduplicates concurrent identical solves: the first caller (the
// leader) computes while later callers (waiters) block on its
// completion.  The contract is failure-safe by construction — the
// leader reports whether its result is shareable, and a leader whose
// solve was budget-interrupted reports it is not, in which case every
// waiter simply computes for itself under its own budget.  A leader
// can therefore never poison the cache (interrupted results are not
// admitted) nor deadlock waiters (the flight channel is closed on
// every exit path, panics included).
//
// The cache stores opaque values; callers own defensive copying on
// both sides of the boundary.
package solvecache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// Key is a 128-bit cache key (a problem's label fingerprint, see
// canon.LabelFingerprint, folded with a solver/options digest).
type Key struct {
	Hi, Lo uint64
}

// Stats is a point-in-time snapshot of the cache counters.  The json
// tags fix the wire names the ucpd /stats endpoint exposes.
type Stats struct {
	Hits      int64 `json:"hits"`      // lookups served from a stored entry
	Misses    int64 `json:"misses"`    // lookups that computed (leader or post-failure waiter)
	Dedups    int64 `json:"dedups"`    // lookups served by waiting on an in-flight leader
	Stores    int64 `json:"stores"`    // admissions
	Evictions int64 `json:"evictions"` // LRU evictions
	Entries   int   `json:"entries"`   // entries currently resident
}

type entry struct {
	key Key
	val any
}

type flight struct {
	done    chan struct{}
	val     any
	elapsed time.Duration
	ok      bool // val is complete and shareable with waiters
}

type shard struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	m      map[Key]*list.Element
	flight map[Key]*flight
}

// Cache is a sharded singleflight LRU. The zero value is not usable;
// construct with New. A nil *Cache is a valid always-miss cache that
// never dedups and never stores.
type Cache struct {
	shards  []shard
	mask    uint64
	minWork time.Duration

	hits, misses, dedups, stores, evictions atomic.Int64
}

const defaultShards = 16

// New builds a cache holding up to size entries in total, admitting
// only results whose computation took at least minWork. A size ≤ 0
// returns nil (the always-miss cache).
func New(size int, minWork time.Duration) *Cache {
	if size <= 0 {
		return nil
	}
	n := defaultShards
	for n > 1 && size < n {
		n >>= 1
	}
	c := &Cache{shards: make([]shard, n), mask: uint64(n - 1), minWork: minWork}
	per := (size + n - 1) / n
	for i := range c.shards {
		c.shards[i] = shard{
			cap:    per,
			ll:     list.New(),
			m:      make(map[Key]*list.Element),
			flight: make(map[Key]*flight),
		}
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	return &c.shards[(k.Lo^k.Hi*0x9e3779b97f4a7c15)&c.mask]
}

// Get returns the stored value for k, refreshing its LRU position.
func (c *Cache) Get(k Key) (any, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if el, ok := s.m[k]; ok {
		s.ll.MoveToFront(el)
		v := el.Value.(*entry).val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	s.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// Put stores v under k unconditionally (no work-threshold check),
// evicting the least recently used entry when the shard is full.
func (c *Cache) Put(k Key, v any) {
	if c == nil {
		return
	}
	s := c.shardFor(k)
	s.mu.Lock()
	c.putLocked(s, k, v)
	s.mu.Unlock()
}

func (c *Cache) putLocked(s *shard, k Key, v any) {
	if el, ok := s.m[k]; ok {
		el.Value.(*entry).val = v
		s.ll.MoveToFront(el)
		return
	}
	for s.ll.Len() >= s.cap {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.m, back.Value.(*entry).key)
		c.evictions.Add(1)
	}
	s.m[k] = s.ll.PushFront(&entry{key: k, val: v})
	c.stores.Add(1)
}

// Do returns the value for k, computing it with fn on a miss.
// fn reports the computed value, how long the computation took (for
// cost-aware admission), and whether the value is complete — an
// interrupted solve returns share=false and is neither cached nor
// handed to waiters. The second return is true when the value came
// from the cache or from another flight's leader rather than from
// this caller's own fn.
func (c *Cache) Do(k Key, fn func() (v any, elapsed time.Duration, share bool)) (any, bool) {
	return c.DoChan(k, nil, fn)
}

// DoChan is Do with waiter cancellation: a caller that would block on
// an in-flight leader gives up as soon as cancel closes and computes
// with its own fn instead — under its own (presumably already
// cancelled) budget, so it returns promptly with its best-effort
// result rather than waiting out a leader on an unrelated, possibly
// much longer budget.  A nil cancel never fires, making DoChan(k, nil,
// fn) exactly Do.  Leaders are unaffected: a leader always runs fn to
// completion (fn itself observes the budget) and always releases its
// waiters, so a cancelled — or panicking — leader can neither poison
// the cache nor strand a waiter.
func (c *Cache) DoChan(k Key, cancel <-chan struct{}, fn func() (v any, elapsed time.Duration, share bool)) (any, bool) {
	if c == nil {
		v, _, _ := fn()
		return v, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if el, ok := s.m[k]; ok {
		s.ll.MoveToFront(el)
		v := el.Value.(*entry).val
		s.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	if fl, ok := s.flight[k]; ok {
		s.mu.Unlock()
		select {
		case <-fl.done:
		case <-cancel:
			// Our caller is gone (client disconnect, drain deadline):
			// stop waiting on the leader and let fn observe the
			// cancellation itself.
			c.misses.Add(1)
			v, _, _ := fn()
			return v, false
		}
		if fl.ok {
			c.dedups.Add(1)
			return fl.val, true
		}
		// The leader was interrupted (or panicked): its result is not
		// shareable. Compute under our own budget, without starting a
		// new flight — re-herding behind another possibly-doomed
		// leader would serialise every waiter behind repeated
		// failures.
		c.misses.Add(1)
		v, elapsed, share := fn()
		if share && elapsed >= c.minWork {
			c.Put(k, v)
		}
		return v, false
	}
	fl := &flight{done: make(chan struct{})}
	s.flight[k] = fl
	s.mu.Unlock()
	c.misses.Add(1)

	defer func() {
		// On every exit — including a panicking fn — deregister the
		// flight and release waiters; fl.ok stays false unless the
		// computation completed shareably. Admission happens under the
		// same lock as deregistration, so a released waiter observes
		// the entry on its next lookup.
		s.mu.Lock()
		if fl.ok && fl.elapsed >= c.minWork {
			c.putLocked(s, k, fl.val)
		}
		delete(s.flight, k)
		s.mu.Unlock()
		close(fl.done)
	}()

	v, elapsed, share := fn()
	fl.val, fl.elapsed, fl.ok = v, elapsed, share
	return v, false
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Dedups:    c.dedups.Load(),
		Stores:    c.stores.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.ll.Len()
		s.mu.Unlock()
	}
	return st
}

// MinWork exposes the admission threshold.
func (c *Cache) MinWork() time.Duration {
	if c == nil {
		return 0
	}
	return c.minWork
}
