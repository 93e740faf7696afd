// Package zdd implements Zero-suppressed Binary Decision Diagrams
// (Minato, DAC 1993): a canonical DAG representation for families of
// sets over a finite universe of integer-indexed elements.
//
// The covering-problem front end of this library stores the covering
// matrix as a single ZDD family: one set per row, each set holding the
// indices of the columns that cover the row.  Duplicate rows collapse
// for free by canonicity, row dominance is the Minimal operation, and
// essential columns are the family's singleton sets.
//
// # Chain reduction
//
// Nodes are chain-reduced in the spirit of Bryant's CZDDs (arXiv
// 1710.06500), adapted to the literal chains covering matrices
// actually produce: a node carries an ascending *chain* of variables
// v1 < v2 < … < vk instead of a single variable, and denotes
//
//	S(node) = S(lo) ∪ { {v1,…,vk} ∪ s : s ∈ S(hi) }
//
// i.e. the whole chain is present together in every hi-side set.  A
// plain ZDD spells such a run as k nodes whose lo-edges all point at
// Empty; covering rows are exactly that shape (one all-present chain
// per row tail), so collapsing them stores the same family in a
// fraction of the nodes and a NodeCap admits a strictly larger
// implicit frontier.  Unlike Bryant's [t:b] spans the chain variables
// need not be consecutive — covering matrices produce gapped runs.
//
// Canonical form: a stored node never has a hi-child that is a "pure"
// node (a nonterminal with lo == Empty).  mk absorbs such a child by
// concatenating its chain, so maximal chains are formed bottom-up and
// the representation stays canonical — equal ids ⇔ equal families,
// which the scg implicit phase's fixpoint test relies on.  Operations
// work variable-at-a-time through a virtual cofactor view (top chain
// variable + tail residual), and absorption re-forms chains in their
// results automatically.
//
// The node store is hash-consed through an open-addressed unique
// table, and operation results go through a direct-mapped computed
// cache (lossy, as in CUDD: a collision merely costs a recomputation)
// that starts small and doubles alongside the unique table.
package zdd

import (
	"errors"
	"fmt"
	"slices"
)

// ErrNodeLimit is the panic value raised (and the error reported) when
// an operation would grow the manager past its node limit; see
// SetNodeLimit.
var ErrNodeLimit = errors.New("zdd: node limit exceeded")

// Node is a reference to a ZDD node inside a Manager.  The two
// terminal nodes are Empty (the empty family, ⊥) and Base (the family
// {∅}, ⊤).
type Node int32

// Terminal nodes.
const (
	Empty Node = 0 // no sets at all
	Base  Node = 1 // exactly the empty set
)

// Operation codes for the computed cache.
const (
	opUnion uint64 = iota + 1
	opIntersect
	opDiff
	opNonSup
	opMinimal
	opSingletons
	opSubset0
	opSubset1
	opNonSub
	opMaximal
)

const terminalVar = int32(1) << 30 // sentinel: below every real variable

// Computed-cache sizing: New starts at 2^cacheMinBits entries (~48 KiB)
// so tiny instances stop paying for a fixed multi-megabyte table, and
// growUnique doubles it alongside the unique table up to
// 2^cacheMaxBits (the former fixed size).  The count cache scales the
// same way within its own bounds.
const (
	cacheMinBits = 12
	cacheMaxBits = 17
	countMinBits = 10
	countMaxBits = 14
)

// Manager owns the node store, the hash-consing unique table and the
// operation cache of a ZDD universe.  A Manager is not safe for
// concurrent use.
type Manager struct {
	// Node store.  A node's chain is its top variable plus clen-1
	// further ascending variables held in cpool at coff (nodes with a
	// single-variable chain occupy no pool space).  Terminals use the
	// sentinel variable and chain length 0.
	top   []int32 // first chain variable of node i
	coff  []int32 // offset of the chain tail in cpool (clen > 1 only)
	clen  []int32 // chain length of node i
	lo    []Node  // cofactor: sets without the chain
	hi    []Node  // cofactor: sets with the whole chain (chain removed)
	cpool []int32 // chain-tail storage, compacted by Collect

	// chain gates absorption: true for New (chain-reduced nodes),
	// false for NewPlain (every chain has length 1 — the reference
	// plain-ZDD engine the differential tests compare against).
	chain bool

	// Unique table: open addressing with linear probing; a slot holds
	// node id + 1 (0 = empty).
	uslots []int32
	umask  uint32

	// Computed cache: direct mapped, lossy, power-of-two sized.
	ckeys []uint64
	cvals []Node

	// Count cache: direct mapped, lossy, power-of-two sized.
	nkeys []Node
	nvals []uint64

	// abuf is the chain-concatenation scratch of mk/mkChain (absorption
	// builds the merged chain here before consing it) and Set's
	// normalised element list.
	abuf []int32

	// sbuf is appendSet's sort scratch.
	sbuf []int

	// Visit stamps: one epoch counter plus a per-node stamp slice shared
	// by every traversal (Support, LiveNodeCount, the collector's mark
	// phase), so no walk ever allocates a visited map.  A node is marked
	// in the current traversal iff vstamp[n] == vepoch; opening a new
	// epoch invalidates all stamps in O(1).
	vstamp []int32
	vepoch int32

	// Garbage collection: externally registered roots (pointers, so the
	// sweep can rewrite them to the compacted ids), the old→new id
	// scratch of the sweep, and the double-buffered pool the sweep
	// compacts chains into.  peak is the high-water node count across
	// the manager's lifetime, surviving collections.
	roots    []*Node
	gcMap    []Node
	poolSwap []int32
	peak     int

	// limit caps the node store; 0 = unlimited.
	limit int
}

// New returns an empty chain-reduced manager.
func New() *Manager {
	m := newManager()
	m.chain = true
	return m
}

// NewPlain returns an empty manager with chain reduction disabled:
// every node carries a single variable, exactly the classic ZDD
// layout.  It exists as the reference engine for differential tests
// and compression measurements; the two engines represent the same
// families and every operation returns set-identical results.
func NewPlain() *Manager { return newManager() }

func newManager() *Manager {
	m := &Manager{
		uslots: make([]int32, 1024),
		umask:  1023,
		ckeys:  make([]uint64, 1<<cacheMinBits),
		cvals:  make([]Node, 1<<cacheMinBits),
		nkeys:  make([]Node, 1<<countMinBits),
		nvals:  make([]uint64, 1<<countMinBits),
	}
	// Slots 0 and 1 are the terminals.
	m.top = append(m.top, terminalVar, terminalVar)
	m.coff = append(m.coff, 0, 0)
	m.clen = append(m.clen, 0, 0)
	m.lo = append(m.lo, Empty, Empty)
	m.hi = append(m.hi, Empty, Empty)
	m.peak = 2
	return m
}

// ChainEnabled reports whether the manager absorbs literal chains
// (New) or stores plain single-variable nodes (NewPlain).
func (m *Manager) ChainEnabled() bool { return m.chain }

// NodeCount returns the number of nodes in the store, including the
// two terminals and any garbage not yet collected.
func (m *Manager) NodeCount() int { return len(m.top) }

// SetNodeLimit caps the node store at n nodes (0 removes the cap).  An
// operation that would allocate past the cap panics with ErrNodeLimit;
// callers that want graceful degradation recover it at their phase
// boundary (see scg.ImplicitReduceBudgetWorkers) and fall back to an
// explicit algorithm.  The manager's existing nodes stay valid after
// the panic, but the family under construction is lost.  With chain reduction a
// capped store holds whole chains per node, so the same cap admits a
// strictly larger family than the plain layout.
func (m *Manager) SetNodeLimit(n int) { m.limit = n }

// Var returns the top (first chain) variable of f; it panics on
// terminals.
func (m *Manager) Var(f Node) int {
	if f <= Base {
		panic("zdd: Var of terminal")
	}
	return int(m.top[f])
}

// Lo returns the cofactor of f without its top variable (equivalently:
// without its chain — no set on the lo side contains any prefix of
// it).
func (m *Manager) Lo(f Node) Node { return m.lo[f] }

// Hi returns the stored cofactor of f with its whole chain (the chain
// variables removed from the member sets).  Note that under chain
// reduction this is the cofactor after *all* of ChainLen(f) variables,
// not just the top one; Tail gives the single-variable view.
func (m *Manager) Hi(f Node) Node { return m.hi[f] }

// ChainLen returns the number of variables on f's chain (1 for every
// node of a plain manager); it panics on terminals.
func (m *Manager) ChainLen(f Node) int {
	if f <= Base {
		panic("zdd: ChainLen of terminal")
	}
	return int(m.clen[f])
}

// AppendChain appends f's chain variables in ascending order to dst.
func (m *Manager) AppendChain(dst []int, f Node) []int {
	for i := 0; i < int(m.clen[f]); i++ {
		dst = append(dst, int(m.chainVar(f, i)))
	}
	return dst
}

// chainVar returns the i-th variable of f's chain (0-indexed).
func (m *Manager) chainVar(f Node, i int) int32 {
	if i == 0 {
		return m.top[f]
	}
	return m.cpool[m.coff[f]+int32(i)-1]
}

// restOf returns the chain tail of f (everything after the top
// variable) as a view into the pool; nil for single-variable chains.
func (m *Manager) restOf(f Node) []int32 {
	if m.clen[f] <= 1 {
		return nil
	}
	return m.cpool[m.coff[f] : m.coff[f]+m.clen[f]-1]
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (m *Manager) uniqueHash(top int32, rest []int32, lo, hi Node) uint32 {
	h := uint64(uint32(top))<<40 ^ uint64(uint32(lo))<<20 ^ uint64(uint32(hi))
	for _, v := range rest {
		h = mix64(h) ^ uint64(uint32(v))
	}
	return uint32(mix64(h))
}

// cons hash-conses the node (top·rest, lo, hi).  The caller guarantees
// canonical form: hi != Empty, and in chain mode hi is not pure (mk
// and mkChain absorb pure hi-children before consing).  rest may alias
// cpool — the insert path appends a copy before any slot is written.
func (m *Manager) cons(top int32, rest []int32, lo, hi Node) Node {
	k := int32(len(rest)) + 1
	idx := m.uniqueHash(top, rest, lo, hi) & m.umask
	for {
		s := m.uslots[idx]
		if s == 0 {
			break
		}
		n := Node(s - 1)
		if m.top[n] == top && m.clen[n] == k && m.lo[n] == lo && m.hi[n] == hi &&
			slices.Equal(m.restOf(n), rest) {
			return n
		}
		idx = (idx + 1) & m.umask
	}
	if m.limit > 0 && len(m.top) >= m.limit {
		panic(ErrNodeLimit)
	}
	n := Node(len(m.top))
	off := int32(0)
	if len(rest) > 0 {
		off = int32(len(m.cpool))
		m.cpool = append(m.cpool, rest...)
	}
	m.top = append(m.top, top)
	m.coff = append(m.coff, off)
	m.clen = append(m.clen, k)
	m.lo = append(m.lo, lo)
	m.hi = append(m.hi, hi)
	if len(m.top) > m.peak {
		m.peak = len(m.top)
	}
	m.uslots[idx] = int32(n) + 1
	if uint32(len(m.top))*4 >= m.umask*3 { // load factor 3/4
		m.growUnique()
	}
	return n
}

// pure reports whether f is a nonterminal whose lo-cofactor is Empty:
// every set of f contains f's whole chain.  Canonical chain form
// forbids a pure hi-child — mk absorbs it into the parent's chain.
func (m *Manager) pure(f Node) bool { return f > Base && m.lo[f] == Empty }

// mk returns the canonical node (v, lo, hi), applying the
// zero-suppression rule hi = Empty ⇒ node = lo and, in chain mode,
// absorbing a pure hi-child into the chain.  Absorption terminates in
// one step: a stored node's hi is never pure, by induction.
func (m *Manager) mk(v int32, lo, hi Node) Node {
	if hi == Empty {
		return lo
	}
	if m.chain && m.pure(hi) {
		b := append(m.abuf[:0], v, m.top[hi])
		b = append(b, m.restOf(hi)...)
		m.abuf = b
		return m.cons(v, b[1:], lo, m.hi[hi])
	}
	return m.cons(v, nil, lo, hi)
}

// mkChain returns the canonical node carrying the whole ascending
// chain vars over (lo, hi).  In plain mode it expands to the classic
// one-node-per-variable spine.
func (m *Manager) mkChain(vars []int32, lo, hi Node) Node {
	if hi == Empty {
		return lo
	}
	if !m.chain {
		for i := len(vars) - 1; i >= 1; i-- {
			hi = m.cons(vars[i], nil, Empty, hi)
		}
		return m.cons(vars[0], nil, lo, hi)
	}
	if m.pure(hi) {
		b := append(m.abuf[:0], vars...)
		b = append(b, m.top[hi])
		b = append(b, m.restOf(hi)...)
		m.abuf = b
		return m.cons(b[0], b[1:], lo, m.hi[hi])
	}
	return m.cons(vars[0], vars[1:], lo, hi)
}

// Tail returns the virtual hi-cofactor of f at its top variable alone:
// the family {s \ {top} : s ∈ f, top ∈ s}.  For a single-variable
// chain this is the stored hi; for a longer chain it is the pure node
// carrying the rest of the chain, which shares pool storage with f.
// Operations recurse through Tail to work variable-at-a-time.
func (m *Manager) Tail(f Node) Node {
	if m.clen[f] <= 1 {
		return m.hi[f]
	}
	r := m.restOf(f)
	return m.cons(r[0], r[1:], Empty, m.hi[f])
}

func (m *Manager) growUnique() {
	m.umask = m.umask*2 + 1
	m.uslots = make([]int32, m.umask+1)
	for n := 2; n < len(m.top); n++ {
		idx := m.uniqueHash(m.top[n], m.restOf(Node(n)), m.lo[n], m.hi[n]) & m.umask
		for m.uslots[idx] != 0 {
			idx = (idx + 1) & m.umask
		}
		m.uslots[idx] = int32(n) + 1
	}
	// The lossy caches scale with the unique table up to their caps;
	// resizing drops their contents, which only costs recomputation.
	if len(m.ckeys) < 1<<cacheMaxBits {
		m.ckeys = make([]uint64, 2*len(m.ckeys))
		m.cvals = make([]Node, 2*len(m.cvals))
	}
	if len(m.nkeys) < 1<<countMaxBits {
		m.nkeys = make([]Node, 2*len(m.nkeys))
		m.nvals = make([]uint64, 2*len(m.nvals))
	}
}

// cacheKey packs an operation and its operands.  Node ids above 2^28
// are not cached (they merely recompute), which keeps the key unique.
func cacheKey(op uint64, f, g Node) (uint64, bool) {
	if f >= 1<<28 || g >= 1<<28 {
		return 0, false
	}
	return op<<56 | uint64(f)<<28 | uint64(g), true
}

func (m *Manager) cacheGet(op uint64, f, g Node) (Node, bool) {
	k, ok := cacheKey(op, f, g)
	if !ok {
		return 0, false
	}
	i := mix64(k) & uint64(len(m.ckeys)-1)
	if m.ckeys[i] == k {
		return m.cvals[i], true
	}
	return 0, false
}

func (m *Manager) cachePut(op uint64, f, g, r Node) {
	k, ok := cacheKey(op, f, g)
	if !ok {
		return
	}
	i := mix64(k) & uint64(len(m.ckeys)-1)
	m.ckeys[i] = k
	m.cvals[i] = r
}

func (m *Manager) topVar(f Node) int32 { return m.top[f] }

// Set builds the family containing exactly one set with the given
// elements.  Elements may be passed in any order; duplicates are
// collapsed.  Negative elements are rejected with an error (elements
// index ZDD variables, which are non-negative by construction).  In
// chain mode the whole set is a single chain node.
func (m *Manager) Set(elems []int) (Node, error) {
	vars, err := m.appendSet(m.abuf[:0], elems)
	m.abuf = vars
	switch {
	case err != nil:
		return Empty, err
	case len(vars) == 0:
		return Base, nil
	}
	return m.mkChain(vars, Empty, Base), nil
}

// appendSet appends the elements of one set to dst in ascending order
// without repeats, or reports the smallest element when it is
// negative.  The sort runs in the manager's sbuf scratch: callers
// normalise one set per row of a covering matrix, so a per-call copy
// would dominate their allocation profile.
func (m *Manager) appendSet(dst []int32, elems []int) ([]int32, error) {
	sorted := append(m.sbuf[:0], elems...)
	m.sbuf = sorted
	slices.Sort(sorted)
	if len(sorted) > 0 && sorted[0] < 0 {
		return dst, fmt.Errorf("zdd: negative element %d", sorted[0])
	}
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			dst = append(dst, int32(v))
		}
	}
	return dst, nil
}

// Family builds the family holding exactly the given sets, one per
// row: the bulk form of folding Union over Set(row), and the same node
// by canonicity.  Rows follow Set's rules (any order, duplicates
// collapse, a negative element is an error and builds nothing).
//
// The rows are normalised into one flat buffer, sorted
// lexicographically, and built bottom-up in a single pass.  Rows that
// share a prefix are adjacent, so at depth d a sorted range splits
// into its exhausted rows (the empty suffix, Base) and groups by the
// element at d.  Each group's canonical chain is the group's longest
// common prefix from d — the first and last row bound it — and its
// hi-child is the group built past that prefix, which is never pure:
// the prefix stopped because a row ended or two rows diverged.  So
// every node is consed directly in canonical form, and the groups fold
// from the largest element down as lo-children.  Unlike the Union
// fold, the build strands no garbage: every node it allocates belongs
// to the result.
func (m *Manager) Family(rows [][]int) (Node, error) {
	type span struct{ off, end int32 }
	var buf []int32
	spans := make([]span, 0, len(rows))
	for _, r := range rows {
		next, err := m.appendSet(buf, r)
		if err != nil {
			return Empty, err
		}
		spans = append(spans, span{int32(len(buf)), int32(len(next))})
		buf = next
	}
	row := func(i int) []int32 { return buf[spans[i].off:spans[i].end] }
	slices.SortFunc(spans, func(a, b span) int {
		return slices.Compare(buf[a.off:a.end], buf[b.off:b.end])
	})

	// build returns the family of the suffixes from depth d of the
	// sorted rows [lo, hi), which share their first d elements.
	var build func(lo, hi, d int) Node
	build = func(lo, hi, d int) Node {
		acc := Empty
		for lo < hi && len(row(lo)) == d {
			acc, lo = Base, lo+1 // exhausted rows (duplicates included)
		}
		for hi > lo {
			last := row(hi - 1)
			g := hi - 1
			for g > lo && row(g - 1)[d] == last[d] {
				g--
			}
			first := row(g)
			k := d + 1
			for k < len(first) && k < len(last) && first[k] == last[k] {
				k++
			}
			acc = m.mkChain(first[d:k], acc, build(g, hi, k))
			hi = g
		}
		return acc
	}
	return build(0, len(spans), 0), nil
}

// Single returns the family {{v}}.
func (m *Manager) Single(v int) Node { return m.mk(int32(v), Empty, Base) }

// hasEmptySet reports whether ∅ ∈ f.  The empty set lives at the end
// of the lo-spine.
func (m *Manager) hasEmptySet(f Node) bool {
	for f > Base {
		f = m.lo[f]
	}
	return f == Base
}

// HasEmptySet reports whether the empty set belongs to the family.
// For a covering matrix it flags an uncoverable row.
func (m *Manager) HasEmptySet(f Node) bool { return m.hasEmptySet(f) }

// Count returns the number of sets in the family, saturating at
// MaxUint64.  A chain contributes a single branch point, so the
// recurrence is the plain one over the stored cofactors.
func (m *Manager) Count(f Node) uint64 {
	switch f {
	case Empty:
		return 0
	case Base:
		return 1
	}
	i := mix64(uint64(f)) & uint64(len(m.nkeys)-1)
	if m.nkeys[i] == f {
		return m.nvals[i]
	}
	a, b := m.Count(m.lo[f]), m.Count(m.hi[f])
	n := a + b
	if n < a { // overflow
		n = ^uint64(0)
	}
	m.nkeys[i] = f
	m.nvals[i] = n
	return n
}

// Support returns the sorted list of elements occurring in at least
// one set of f.
func (m *Manager) Support(f Node) []int {
	return m.AppendSupport(nil, f)
}

// AppendSupport appends the sorted support of f to dst and returns the
// extended slice.  The walk marks visited nodes with the manager's
// epoch-stamped visit slice — no per-call maps — so a caller that
// reuses dst across calls pays zero steady-state allocations.
func (m *Manager) AppendSupport(dst []int, f Node) []int {
	if f <= Base {
		return dst
	}
	m.beginVisit()
	base := len(dst)
	// One entry per chain variable, then sort + dedup: the same
	// variable appears on many nodes, but the node walk itself bounds
	// the work.
	var walk func(Node)
	walk = func(n Node) {
		for n > Base && m.vstamp[n] != m.vepoch {
			m.vstamp[n] = m.vepoch
			dst = m.AppendChain(dst, n)
			walk(m.hi[n])
			n = m.lo[n]
		}
	}
	walk(f)
	s := dst[base:]
	slices.Sort(s)
	w := base + 1
	for i := base + 1; i < len(dst); i++ {
		if dst[i] != dst[w-1] {
			dst[w] = dst[i]
			w++
		}
	}
	return dst[:w]
}

// Enumerate visits every set of the family in lexicographic element
// order.  The callback receives a slice that is only valid for the
// duration of the call; return false to stop early.
func (m *Manager) Enumerate(f Node, visit func(set []int) bool) {
	var elems []int
	var rec func(Node) bool
	rec = func(n Node) bool {
		switch n {
		case Empty:
			return true
		case Base:
			return visit(elems)
		}
		if !rec(m.lo[n]) {
			return false
		}
		mark := len(elems)
		elems = m.AppendChain(elems, n)
		ok := rec(m.hi[n])
		elems = elems[:mark]
		return ok
	}
	rec(f)
}

// Member reports whether the given set belongs to the family.
func (m *Manager) Member(f Node, set []int) bool {
	sorted := append([]int(nil), set...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	i := 0
	for {
		if i == len(sorted) {
			return m.hasEmptySet(f)
		}
		if f <= Base {
			return false
		}
		v := m.topVar(f)
		switch {
		case int32(sorted[i]) < v:
			return false
		case int32(sorted[i]) == v:
			// The hi side carries the whole chain: the set must
			// contain every chain variable, consecutively in sorted
			// order up to the next gap.
			for j := 0; j < int(m.clen[f]); j++ {
				if i == len(sorted) || int32(sorted[i]) != m.chainVar(f, j) {
					return false
				}
				i++
			}
			f = m.hi[f]
		default:
			f = m.lo[f]
		}
	}
}
