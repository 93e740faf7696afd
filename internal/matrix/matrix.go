// Package matrix implements the explicit sparse representation of a
// unate covering problem together with the classical logical
// reductions: essential columns, row dominance, column dominance and
// partitioning into independent blocks.  Iterating the reductions to a
// fixed point yields the cyclic core of the problem.
package matrix

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"ucp/internal/budget"
)

// ErrInfeasible reports a covering problem with an uncoverable row: no
// column set can satisfy it.  Solvers return it (possibly wrapped)
// instead of a bare nil solution.
var ErrInfeasible = errors.New("covering problem is infeasible: some row cannot be covered")

// Problem is a unate covering instance min c'p s.t. Ap ≥ e over binary
// p.  Rows hold, for each row of A, the sorted ids of the columns that
// cover it.  Column ids index Cost and may be sparse: a reduced
// problem keeps the original ids of the surviving columns.
type Problem struct {
	Rows [][]int // sorted column ids per row
	NCol int     // size of the column universe (ids are < NCol)
	Cost []int   // cost per column id, len NCol

	cscCache // lazy column-major mirror, see CSC()
}

// New builds a problem, sorting and deduplicating each row's column
// list, and validates it.  A nil cost vector means uniform unit costs.
func New(rows [][]int, ncol int, cost []int) (*Problem, error) {
	if cost == nil {
		cost = make([]int, ncol)
		for j := range cost {
			cost[j] = 1
		}
	}
	if len(cost) != ncol {
		return nil, fmt.Errorf("matrix: %d costs for %d columns", len(cost), ncol)
	}
	p := &Problem{Rows: make([][]int, len(rows)), NCol: ncol, Cost: cost}
	for i, r := range rows {
		rr := append([]int(nil), r...)
		sort.Ints(rr)
		out := rr[:0]
		for k, j := range rr {
			if j < 0 || j >= ncol {
				return nil, fmt.Errorf("matrix: row %d references column %d outside universe %d", i, j, ncol)
			}
			if k > 0 && rr[k-1] == j {
				continue
			}
			out = append(out, j)
		}
		p.Rows[i] = out
	}
	for j, c := range cost {
		if c < 0 {
			return nil, fmt.Errorf("matrix: column %d has negative cost %d", j, c)
		}
	}
	return p, nil
}

// FromSortedRows builds a problem from rows whose column lists are
// already sorted ascending and duplicate-free, taking ownership of the
// slices (no per-row copy or re-sort).  It validates the invariant —
// strictly increasing ids within the universe — so a caller bug fails
// loudly rather than corrupting the reduction engine.  A nil cost
// vector means uniform unit costs.
func FromSortedRows(rows [][]int, ncol int, cost []int) (*Problem, error) {
	if cost == nil {
		cost = make([]int, ncol)
		for j := range cost {
			cost[j] = 1
		}
	}
	if len(cost) != ncol {
		return nil, fmt.Errorf("matrix: %d costs for %d columns", len(cost), ncol)
	}
	for i, r := range rows {
		for k, j := range r {
			if j < 0 || j >= ncol {
				return nil, fmt.Errorf("matrix: row %d references column %d outside universe %d", i, j, ncol)
			}
			if k > 0 && r[k-1] >= j {
				return nil, fmt.Errorf("matrix: row %d is not strictly sorted at position %d", i, k)
			}
		}
	}
	for j, c := range cost {
		if c < 0 {
			return nil, fmt.Errorf("matrix: column %d has negative cost %d", j, c)
		}
	}
	return &Problem{Rows: rows, NCol: ncol, Cost: cost}, nil
}

// MustNew is New that panics on error, for tests and literals.
func MustNew(rows [][]int, ncol int, cost []int) *Problem {
	p, err := New(rows, ncol, cost)
	if err != nil {
		panic(err)
	}
	return p
}

// Clone returns a deep copy.  The copied rows share one backing array,
// each a capped sub-slice of it, so the rows cost two allocations
// whatever their count; an empty row stays nil.
func (p *Problem) Clone() *Problem {
	q := &Problem{Rows: make([][]int, len(p.Rows)), NCol: p.NCol, Cost: append([]int(nil), p.Cost...)}
	flat := make([]int, p.NNZ())
	for i, r := range p.Rows {
		if len(r) > 0 {
			q.Rows[i], flat = flat[:len(r):len(r)], flat[len(r):]
			copy(q.Rows[i], r)
		}
	}
	return q
}

// NumRows returns the number of rows.
func (p *Problem) NumRows() int { return len(p.Rows) }

// ActiveCols returns the sorted ids of the columns appearing in at
// least one row.
func (p *Problem) ActiveCols() []int {
	seen := make([]bool, p.NCol)
	n := 0
	for _, r := range p.Rows {
		for _, j := range r {
			if !seen[j] {
				seen[j] = true
				n++
			}
		}
	}
	out := make([]int, 0, n)
	for j, s := range seen {
		if s {
			out = append(out, j)
		}
	}
	return out
}

// NNZ returns the number of non-zero entries (total row lengths).
func (p *Problem) NNZ() int {
	n := 0
	for _, r := range p.Rows {
		n += len(r)
	}
	return n
}

// ColumnRows returns, for every column id, the sorted list of row
// indices it covers.
func (p *Problem) ColumnRows() [][]int {
	cols := make([][]int, p.NCol)
	for i, r := range p.Rows {
		for _, j := range r {
			cols[j] = append(cols[j], i)
		}
	}
	return cols
}

// IsCover reports whether the column set covers every row.
func (p *Problem) IsCover(cols []int) bool {
	in := make([]bool, p.NCol)
	for _, j := range cols {
		in[j] = true
	}
	for _, r := range p.Rows {
		ok := false
		for _, j := range r {
			if in[j] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// CostOf sums the costs of the given columns.
func (p *Problem) CostOf(cols []int) int {
	t := 0
	for _, j := range cols {
		t += p.Cost[j]
	}
	return t
}

// Irredundant removes redundant columns from a cover, dropping the
// highest-cost redundant column first, as the paper prescribes for the
// final cleanup of p_best.  The input is not modified, and the result
// is a fresh caller-owned slice.  Coverage counts are maintained
// incrementally, so the whole cleanup costs
// O(nnz + removals·|cols|·degree).
func (p *Problem) Irredundant(cols []int) []int {
	var ws Workspace
	return p.irredundantWs(&ws, cols, true)
}

func containsSorted(r []int, j int) bool {
	lo, hi := 0, len(r)
	for lo < hi {
		mid := (lo + hi) / 2
		if r[mid] < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(r) && r[lo] == j
}

// Reduction is the outcome of reducing a problem to its cyclic core.
type Reduction struct {
	Core       *Problem // the cyclic core (may have zero rows)
	Essential  []int    // column ids forced into every minimum solution
	Infeasible bool     // an uncoverable row was found
	// Stopped is set when a budget ran out before the fixpoint; the
	// Core is then only partially reduced but still an equivalent
	// problem (every pass preserves the optimum).
	Stopped bool
	// RowOrigin[i] is the input-row index core row i descends from,
	// which lets callers carry per-row state (such as lagrangian
	// multipliers) across a reduction.
	RowOrigin []int
}

// ReduceBudgetWorkers applies essential-column extraction, row
// dominance and column dominance until none of them changes the
// matrix, returning the cyclic core.  Column dominance keeps the
// cheaper column (breaking ties toward the smaller id), so at least
// one minimum solution of the original problem survives in the core.
//
// The tracker (nil: unlimited) is polled between fixpoint passes and,
// when the budget runs out, the partially reduced problem is returned
// with Stopped set.  Each individual pass preserves the optimum, so a
// stopped reduction is still a valid, equivalent covering problem.
//
// The dominance passes shard across up to workers goroutines (≤ 1:
// fully sequential).  The output is bit-identical to the sequential
// engine for any worker count: each pass gathers its candidate kills
// per shard from immutable pass-start state — both kill sets are
// order-independent, see dropSupersetRows — and applies them in
// canonical index order.
func ReduceBudgetWorkers(p *Problem, tr *budget.Tracker, workers int) *Reduction {
	return reduce(p, tr, workers, nil, nil)
}

// SplitEssentials is the reduction fixpoint's first step on its own:
// an empty row makes p infeasible, the column of every singleton row
// is essential, and every row an essential covers leaves.  ess is
// ascending; rest holds the remaining rows, empty ones included,
// aliasing p's, and kept lists their indices in p.  Without a
// singleton row it returns p itself and a nil kept, allocating
// nothing.
//
// rest has no singleton row, so reducing it repeats none of this step
// and ReduceBudgetWorkers(rest) ends where ReduceBudgetWorkers(p)
// does: the same core, its RowOrigin mapped through kept, and the
// remaining essentials.
func (p *Problem) SplitEssentials() (ess []int, rest *Problem, kept []int, infeasible bool) {
	var isEss []bool // allocated at the first singleton row
	for _, r := range p.Rows {
		switch len(r) {
		case 0:
			infeasible = true
		case 1:
			if isEss == nil {
				isEss = make([]bool, p.NCol)
			}
			if !isEss[r[0]] {
				isEss[r[0]] = true
				ess = append(ess, r[0])
			}
		}
	}
	if ess == nil {
		return nil, p, nil, infeasible
	}
	sort.Ints(ess)
	rest = &Problem{NCol: p.NCol, Cost: p.Cost}
rows:
	for i, r := range p.Rows {
		for _, j := range r {
			if isEss[j] {
				continue rows
			}
		}
		rest.Rows = append(rest.Rows, r)
		kept = append(kept, i)
	}
	return ess, rest, kept, infeasible
}

// ReduceTrace records the dominance facts a reduction applied, as
// (victim, witness) pairs: the input-row index a killed row descends
// from together with the row that dominated it, and the id of a
// removed column together with its dominating column.  Essential
// extractions are not recorded — they are cheap to re-derive and their
// justification (a singleton row) rarely survives an edit verbatim.
//
// A trace is a set of hints, not a proof: facts later in the list may
// have been justified against an already-reduced intermediate state,
// so ReplayReduce re-verifies every pair against the edited child
// before applying it.  That is what makes replay sound under arbitrary
// edits — an invalidated fact simply fails verification and falls back
// to the fixpoint.
type ReduceTrace struct {
	// RowKills holds {killed, killer} input-row index pairs: killer's
	// column set was a subset of killed's when the kill happened.
	RowKills [][2]int32
	// ColKills holds {removed, dominator} column-id pairs: dominator
	// covered a superset of removed's rows at no greater cost.
	ColKills [][2]int32
}

// ReduceTrackedTrace is ReduceBudgetWorkers plus a fact trace for
// later incremental replay (see ReplayReduce): the same fixpoint, bit
// for bit.  Tracing costs one extra O(rows+cols) scratch pass per
// fixpoint round, and a duplicate row still scans the shorter rows,
// because the trace records the first witness in (length, index)
// order.
func ReduceTrackedTrace(p *Problem, tr *budget.Tracker, workers int) (*Reduction, *ReduceTrace) {
	trace := &ReduceTrace{}
	return reduce(p, tr, workers, trace, nil), trace
}

// reduceScratch carries the fixpoint loop's reusable state: the packed
// (length, index) candidate ordering — hoisted out of the passes and
// re-sorted in place each pass instead of re-derived from scratch —
// the packed (content hash, position) keys and equal-row links of the
// duplicate search, the kill marks, and the occupancy signatures.
//
// A signature is the 64-bit fold of a row's column ids (bit j mod 64)
// or a column's row indices (bit i mod 64).  a ⊆ b implies
// sig(a) &^ sig(b) == 0, so a one-word test rejects most dominance
// candidates before any merge over the sorted id slices.  Row
// signatures are maintained incrementally across passes: rows are
// dropped whole (filter the slice) and only rows that lose a column to
// column dominance are re-folded.
type reduceScratch struct {
	workers int
	keys    []int64
	order   []int
	hashes  []uint64
	dup     []int32
	keep    []bool
	rowSig  []uint64
	colSig  []uint64
	active  []int
	deadCol []bool
	// trace, when non-nil, collects the dominance facts the passes
	// apply; killer/domBy are its per-pass witness scratch.
	trace  *ReduceTrace
	killer []int32
	domBy  []int32
	// colHints seeds the first column-dominance pass with candidate
	// (victim, dominator) pairs from a parent trace: each pair is
	// verified against the pass-start state — the same predicate the
	// scan applies — and a verified victim skips its dominator scan.
	// Hints can never change the kill set, only how cheaply it is
	// found, so replayed reductions stay bit-identical to cold ones.
	colHints [][2]int32
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// sigOf folds sorted ids into the 64-bit occupancy signature.
func sigOf(ids []int) uint64 {
	var s uint64
	for _, x := range ids {
		s |= 1 << (uint(x) & 63)
	}
	return s
}

// reduce is the fixpoint behind every reduction entry point.  trace,
// when non-nil, collects the applied dominance facts; colHints, when
// non-nil, seeds the first column-dominance pass with replayed
// candidate kills (see reduceScratch.colHints).
func reduce(p *Problem, tr *budget.Tracker, workers int, trace *ReduceTrace, colHints [][2]int32) *Reduction {
	res := &Reduction{}
	// Every pass rewrites rows in place, so the fixpoint runs on a copy
	// and the input stays untouched.
	cur := p.Clone()
	origin := make([]int, len(cur.Rows))
	for i := range origin {
		origin[i] = i
	}
	st := &reduceScratch{workers: workers, trace: trace, colHints: colHints}
	st.rowSig = growU64(st.rowSig, len(cur.Rows))
	for i, r := range cur.Rows {
		st.rowSig[i] = sigOf(r)
	}
	for {
		if tr.Interrupted() {
			res.Stopped = true
			break
		}
		changed := false

		// Empty rows mean infeasibility.
		for _, r := range cur.Rows {
			if len(r) == 0 {
				res.Infeasible = true
				res.Core = cur
				res.RowOrigin = origin
				return res
			}
		}

		// Essential columns: any row covered by a single column.
		var ess []bool
		nEss := 0
		for _, r := range cur.Rows {
			if len(r) == 1 {
				if ess == nil {
					ess = make([]bool, cur.NCol)
				}
				if !ess[r[0]] {
					ess[r[0]] = true
					nEss++
					res.Essential = append(res.Essential, r[0])
				}
			}
		}
		if nEss > 0 {
			changed = true
			w := 0
			for i, r := range cur.Rows {
				covered := false
				for _, j := range r {
					if ess[j] {
						covered = true
						break
					}
				}
				if !covered {
					cur.Rows[w] = r
					origin[w] = origin[i]
					st.rowSig[w] = st.rowSig[i]
					w++
				}
			}
			if w == 0 {
				// Drop the slices rather than truncate them: an
				// emptied core, which a kept solve stores, then pins
				// neither the copied rows nor the origin array.
				cur.Rows, origin = nil, nil
			} else {
				cur.Rows = cur.Rows[:w]
				origin = origin[:w]
			}
			st.rowSig = st.rowSig[:w]
			cur.InvalidateCSC()
		}

		// Row dominance: keep only inclusion-minimal rows (a row that
		// is a superset of another is covered automatically).
		if o, ok := dropSupersetRows(cur, origin, st); ok {
			origin = o
			changed = true
		}

		// Column dominance: drop column k when some other column j
		// covers every row k covers at no greater cost.
		if dropDominatedCols(cur, st) {
			changed = true
		}

		if !changed {
			break
		}
	}
	sort.Ints(res.Essential)
	res.Core = cur
	res.RowOrigin = origin
	return res
}

// dropSupersetRows removes duplicate rows and rows that strictly
// contain another row, filtering the parallel origin slice alongside.
// It returns the surviving origins and whether anything changed.
//
// The pass gathers kills against immutable pass-start state: row b is
// killed exactly when some row a strictly before it in the canonical
// (length, index) order satisfies a ⊆ b.  That predicate matches the
// sequential engine that kills eagerly and skips killed rows as
// killers — b's earliest subset predecessor can itself never be killed
// (a killer of the killer would be an even earlier subset of b) — and
// it is independent of visit order, so the candidate positions shard
// freely across workers and the marks merge by index.
//
// A row of b's own length contains b only if it equals b, so b scans
// for a subset only among the strictly shorter rows, and failing that
// dies when an equal row of smaller index exists (linkDuplicates finds
// it before the scan, from the same pass-start state).  The kill set
// and the first-in-order witness are those of a scan over every
// earlier row: shorter rows come first in the order, equal rows after
// them by index.
func dropSupersetRows(p *Problem, origin []int, st *reduceScratch) ([]int, bool) {
	n := len(p.Rows)
	// Sort candidates by (length, index), packed into int64 keys so the
	// sort runs without a comparator closure.  Subsets then always
	// precede their supersets, and the index tie-break makes the
	// survivor among duplicate rows canonical (smallest row index).
	st.keys = growI64(st.keys, n)
	for i, r := range p.Rows {
		st.keys[i] = int64(len(r))<<32 | int64(i)
	}
	slices.Sort(st.keys)
	keys := st.keys
	st.order = growInt(st.order, n)
	order := st.order
	for k, key := range keys {
		order[k] = int(key & 0xffffffff)
	}
	dup := linkDuplicates(p, order, st)
	st.keep = growBool(st.keep, n)
	keep := st.keep
	for i := range keep {
		keep[i] = true
	}
	sig := st.rowSig
	// Witness capture for the replay trace: killer[b] is the canonical
	// (first-in-order) dominator of a killed row b.  Shards write
	// disjoint b's, so the slice needs no synchronisation, and the
	// witness is deterministic because the inner scan order is.
	var killer []int32
	if st.trace != nil {
		st.killer = growI32(st.killer, n)
		killer = st.killer
	}
	var nKill atomic.Int64
	parShard(n, st.workers, func(lo, hi int) {
		kills := 0
		for bi := lo; bi < hi; bi++ {
			b := order[bi]
			rb, sb := p.Rows[b], sig[b]
			w := dup[b]
			// An equal row alone decides the kill; only the trace needs
			// to know whether a shorter subset comes first.
			if w < 0 || killer != nil {
				shorter, _ := slices.BinarySearch(keys, int64(len(rb))<<32)
				for _, a := range order[:shorter] {
					if sig[a]&^sb == 0 && isSubsetSorted(p.Rows[a], rb) {
						w = int32(a)
						break
					}
				}
			}
			if w >= 0 {
				keep[b] = false
				if killer != nil {
					killer[b] = w
				}
				kills++
			}
		}
		if kills > 0 {
			nKill.Add(int64(kills))
		}
	})
	if nKill.Load() == 0 {
		return origin, false
	}
	if st.trace != nil {
		// Record in ascending victim index, before the filter below
		// rewrites origin in place.
		for b := 0; b < n; b++ {
			if !keep[b] {
				st.trace.RowKills = append(st.trace.RowKills,
					[2]int32{int32(origin[b]), int32(origin[killer[b]])})
			}
		}
	}
	w := 0
	for i, r := range p.Rows {
		if keep[i] {
			p.Rows[w] = r
			origin[w] = origin[i]
			sig[w] = sig[i]
			w++
		}
	}
	p.Rows = p.Rows[:w]
	origin = origin[:w]
	st.rowSig = sig[:w]
	p.InvalidateCSC()
	return origin, true
}

// linkDuplicates returns, for every row b, the smallest index of
// another row equal to b when that index is below b's, else -1.  order
// is the (length, index) candidate order.  Sorting packed (content
// hash, position in order) keys groups equal rows into runs of one
// hash, listed by position; equal rows share a length, so position
// order is index order among them, and the first equal row a run
// offers is the one of smallest index.  Contents are compared before a
// link is made, so a hash collision costs a comparison, never a wrong
// link.
func linkDuplicates(p *Problem, order []int, st *reduceScratch) []int32 {
	n := len(order)
	st.dup = growI32(st.dup, n)
	dup := st.dup
	st.hashes = growU64(st.hashes, n)
	hs := st.hashes
	for k, b := range order {
		dup[b] = -1
		hs[k] = rowContentHash(p.Rows[b])&^0xffffffff | uint64(k)
	}
	slices.Sort(hs)
	for s := 0; s < n; {
		e := s + 1
		for e < n && hs[e]>>32 == hs[s]>>32 {
			e++
		}
		for t := s + 1; t < e; t++ {
			b := order[hs[t]&0xffffffff]
			for _, h := range hs[s:t] {
				if a := order[h&0xffffffff]; slices.Equal(p.Rows[a], p.Rows[b]) {
					dup[b] = int32(a)
					break
				}
			}
		}
		s = e
	}
	return dup
}

func isSubsetSorted(a, b []int) bool { // a ⊆ b, both sorted
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i == len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

func isSubsetSortedI32(a, b []int32) bool { // a ⊆ b, both sorted
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i == len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// dropDominatedCols removes columns dominated by another column:
// column k dies when some column j covers a superset of k's rows at no
// greater cost (ties broken toward the smaller id).  Like the row
// pass, the kill set is gathered against immutable pass-start state —
// k dies iff a dominator exists at all, because dominance with this
// tie-break is a strict partial order and any dominator of k sits
// below some never-killed maximal dominator — so the candidates shard
// across workers and the kills apply in index order afterwards.
// Column row sets come from the CSC mirror (one O(nnz) build per pass
// instead of per-column slice allocations).
func dropDominatedCols(p *Problem, st *reduceScratch) bool {
	start, idx := p.CSC()
	st.active = st.active[:0]
	for j := 0; j < p.NCol; j++ {
		if start[j+1] > start[j] {
			st.active = append(st.active, j)
		}
	}
	active := st.active
	st.colSig = growU64(st.colSig, p.NCol)
	colSig := st.colSig
	st.deadCol = growBool(st.deadCol, p.NCol)
	dead := st.deadCol
	for _, j := range active {
		var s uint64
		for _, i := range idx[start[j]:start[j+1]] {
			s |= 1 << (uint(i) & 63)
		}
		colSig[j] = s
		dead[j] = false
	}
	var domBy []int32
	if st.trace != nil {
		st.domBy = growI32(st.domBy, p.NCol)
		domBy = st.domBy
	}
	var nDead atomic.Int64
	// Hinted kills first: verify each replayed (victim, dominator) pair
	// with the exact predicate the scan below applies.  A verified
	// victim is killed without scanning for a dominator; an unverified
	// pair is simply dropped and the victim scans normally.  Either way
	// the kill set equals the scan's — a verified dominator IS a
	// witness for the scan's existential — only the recorded witness
	// may differ.  Hints apply to one pass only: they were recorded
	// against the parent's corresponding pass state, and later passes
	// run on states the parent never saw.
	if st.colHints != nil {
		nHint := 0
		for _, f := range st.colHints {
			k, j := int(f[0]), int(f[1])
			if k < 0 || j < 0 || k >= p.NCol || j >= p.NCol || k == j || dead[k] {
				continue
			}
			ck := idx[start[k]:start[k+1]]
			cj := idx[start[j]:start[j+1]]
			if len(ck) == 0 || p.Cost[j] > p.Cost[k] {
				continue
			}
			if colSig[k]&^colSig[j] != 0 || len(ck) > len(cj) || !isSubsetSortedI32(ck, cj) {
				continue
			}
			if len(ck) == len(cj) && p.Cost[j] == p.Cost[k] && j > k {
				continue
			}
			dead[k] = true
			if domBy != nil {
				domBy[k] = int32(j)
			}
			nHint++
		}
		st.colHints = nil
		if nHint > 0 {
			nDead.Add(int64(nHint))
		}
	}
	parShard(len(active), st.workers, func(lo, hi int) {
		kills := 0
		for ki := lo; ki < hi; ki++ {
			k := active[ki]
			if dead[k] {
				continue // killed by a verified hint above
			}
			ck := idx[start[k]:start[k+1]]
			sk, costK := colSig[k], p.Cost[k]
			for _, j := range active {
				if j == k || p.Cost[j] > costK {
					continue
				}
				if sk&^colSig[j] != 0 {
					continue
				}
				cj := idx[start[j]:start[j+1]]
				if len(ck) > len(cj) || !isSubsetSortedI32(ck, cj) {
					continue
				}
				// j covers everything k covers at no greater cost.  With
				// fully equal coverage and cost, keep the smaller id.
				if len(ck) == len(cj) && p.Cost[j] == costK && j > k {
					continue
				}
				dead[k] = true
				if domBy != nil {
					domBy[k] = int32(j)
				}
				kills++
				break
			}
		}
		if kills > 0 {
			nDead.Add(int64(kills))
		}
	})
	if nDead.Load() == 0 {
		return false
	}
	if st.trace != nil {
		for _, k := range active {
			if dead[k] {
				st.trace.ColKills = append(st.trace.ColKills, [2]int32{int32(k), domBy[k]})
			}
		}
	}
	for i, r := range p.Rows {
		out := r[:0]
		for _, j := range r {
			if !dead[j] {
				out = append(out, j)
			}
		}
		p.Rows[i] = out
		if len(out) != len(r) {
			st.rowSig[i] = sigOf(out)
		}
	}
	p.InvalidateCSC()
	return true
}

// FixColumn returns the problem that results from adding column j to
// the solution: rows covered by j disappear.  The column universe is
// unchanged.
func (p *Problem) FixColumn(j int) *Problem {
	q, _ := p.FixColumnTracked(j)
	return q
}

// FixColumnTracked is FixColumn plus the indices of the surviving rows
// in p, for callers carrying per-row state.
func (p *Problem) FixColumnTracked(j int) (*Problem, []int) {
	q := &Problem{NCol: p.NCol, Cost: p.Cost}
	var kept []int
	for i, r := range p.Rows {
		if !containsSorted(r, j) {
			q.Rows = append(q.Rows, append([]int(nil), r...))
			kept = append(kept, i)
		}
	}
	return q, kept
}

// RemoveColumn returns the problem with column j discarded from every
// row (j is excluded from the solution).
func (p *Problem) RemoveColumn(j int) *Problem {
	q := &Problem{NCol: p.NCol, Cost: p.Cost}
	for _, r := range p.Rows {
		out := make([]int, 0, len(r))
		for _, c := range r {
			if c != j {
				out = append(out, c)
			}
		}
		q.Rows = append(q.Rows, out)
	}
	return q
}

// Component is one independent block of a partitioned problem.
type Component struct {
	Problem *Problem
	RowIdx  []int // indices of the component's rows in the parent
}

// ColumnSets is a union-find over a column universe, 4 bytes per
// column and no per-row state: after AddRow has seen every row, two
// columns share a set exactly when the rows connect them, so the sets
// are the connected components of the instance (a row joins the set
// of any of its columns).  Both partitioners use it: Components over
// an assembled matrix, and internal/shard over a stream it never
// assembles.
type ColumnSets struct {
	parent []int32
}

// NewColumnSets returns ncols singleton sets.
func NewColumnSets(ncols int) *ColumnSets {
	s := &ColumnSets{parent: make([]int32, ncols)}
	for j := range s.parent {
		s.parent[j] = int32(j)
	}
	return s
}

// Find returns the root of column j's set.
func (s *ColumnSets) Find(j int) int {
	x := int32(j)
	for s.parent[x] != x {
		s.parent[x] = s.parent[s.parent[x]] // path halving
		x = s.parent[x]
	}
	return int(x)
}

// AddRow unions all the row's columns into one set.
func (s *ColumnSets) AddRow(cols []int) {
	if len(cols) < 2 {
		return
	}
	a := s.Find(cols[0])
	for _, c := range cols[1:] {
		a = s.link(a, s.Find(c))
	}
}

// Union merges the sets of columns a and b.
func (s *ColumnSets) Union(a, b int) {
	s.link(s.Find(a), s.Find(b))
}

// link joins two roots under the smaller one, which it returns:
// letting the smaller root win keeps Find deterministic and cheap
// without a rank array.
func (s *ColumnSets) link(a, b int) int {
	if b < a {
		a, b = b, a
	}
	s.parent[b] = int32(a)
	return a
}

// Components splits the problem into its connected components: rows
// are connected when they share a column.  Solving each component
// independently and uniting the solutions solves the whole problem.
//
// Components are ordered by their smallest row index (the order the
// components first appear scanning rows top to bottom), and each
// component's rows keep their relative input order.  This makes the
// decomposition canonical: any process that discovers the same
// components — in particular the streaming partitioner of
// internal/shard, which never sees the assembled matrix — arrives at
// the same ordering.  An empty row connects to nothing and is a
// component of its own.
//
// Component rows alias p's row slices (no row is copied), so callers
// must treat them as read-only, like p itself; every solver in this
// module clones, compacts or only reads them.
func Components(p *Problem) []Component {
	return components(p, false)
}

// Partition is Components returning nil when the problem has at most
// one connected component (including the empty problem).  Either way
// it costs one union-find over the columns and one counting pass over
// the rows, and its components alias p's rows like Components'.  The
// solve itself splits through Problem.SplitParts.
func Partition(p *Problem) []Component {
	return components(p, true)
}

func components(p *Problem, nilIfConnected bool) []Component {
	// Number the components in order of first appearance (a split with
	// no essentials keeps every row), so component k's first row grows.
	sets, first := rowSets(p)
	s := NewSplit(sets, first, nil, p.Rows, p.Cost)
	compOf, ncomp := s.RestPart, s.NParts
	if len(p.Rows) == 0 {
		ncomp = 0 // a Split counts a rowless problem as one part
	}
	if nilIfConnected && ncomp <= 1 {
		return nil
	}
	// Bucket the rows by component in one counting pass: the components
	// share one row-header and one RowIdx backing array.
	next := make([]int, ncomp+1)
	for _, c := range compOf {
		next[c+1]++
	}
	for c := 1; c <= ncomp; c++ {
		next[c] += next[c-1]
	}
	out := make([]Component, ncomp)
	rows := make([][]int, len(p.Rows))
	rowIdx := make([]int, len(p.Rows))
	for c := range out {
		lo, hi := next[c], next[c+1]
		out[c] = Component{
			Problem: &Problem{Rows: rows[lo:hi:hi], NCol: p.NCol, Cost: p.Cost},
			RowIdx:  rowIdx[lo:hi:hi],
		}
	}
	for i, c := range compOf {
		k := next[c]
		next[c]++
		rows[k], rowIdx[k] = p.Rows[i], i
	}
	return out
}

// Compact renumbers the active columns densely from zero and returns
// the compacted problem plus the mapping from new to original ids.
// Solvers that maintain per-column state use the compact form.
func (p *Problem) Compact() (*Problem, []int) {
	active := p.ActiveCols()
	// Dense id remap: one int32 slice over the column universe instead
	// of a hash map — Compact runs once per fixing step, and the map
	// was the solver's single largest allocation site.
	newID := make([]int32, p.NCol)
	for k, j := range active {
		newID[j] = int32(k)
	}
	q := &Problem{NCol: len(active), Cost: make([]int, len(active)), Rows: make([][]int, len(p.Rows))}
	for k, j := range active {
		q.Cost[k] = p.Cost[j]
	}
	flat := make([]int, p.NNZ())
	for i, r := range p.Rows {
		rr := flat[:len(r):len(r)]
		flat = flat[len(r):]
		for t, j := range r {
			rr[t] = int(newID[j])
		}
		q.Rows[i] = rr
	}
	return q, active
}

// CompactSparse is Compact without the O(NCol) scratch: the active
// columns are gathered from the rows alone, so the cost scales with
// the problem's nonzeros, not the column universe.  A connected
// component carved out of a huge instance keeps the parent's NCol;
// compacting thousands of such components through Compact would cost
// O(components × NCol), which this variant avoids.  The result is
// bit-identical to Compact's.
func (p *Problem) CompactSparse() (*Problem, []int) {
	nnz := p.NNZ()
	all := make([]int, 0, nnz)
	for _, r := range p.Rows {
		all = append(all, r...)
	}
	sort.Ints(all)
	active := all[:0]
	for k, j := range all {
		if k > 0 && all[k-1] == j {
			continue
		}
		active = append(active, j)
	}
	active = append([]int(nil), active...) // free the nnz-sized backing
	newID := make(map[int]int32, len(active))
	for k, j := range active {
		newID[j] = int32(k)
	}
	q := &Problem{NCol: len(active), Cost: make([]int, len(active)), Rows: make([][]int, len(p.Rows))}
	for k, j := range active {
		q.Cost[k] = p.Cost[j]
	}
	flat := make([]int, nnz)
	for i, r := range p.Rows {
		rr := flat[:len(r):len(r)]
		flat = flat[len(r):]
		for t, j := range r {
			rr[t] = int(newID[j])
		}
		q.Rows[i] = rr
	}
	return q, active
}
