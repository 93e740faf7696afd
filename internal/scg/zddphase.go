package scg

import (
	"sort"

	"ucp/internal/budget"
	"ucp/internal/matrix"
	"ucp/internal/zdd"
)

// ImplicitResult is the outcome of the ZDD reduction phase.
type ImplicitResult struct {
	Core       *matrix.Problem // decoded (near-)cyclic core
	Essential  []int           // column ids fixed by singleton rows
	Infeasible bool
	// Aborted is set when the node cap or the budget cut the phase
	// short; the other fields are then meaningless and the caller must
	// fall back to the explicit reduction path on the original matrix.
	Aborted  bool
	ZDDNodes int // high-water node store of the manager (survives GC)
	Passes   int // reduction sweeps executed
	// LiveNodes and PlainNodes profile the surviving family when the
	// phase ends: reachable chain nodes, and the plain-equivalent node
	// count a chain-free ZDD would need for the same family.  Their
	// ratio is the chain-compression factor (see zdd.LiveProfile).
	LiveNodes  int
	PlainNodes int
	// Collections counts the mark-sweep garbage collections the phase
	// ran to stay under the node cap (see the GC ladder below).
	Collections int
	// Dense is set when the input already met the MaxR × MaxC early
	// exit, so the phase built no ZDD and the explicit fixpoint of
	// matrix.ReduceBudgetWorkers reduced it instead.  ZDDNodes and
	// Passes are then zero.  The field keeps its name because
	// benchmark/child.go reads it.
	Dense bool
}

// zddGC gates the mark-sweep collections of the implicit phase; the
// tests flip it off to measure how deep a capped phase reaches without
// node-store hygiene.
var zddGC = true

// zddChain selects the chain-reduced node layout for the implicit
// phase's manager; the differential tests flip it to run the same
// phase on the plain reference engine and compare results bit for
// bit (and node budgets not at all: chains are the budget win).
var zddChain = true

// zddGCRetries bounds how many times one phase may answer a node-cap
// panic with a collection and a retry.  Each retry wastes at most one
// partial pass, so the bound keeps the phase terminating even when a
// single operation's working set genuinely exceeds the cap (the sweep
// then frees the same garbage every round without progress).
const zddGCRetries = 8

// validCols reports whether every entry indexes the cost vector.
// matrix.New enforces this, but the implicit phase is also the place
// where hand-built Problems get caught, so the explicit shortcut
// (whose passes index unchecked) verifies before claiming the
// instance; the ZDD load rejects a negative id itself.
func validCols(p *matrix.Problem) bool {
	for _, r := range p.Rows {
		for _, j := range r {
			if j < 0 || j >= p.NCol {
				return false
			}
		}
	}
	return true
}

// ImplicitReduceBudgetWorkers loads the covering matrix into a single
// ZDD — one set of column ids per row, built bottom-up in one pass
// over the sorted rows (zdd.Manager.Family) — and iterates the
// implicit reductions of the paper's ZDD_Reductions procedure:
//
//   - duplicate rows collapse for free (ZDD canonicity),
//   - row dominance is the Minimal operation (keep inclusion-minimal
//     row sets),
//   - essential columns are the singleton sets; fixing one removes
//     every row that contains it (Subset0),
//   - column dominance removes column k when another column j with
//     cost_j ≤ cost_k covers a superset of k's rows, checked with
//     Subset operations.
//
// The loop stops when a sweep changes nothing or as soon as the
// explicit size falls below maxR rows and maxC columns (the paper's
// MaxR/MaxC early exit), and the surviving family is decoded back to a
// sparse matrix.
//
// nodeCap limits the ZDD manager's node store (0 = unlimited) and tr
// (nil: unlimited) carries the deadline; when either cuts the phase
// short the result comes back with Aborted set and the caller degrades
// to the explicit reduction path — the paper's algorithm still
// terminates with the same final cover it would produce with the
// implicit phase disabled.  The node cap measures the *live* working
// set, not the allocation history: the surviving family is a
// registered GC root, dead intermediate results are reclaimed by
// mark-sweep collections (both proactively near the cap and in
// response to a cap overrun, which is retried after the sweep), and
// only when the live nodes themselves crowd the cap — or the retry
// budget is spent — does the phase abort.  The load strands no
// garbage, so a family that does not fit the cap aborts the phase at
// the load, without a collection.
//
// An input that already has at most maxR rows and maxC active columns
// meets the early exit before the first sweep, so no ZDD is built:
// matrix.ReduceBudgetWorkers reduces it, with its dominance passes
// sharded across up to workers goroutines, and the result has Dense
// set.  The ZDD engine itself is sequential (the manager is
// single-threaded by design), so workers matters only to this
// shortcut, and a node cap only to the ZDD.
func ImplicitReduceBudgetWorkers(p *matrix.Problem, maxR, maxC, nodeCap int, tr *budget.Tracker, workers int) (res *ImplicitResult) {
	res = &ImplicitResult{}

	// If the deadline cuts the explicit fixpoint short, its partially
	// reduced core is still an equivalent problem, so it is returned
	// rather than aborted.
	if len(p.Rows) <= maxR && validCols(p) && len(p.ActiveCols()) <= maxC {
		red := matrix.ReduceBudgetWorkers(p, tr, workers)
		res.Dense = true
		res.Infeasible = red.Infeasible
		if !red.Infeasible {
			res.Essential = red.Essential
			res.Core = red.Core
		}
		return res
	}

	m := zdd.New()
	if !zddChain {
		m = zdd.NewPlain()
	}
	m.SetNodeLimit(nodeCap)
	f := zdd.Empty
	// The surviving family is the phase's only long-lived value: it is
	// the single permanent GC root, and every step below re-reads it
	// after a collection (Collect rewrites the root in place).
	m.AddRoot(&f)

	// try runs one step and reports whether it overran the node cap;
	// any other panic propagates.
	try := func(step func()) (overran bool) {
		defer func() {
			if r := recover(); r != nil {
				if r != zdd.ErrNodeLimit {
					panic(r)
				}
				overran = true
			}
		}()
		step()
		return false
	}
	// run executes one reduction step, answering a node-cap overrun
	// with a mark-sweep collection and a retry.  Steps must be
	// restartable: they may read only f (and immutable inputs) at entry
	// and keep every intermediate Node local, so re-running one after a
	// sweep recomputes exactly the work the overrun threw away.  run
	// reports false when the phase must abort: GC disabled, nothing
	// reclaimed, live nodes still crowding the cap, or the retry budget
	// spent.
	retries := zddGCRetries
	run := func(step func()) bool {
		for try(step) {
			if !zddGC || retries <= 0 {
				return false
			}
			retries--
			res.Collections++
			if freed := m.Collect(); freed == 0 || m.NodeCount() >= nodeCap {
				// The live family itself fills the cap: collecting
				// again cannot help, degrade to the explicit path.
				return false
			}
		}
		return true
	}
	// finish harvests the manager's observability counters into the
	// result; every exit path runs it so ucpsolve -v and ucpd /stats
	// see the phase's node profile even on aborts.
	finish := func() {
		res.ZDDNodes = m.PeakNodeCount()
		res.LiveNodes, res.PlainNodes = m.LiveProfile()
	}
	abort := func() *ImplicitResult {
		res.Aborted = true
		finish()
		return res
	}

	// Load the rows in one bottom-up pass (zdd.Family).  The load
	// starts from an empty store and strands no garbage, so at a cap
	// overrun the store holds nothing but the load's own partial build:
	// a retry after a collection would rebuild the same nodes and
	// overrun again, and the phase aborts at once instead.  A negative
	// column id (which matrix.New already rejects) also degrades to the
	// explicit path, which reports the problem through its own
	// validation.
	var loadErr error
	if try(func() { f, loadErr = m.Family(p.Rows) }) || loadErr != nil {
		return abort()
	}

	// essSeen guards the essential list against the duplicates a
	// retried step could otherwise append (the retry re-detects
	// singletons it had already recorded before the overrun).
	var essSeen []bool

	for {
		res.Passes++
		if tr.Interrupted() {
			return abort()
		}
		if m.HasEmptySet(f) {
			res.Infeasible = true
			finish()
			return res
		}
		// Node-store hygiene between passes: when the store nears the
		// cap, sweep the previous passes' dead intermediates before the
		// next one rams the limit.
		if zddGC && nodeCap > 0 && m.NodeCount() >= nodeCap-nodeCap/4 {
			res.Collections++
			m.Collect()
		}
		// start tracks whether the pass changed the family.  It is a
		// root for the duration of the pass so a mid-pass collection
		// renumbers it together with f, keeping the comparison exact
		// (canonicity: equal ids ⇔ equal families).
		start := f
		m.AddRoot(&start)

		// Row dominance.
		ok := run(func() { f = m.Minimal(f) })

		// Essential columns.
		ok = ok && run(func() {
			for {
				singles := m.Singletons(f)
				if singles == zdd.Empty {
					return
				}
				var ess []int
				m.Enumerate(singles, func(set []int) bool {
					ess = append(ess, set[0])
					return true
				})
				for _, j := range ess {
					if essSeen == nil {
						essSeen = make([]bool, p.NCol)
					}
					if !essSeen[j] {
						essSeen[j] = true
						res.Essential = append(res.Essential, j)
					}
					f = m.Subset0(f, j) // rows containing j are covered
				}
			}
		})

		// Column dominance on the surviving support.
		ok = ok && run(func() {
			support := m.Support(f)
			for _, k := range support {
				rowsK := m.Subset1(f, k)
				if rowsK == zdd.Empty {
					continue
				}
				for _, j := range support {
					if j == k || p.Cost[j] > p.Cost[k] {
						continue
					}
					// k is dominated when every row containing k also
					// contains j: no row in Subset1(f,k) avoids j.
					if m.Subset0(rowsK, j) != zdd.Empty {
						continue
					}
					// Tie-break for fully equal columns: keep smaller id.
					if p.Cost[j] == p.Cost[k] && j > k {
						rowsJ := m.Subset1(f, j)
						if m.Subset0(rowsJ, k) == zdd.Empty {
							continue // identical coverage: j will be removed instead
						}
					}
					f = m.Remove(f, k)
					break
				}
			}
		})

		m.RemoveRoot(&start)
		if !ok {
			return abort()
		}
		if f == start {
			break
		}
		rows := m.Count(f)
		cols := len(m.Support(f))
		if rows <= uint64(maxR) && cols <= maxC {
			// Small enough for the explicit phase; reductions continue
			// there.
			break
		}
	}

	if m.HasEmptySet(f) {
		res.Infeasible = true
		finish()
		return res
	}

	// Decode the family back to an explicit sparse matrix.
	core := &matrix.Problem{NCol: p.NCol, Cost: p.Cost}
	m.Enumerate(f, func(set []int) bool {
		core.Rows = append(core.Rows, append([]int(nil), set...))
		return true
	})
	sort.Ints(res.Essential)
	res.Core = core
	finish()
	return res
}
