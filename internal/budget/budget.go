// Package budget bounds the work a solver may do.  The paper sells
// ZDD_SCG on predictable runtime, but subgradient ascent, the matrix
// reductions and branch and bound can all run unboundedly on
// adversarial instances.  A Budget caps each of those resources;
// every solver in this library threads a Tracker through its loops and,
// when the budget runs out, stops gracefully with the best feasible
// solution and the tightest valid lower bound found so far.
package budget

import (
	"context"
	"errors"
	"sync/atomic"
)

// Reason classifies why a solve stopped before finishing its work.
type Reason int

// Stop reasons, in the order the Tracker latches them.
const (
	// None: the solve ran to completion.
	None Reason = iota
	// Deadline: the budget context's deadline expired.
	Deadline
	// Cancelled: the budget context was cancelled explicitly (e.g. by
	// a SIGINT handler).
	Cancelled
	// SearchCap: the branch-and-bound node cap was exhausted.
	SearchCap
	// IterCap: the subgradient iteration cap was exhausted.
	IterCap
)

func (r Reason) String() string {
	switch r {
	case None:
		return "none"
	case Deadline:
		return "deadline"
	case Cancelled:
		return "cancelled"
	case SearchCap:
		return "search-node cap"
	case IterCap:
		return "subgradient-iteration cap"
	}
	return "unknown"
}

// Budget bounds one solve.  The zero value is unlimited.  Budgets are
// plain configuration: hand the same value to as many solves as you
// like; each solve tracks its own consumption.
type Budget struct {
	// Context carries the wall-clock deadline and cancellation; nil
	// means no deadline.
	Context context.Context
	// SearchCap caps branch-and-bound nodes across the whole solve.
	// 0 = unlimited.
	SearchCap int64
	// IterCap caps subgradient iterations across the whole solve
	// (all phases and restarts together).  0 = unlimited.
	IterCap int
}

// Tracker returns the runtime state for one solve under b, or nil when
// b imposes no interruptible limit (a nil *Tracker never interrupts —
// every method has a nil-receiver fast path).
func (b Budget) Tracker() *Tracker {
	if b.Context == nil && b.SearchCap == 0 && b.IterCap == 0 {
		return nil
	}
	t := &Tracker{searchCap: b.SearchCap, iterCap: int64(b.IterCap)}
	if b.Context != nil {
		t.done = b.Context.Done()
		t.ctxErr = b.Context.Err
	}
	return t
}

// Tracker accumulates one solve's consumption against its Budget.  All
// methods are safe for concurrent use: the portfolio solver charges
// iterations from several restart workers against the same caps, and a
// cancellation must be observed by every worker.  The first exhausted
// limit is latched and every later check reports it.
//
// Note that with concurrent chargers the exact instant a shared cap
// trips depends on scheduling, so interrupted solves are best-effort;
// the determinism contract of the portfolio solver applies to solves
// the budget did not cut short.
type Tracker struct {
	done   <-chan struct{}
	ctxErr func() error

	searchCap   int64
	iterCap     int64
	searchNodes atomic.Int64
	iters       atomic.Int64

	reason atomic.Int32
}

// latch records r as the stop reason unless one is already set.
func (t *Tracker) latch(r Reason) {
	t.reason.CompareAndSwap(int32(None), int32(r))
}

// Interrupted polls the budget: it returns true once the deadline has
// passed, the context was cancelled, or a cap was exhausted.  The
// verdict is latched — once true, always true.
func (t *Tracker) Interrupted() bool {
	if t == nil {
		return false
	}
	if Reason(t.reason.Load()) != None {
		return true
	}
	if t.done != nil {
		select {
		case <-t.done:
			if errors.Is(t.ctxErr(), context.DeadlineExceeded) {
				t.latch(Deadline)
			} else {
				t.latch(Cancelled)
			}
			return true
		default:
		}
	}
	return false
}

// Reason reports why the tracker latched, or None.
func (t *Tracker) Reason() Reason {
	if t == nil {
		return None
	}
	return Reason(t.reason.Load())
}

// AddSearchNodes charges n branch-and-bound nodes and reports whether
// the budget is now exhausted (by any limit, not just the node cap).
func (t *Tracker) AddSearchNodes(n int64) bool {
	if t == nil {
		return false
	}
	if t.searchNodes.Add(n) > t.searchCap && t.searchCap > 0 {
		t.latch(SearchCap)
	}
	return t.Interrupted()
}

// AddIters charges n subgradient iterations and reports whether the
// budget is now exhausted.
func (t *Tracker) AddIters(n int) bool {
	if t == nil {
		return false
	}
	if t.iters.Add(int64(n)) > t.iterCap && t.iterCap > 0 {
		t.latch(IterCap)
	}
	return t.Interrupted()
}

// SearchNodes returns the branch-and-bound nodes charged so far.
func (t *Tracker) SearchNodes() int64 {
	if t == nil {
		return 0
	}
	return t.searchNodes.Load()
}

// Iters returns the subgradient iterations charged so far.
func (t *Tracker) Iters() int {
	if t == nil {
		return 0
	}
	return int(t.iters.Load())
}
