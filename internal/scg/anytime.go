package scg

import (
	"math"
	"sort"
	"sync"
)

// anytime assembles the portfolio's per-block incumbents into whole-
// problem covers for the Options.OnImprove hook.  Reductions guarantee
// that the essential columns plus one cover per independent block of
// the cyclic core form a cover of the input problem, so as soon as
// every block has produced its first incumbent the assembly is a
// feasible full cover; every later per-block improvement (a restart
// beating the block's best) yields a cheaper one.  The certified bound
// is the essential cost plus the per-block lower bounds.
//
// The struct is observational only: updates arrive from portfolio
// workers in scheduling order, emissions are serialised under mu, and
// nothing here feeds back into the solve — the bit-identical result
// contract is untouched.
type anytime struct {
	mu        sync.Mutex
	emit      func(sol []int, cost int, lb float64)
	essential []int
	essCost   int

	sols  [][]int   // current best cover per block (nil until first)
	costs []int     // cost of sols[i]
	lbs   []float64 // best certified LB per block (≥ 0; costs are non-negative)
	ready int       // blocks with a first incumbent

	emittedCost int
	emittedLB   float64
}

func newAnytime(essential []int, essCost, nblocks int, emit func([]int, int, float64)) *anytime {
	return &anytime{
		emit:        emit,
		essential:   essential,
		essCost:     essCost,
		sols:        make([][]int, nblocks),
		costs:       make([]int, nblocks),
		lbs:         make([]float64, nblocks),
		emittedCost: math.MaxInt,
		emittedLB:   -1,
	}
}

// slot returns the hook that feeds block c's incumbents to a.
func (a *anytime) slot(c int) func([]int, int, float64) {
	return func(sol []int, cost int, lb float64) { a.update(c, sol, cost, lb) }
}

// update records block c's latest incumbent (sol may be nil: only the
// bound moved) and emits a fresh assembled cover when the global cost
// improved or the global bound tightened.
func (a *anytime) update(c int, sol []int, cost int, lb float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if sol != nil && (a.sols[c] == nil || cost < a.costs[c]) {
		if a.sols[c] == nil {
			a.ready++
		}
		a.sols[c], a.costs[c] = sol, cost
	}
	if lb > a.lbs[c] && !math.IsInf(lb, 1) {
		a.lbs[c] = lb
	}
	if a.ready < len(a.sols) {
		return // some block has no incumbent yet: nothing feasible to show
	}
	total := a.essCost
	lbSum := float64(a.essCost)
	n := len(a.essential)
	for i := range a.sols {
		total += a.costs[i]
		lbSum += a.lbs[i]
		n += len(a.sols[i])
	}
	if total >= a.emittedCost && lbSum <= a.emittedLB {
		return
	}
	if total < a.emittedCost {
		a.emittedCost = total
	}
	if lbSum > a.emittedLB {
		a.emittedLB = lbSum
	}
	full := make([]int, 0, n)
	full = append(full, a.essential...)
	for i := range a.sols {
		full = append(full, a.sols[i]...)
	}
	sort.Ints(full)
	a.emit(full, total, lbSum)
}
