package scg

import (
	"math"
	"sync"
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/budget"
	"ucp/internal/matrix"
)

// anytimeProblem builds a decomposable instance large enough for the
// portfolio to emit several incumbents.
func anytimeProblem(t *testing.T) *matrix.Problem {
	t.Helper()
	p := benchmarks.CyclicCovering(7, 60, 40, 4)
	if p == nil {
		t.Fatal("generator returned nil")
	}
	return p
}

// TestOnImproveEmitsFeasibleMonotoneIncumbents: every emitted cover
// must be feasible with a matching cost, costs must never increase,
// bounds must never decrease, and the hook must not perturb the solved
// result (bit-identity with a hook-less solve).
func TestOnImproveEmitsFeasibleMonotoneIncumbents(t *testing.T) {
	p := anytimeProblem(t)

	type ev struct {
		sol  []int
		cost int
		lb   float64
	}
	var mu sync.Mutex
	var events []ev
	opt := Options{Seed: 3, NumIter: 6, Workers: 4}
	opt.OnImprove = func(sol []int, cost int, lb float64) {
		mu.Lock()
		events = append(events, ev{sol, cost, lb})
		mu.Unlock()
	}
	res := Solve(p, opt)
	if res.Solution == nil {
		t.Fatal("instance unexpectedly infeasible")
	}
	if len(events) == 0 {
		t.Fatal("no incumbents emitted")
	}
	prevCost := math.MaxInt
	prevLB := math.Inf(-1)
	for i, e := range events {
		if !p.IsCover(e.sol) {
			t.Fatalf("event %d: emitted solution is not a cover", i)
		}
		if got := p.CostOf(e.sol); got != e.cost {
			t.Fatalf("event %d: reported cost %d, actual %d", i, e.cost, got)
		}
		if e.cost > prevCost && e.lb <= prevLB {
			t.Fatalf("event %d: neither cost improved (%d after %d) nor LB (%g after %g)",
				i, e.cost, prevCost, e.lb, prevLB)
		}
		if e.cost < prevCost {
			prevCost = e.cost
		}
		if e.lb > prevLB {
			prevLB = e.lb
		}
		if e.lb > float64(e.cost)+1e-9 {
			t.Fatalf("event %d: certified LB %g exceeds incumbent cost %d", i, e.lb, e.cost)
		}
	}
	// The final solution can only beat the last streamed incumbent (the
	// final pass re-irredundants globally).
	if res.Cost > prevCost {
		t.Fatalf("final cost %d worse than last streamed incumbent %d", res.Cost, prevCost)
	}

	// Observational only: identical result without the hook.
	plain := Solve(p, Options{Seed: 3, NumIter: 6, Workers: 4})
	if plain.Cost != res.Cost || plain.LB != res.LB {
		t.Fatalf("hook changed the result: (%d, %g) vs (%d, %g)", res.Cost, res.LB, plain.Cost, plain.LB)
	}
}

// TestOnImproveUnderBudget: even with an iteration-capped budget the
// emitted incumbents stay feasible and the final result is feasible.
func TestOnImproveUnderBudget(t *testing.T) {
	p := anytimeProblem(t)
	var mu sync.Mutex
	count := 0
	opt := Options{Seed: 5, NumIter: 4, Workers: 2,
		Budget: budget.Budget{IterCap: 40}}
	opt.OnImprove = func(sol []int, cost int, lb float64) {
		mu.Lock()
		defer mu.Unlock()
		count++
		if !p.IsCover(sol) {
			t.Error("budget-capped emission is not a cover")
		}
	}
	res := Solve(p, opt)
	if res.Solution == nil || !p.IsCover(res.Solution) {
		t.Fatal("interrupted solve must still return a feasible cover")
	}
}

// TestOnImproveWithSettledParts: a part the reductions settle runs no
// portfolio, yet it must still fill its slot of the cross-part
// assembler, or no whole-problem cover is ever emitted.  The input is
// a cyclic covering beside a one-row part whose row is a singleton,
// in either order.
func TestOnImproveWithSettledParts(t *testing.T) {
	cyc := benchmarks.CyclicCovering(3, 40, 30, 3)
	cost := append(append([]int(nil), cyc.Cost...), 2)
	single := []int{cyc.NCol}
	for _, first := range []bool{true, false} {
		rows := append([][]int(nil), cyc.Rows...)
		if first {
			rows = append([][]int{single}, rows...)
		} else {
			rows = append(rows, single)
		}
		p := matrix.MustNew(rows, cyc.NCol+1, cost)
		var mu sync.Mutex
		n, best := 0, math.MaxInt
		opt := Options{Seed: 1, NumIter: 3}
		opt.OnImprove = func(sol []int, cost int, lb float64) {
			mu.Lock()
			defer mu.Unlock()
			n++
			if !p.IsCover(sol) {
				t.Errorf("singleton first=%v: emitted %v is not a cover of the whole input", first, sol)
			}
			if got := p.CostOf(sol); got != cost {
				t.Errorf("singleton first=%v: reported cost %d, actual %d", first, cost, got)
			}
			best = min(best, cost)
		}
		res := Solve(p, opt)
		if n == 0 {
			t.Fatalf("singleton first=%v: OnImprove never fired on a two-part input", first)
		}
		if res.Cost > best {
			t.Fatalf("singleton first=%v: final cost %d worse than streamed %d", first, res.Cost, best)
		}
	}
}
