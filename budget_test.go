package ucp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ucp/internal/benchmarks"
)

// The budget tests exercise the degradation ladder end to end: every
// public solver must come back quickly once its budget is gone, flag
// the interruption, and still hand over a feasible cover and a valid
// lower bound.

// slowProblem is large enough that an unbounded multi-run SCG solve
// takes far longer than the deadlines used below.
func slowProblem() *Problem {
	return benchmarks.CyclicCovering(7, 400, 200, 3)
}

// cancelledCtx returns a context that is already cancelled.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestSCGCancelledContextStillFeasible(t *testing.T) {
	p := slowProblem()
	res := SolveSCG(p, SCGOptions{NumIter: 50, Budget: Budget{Context: cancelledCtx()}})
	if !res.Interrupted {
		t.Fatal("cancelled solve not flagged Interrupted")
	}
	if res.StopReason != StopCancelled {
		t.Fatalf("StopReason = %v, want %v", res.StopReason, StopCancelled)
	}
	if res.Solution == nil || !p.IsCover(res.Solution) {
		t.Fatal("interrupted solve must still return a feasible cover")
	}
	if res.LB > float64(res.Cost)+1e-9 {
		t.Fatalf("LB %v exceeds the feasible cost %d", res.LB, res.Cost)
	}
	if res.LB < 0 {
		t.Fatalf("LB %v negative on a non-negative-cost problem", res.LB)
	}
}

func TestSCGDeadlineReturnsPromptly(t *testing.T) {
	p := slowProblem()
	const deadline = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res := SolveSCG(p, SCGOptions{NumIter: 200, Budget: Budget{Context: ctx}})
	elapsed := time.Since(start)
	if !res.Interrupted || res.StopReason != StopDeadline {
		t.Fatalf("Interrupted=%v StopReason=%v, want deadline interruption",
			res.Interrupted, res.StopReason)
	}
	if res.Solution == nil || !p.IsCover(res.Solution) {
		t.Fatal("deadline solve must still return a feasible cover")
	}
	// The checks sit between subgradient phases and fixing steps, so
	// overshoot is one phase, not one solve.  2 s is orders of
	// magnitude below the unbounded 200-run solve and generous enough
	// for a loaded CI machine.
	if elapsed > 2*time.Second {
		t.Fatalf("solve took %v after a %v deadline", elapsed, deadline)
	}
}

func TestSCGIterCapBoundStaysValid(t *testing.T) {
	p := benchmarks.CyclicCovering(3, 40, 25, 3)
	opt := SolveExact(p, ExactOptions{})
	if !opt.Optimal {
		t.Fatal("reference solve did not finish")
	}
	res := SolveSCG(p, SCGOptions{Budget: Budget{IterCap: 5}})
	if !res.Interrupted || res.StopReason != StopIterCap {
		t.Fatalf("Interrupted=%v StopReason=%v, want iteration-cap interruption",
			res.Interrupted, res.StopReason)
	}
	if res.Solution == nil || !p.IsCover(res.Solution) {
		t.Fatal("capped solve must still return a feasible cover")
	}
	if res.LB > float64(opt.Cost)+1e-9 {
		t.Fatalf("interrupted LB %v exceeds the true optimum %d", res.LB, opt.Cost)
	}
}

func TestExactCancelledReturnsBestSoFar(t *testing.T) {
	p := slowProblem()
	res := SolveExact(p, ExactOptions{Budget: Budget{Context: cancelledCtx()}})
	if !res.Interrupted || res.StopReason != StopCancelled {
		t.Fatalf("Interrupted=%v StopReason=%v, want cancellation", res.Interrupted, res.StopReason)
	}
	if res.Optimal {
		t.Fatal("interrupted search must not claim optimality")
	}
	if res.Solution == nil || !p.IsCover(res.Solution) {
		t.Fatal("interrupted exact solve must fall back to a feasible cover")
	}
	if res.LB > res.Cost {
		t.Fatalf("root bound %d exceeds the feasible cost %d", res.LB, res.Cost)
	}
}

func TestExactSearchCapViaBudget(t *testing.T) {
	p := benchmarks.CyclicCovering(11, 120, 60, 3)
	res := SolveExact(p, ExactOptions{Budget: Budget{SearchCap: 3}})
	if !res.Interrupted || res.StopReason != StopSearchCap {
		t.Fatalf("Interrupted=%v StopReason=%v, want search-cap interruption",
			res.Interrupted, res.StopReason)
	}
	if res.Solution == nil || !p.IsCover(res.Solution) {
		t.Fatal("capped exact solve must still return a feasible cover")
	}
}

func TestGreedyBudgetCompletesCover(t *testing.T) {
	p := slowProblem()
	sol, interrupted, err := SolveGreedy(p, Budget{Context: cancelledCtx()})
	if err != nil {
		t.Fatal(err)
	}
	if !interrupted {
		t.Fatal("cancelled greedy not flagged interrupted")
	}
	if !p.IsCover(sol) {
		t.Fatal("greedy is the bottom rung: it must always complete the cover")
	}
}

func TestGreedyInfeasibleSentinel(t *testing.T) {
	p, err := NewProblem([][]int{{0}, {}}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SolveGreedy(p, Budget{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestBinateCancelledFlagsInterruption(t *testing.T) {
	u := slowProblem()
	bp, err := BinateFromUnate(u)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res := SolveBinate(bp, BinateOptions{Budget: Budget{Context: cancelledCtx()}})
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancelled binate solve did not return promptly")
	}
	if !res.Interrupted || res.StopReason != StopCancelled {
		t.Fatalf("Interrupted=%v StopReason=%v, want cancellation", res.Interrupted, res.StopReason)
	}
	if res.Optimal {
		t.Fatal("interrupted binate search must not claim optimality")
	}
}

func TestMinimizeSCGDeadline(t *testing.T) {
	f, err := ParsePLA(strings.NewReader(samplePLA))
	if err != nil {
		t.Fatal(err)
	}
	res, err := MinimizeSCG(f, SCGOptions{Budget: Budget{Context: cancelledCtx()}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled minimisation not flagged Interrupted")
	}
	if res.ProvedOptimal || res.LB != 0 {
		t.Fatal("a partial prime set certifies no bound on the true minimum")
	}
	if !Equivalent(f, res.Cover) {
		t.Fatal("interrupted minimisation must still implement the function")
	}
}

func TestMinimizeEspressoBudgetStaysValid(t *testing.T) {
	f, err := ParsePLA(strings.NewReader(samplePLA))
	if err != nil {
		t.Fatal(err)
	}
	res := MinimizeEspresso(f, EspressoStrong, Budget{Context: cancelledCtx()})
	if !res.Interrupted || res.StopReason != StopCancelled {
		t.Fatalf("Interrupted=%v StopReason=%v, want cancellation", res.Interrupted, res.StopReason)
	}
	if !Equivalent(f, res.Cover) {
		t.Fatal("interrupted espresso cover must still implement the function")
	}
}
