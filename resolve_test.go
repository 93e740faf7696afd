package ucp

import (
	"math/rand"
	"slices"
	"testing"

	"ucp/internal/benchmarks"
)

// sameSCG asserts the bit-identity contract between two SCG results
// (timings and cache counters exempt).
func sameSCG(t *testing.T, label string, got, want *SCGResult) {
	t.Helper()
	if len(got.Solution) != len(want.Solution) {
		t.Fatalf("%s: solutions differ: %v vs %v", label, got.Solution, want.Solution)
	}
	for i := range want.Solution {
		if got.Solution[i] != want.Solution[i] {
			t.Fatalf("%s: solutions differ: %v vs %v", label, got.Solution, want.Solution)
		}
	}
	if got.Cost != want.Cost || got.LB != want.LB || got.ProvedOptimal != want.ProvedOptimal {
		t.Fatalf("%s: cost/LB differ", label)
	}
	if got.Stats.Runs != want.Stats.Runs || got.Stats.SubgradIters != want.Stats.SubgradIters ||
		got.Stats.FixSteps != want.Stats.FixSteps {
		t.Fatalf("%s: stats differ: %+v vs %+v", label, got.Stats, want.Stats)
	}
}

// TestSolverResolveChain: explicit-handle resolves along an edit chain
// are bit-identical to cold kept solves of each child.
func TestSolverResolveChain(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	s := NewSolver(SolverOptions{})
	for trial := 0; trial < 15; trial++ {
		p := benchmarks.RandomCovering(rng.Int63(), 20, 15, 0.3, 3)
		opt := SCGOptions{Seed: int64(trial), NumIter: 2, Workers: 1 + trial%4}
		_, keep := s.SolveSCGKeep(p, opt)
		cur := p
		for gen := 0; gen < 2; gen++ {
			src := cur.Rows[rng.Intn(len(cur.Rows))]
			child := withRows(cur, append(slices.Clone(src), rng.Intn(cur.NCol)))
			want, _ := NewSolver(SolverOptions{}).SolveSCGKeep(child, opt)
			got, next := s.Resolve(child, keep, opt)
			sameSCG(t, "chain", got, want)
			keep, cur = next, child
		}
	}
	st := s.ResolveStats()
	if st.Resolves == 0 || st.ParentHits != st.Resolves {
		t.Fatalf("resolve stats wrong: %+v", st)
	}
}

// withRows returns p with rows appended, normalised like NewProblem.
func withRows(p *Problem, rows ...[]int) *Problem {
	q, err := NewProblem(append(slices.Clone(p.Rows), rows...), p.NCol, p.Cost)
	if err != nil {
		panic(err)
	}
	return q
}

// TestSolverResolveUnrelatedParent: a parent whose problem is not the
// child's is still a usable parent — blocks are matched by content —
// so the resolve counts a parent hit, no fallback, and equals the cold
// kept solve.
func TestSolverResolveUnrelatedParent(t *testing.T) {
	s := NewSolver(SolverOptions{})
	opt := SCGOptions{Seed: 5, NumIter: 2}
	_, keep := s.SolveSCGKeep(benchmarks.RandomCovering(99, 25, 18, 0.3, 3), opt)
	p := benchmarks.RandomCovering(7, 25, 18, 0.3, 3)
	child := withRows(p, append(slices.Clone(p.Rows[3]), 5))
	want, _ := NewSolver(SolverOptions{}).SolveSCGKeep(child, opt)
	got, _ := s.Resolve(child, keep, opt)
	sameSCG(t, "unrelated", got, want)
	if rs := s.ResolveStats(); rs.Resolves != 1 || rs.ParentHits != 1 || rs.Fallbacks != 0 {
		t.Fatalf("resolve stats wrong: %+v", rs)
	}
}

// TestSolverResolveNilParent: with no parent, Resolve is a cold kept
// solve, counted as neither a parent hit nor a fallback.
func TestSolverResolveNilParent(t *testing.T) {
	s := NewSolver(SolverOptions{})
	p := benchmarks.RandomCovering(3, 15, 12, 0.3, 3)
	opt := SCGOptions{Seed: 1}
	child := withRows(p, []int{0, 1})
	want, _ := s.SolveSCGKeep(child, opt)
	got, _ := s.Resolve(child, nil, opt)
	sameSCG(t, "nil parent", got, want)
	if rs := s.ResolveStats(); rs.Resolves != 1 || rs.ParentHits != 0 || rs.Fallbacks != 0 {
		t.Fatalf("resolve stats wrong: %+v", rs)
	}
}

// TestResolvableAccessors: the handle exposes its result.
func TestResolvableAccessors(t *testing.T) {
	s := NewSolver(SolverOptions{})
	p := benchmarks.RandomCovering(11, 12, 10, 0.3, 3)
	res, keep := s.SolveSCGKeep(p, SCGOptions{Seed: 2})
	if keep.Result() != res {
		t.Fatal("Result accessor mismatch")
	}
}
