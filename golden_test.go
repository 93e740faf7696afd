package ucp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/matrix"
)

// pinInstances are the fixed inputs of TestPinnedOutputs: a connected
// cyclic instance, a two-part union of two of them, the paper's
// Figure 1, and the degenerate cases (infeasible, empty, solved by the
// reductions alone).
func pinInstances(t *testing.T) map[string]*Problem {
	a := benchmarks.CyclicCovering(2, 60, 45, 3)
	b := benchmarks.CyclicCovering(8, 60, 45, 3)
	if matrix.Partition(a) != nil || matrix.Partition(b) != nil {
		t.Fatal("cyclic pin instances must be connected")
	}
	rows := append([][]int(nil), a.Rows...)
	for _, r := range b.Rows {
		shifted := make([]int, len(r))
		for k, j := range r {
			shifted[k] = j + a.NCol
		}
		rows = append(rows, shifted)
	}
	union := matrix.MustNew(rows, a.NCol+b.NCol, nil)
	if parts := matrix.Partition(union); len(parts) != 2 {
		t.Fatalf("union has %d parts, want 2", len(parts))
	}
	return map[string]*Problem{
		"cyclic":     a,
		"two-part":   union,
		"figure1":    benchmarks.Figure1(),
		"infeasible": matrix.MustNew([][]int{{0, 1}, {}, {2}}, 3, nil),
		"empty":      matrix.MustNew(nil, 3, nil),
		"reduced":    matrix.MustNew([][]int{{0}, {0, 1}, {1, 2}, {2, 3}, {3, 4, 5}, {5}}, 6, []int{1, 1, 1, 2, 1, 1}),
	}
}

// pinEdit returns step k of the deterministic edit chain the pin
// resolves along, applied to p: a near-duplicate row, a fresh column
// (cost 1) over the first rows, a dropped first row.
func pinEdit(p *Problem, k int) *Problem {
	rows, ncol, cost := slices.Clone(p.Rows), p.NCol, slices.Clone(p.Cost)
	switch k {
	case 0:
		row := []int{0, 1}
		if len(rows) > 0 {
			row = append(slices.Clone(rows[len(rows)/2]), 0)
		}
		rows = append(rows, row)
	case 1:
		for i := 0; i < len(rows) && i < 3; i++ {
			rows[i] = append(slices.Clone(rows[i]), ncol)
		}
		ncol, cost = ncol+1, append(cost, 1)
	default:
		if len(rows) > 1 {
			rows = rows[1:]
		} else {
			rows = append(rows, []int{0})
		}
	}
	return matrix.MustNew(rows, ncol, cost)
}

// pinLine renders everything the bit-identity contract covers.
func pinLine(r *SCGResult) string {
	sol := "nil"
	if r.Solution != nil {
		sol = fmt.Sprint(r.Solution)
	}
	s := r.Stats
	return fmt.Sprintf("sol=%s cost=%d lb=%#016x opt=%t core=%dx%d fix=%d runs=%d iters=%d",
		sol, r.Cost, math.Float64bits(r.LB), r.ProvedOptimal,
		s.CoreRows, s.CoreCols, s.FixSteps, s.Runs, s.SubgradIters)
}

// pinned holds the recorded outputs per instance: "solve" for SolveSCG
// at Workers 1 and 4 and through the spilling sharded driver, "keep"
// for Solver.SolveSCGKeep, and "resolve1".."resolve3" for the edit
// chain resolved from the kept state.
var pinned = map[string]map[string]string{
	"cyclic": {
		"solve":    "sol=[4 6 10 15 17 19 21 22 30 32 34 38 41 42 44] cost=15 lb=0x402bebdbed6819a8 opt=false core=60x40 fix=8 runs=4 iters=2505",
		"keep":     "sol=[4 6 10 15 17 19 21 22 30 32 34 38 41 42 44] cost=15 lb=0x402bebdbed6819a8 opt=false core=60x40 fix=8 runs=4 iters=2505",
		"resolve1": "sol=[4 6 10 15 17 19 21 22 30 32 34 38 41 42 44] cost=15 lb=0x402bebdbed6819a8 opt=false core=60x40 fix=8 runs=4 iters=2505",
		"resolve2": "sol=[4 6 10 15 17 19 21 22 30 32 34 38 41 42 44] cost=15 lb=0x402bf4652a44efed opt=false core=60x41 fix=8 runs=4 iters=2997",
		"resolve3": "sol=[4 6 10 15 17 19 21 22 30 32 34 38 41 42 44] cost=15 lb=0x402b7db06208aef6 opt=false core=59x40 fix=11 runs=4 iters=4687",
	},
	"two-part": {
		"solve":    "sol=[4 6 10 15 17 19 21 22 30 32 34 38 41 42 44 49 51 53 54 59 65 69 71 74 76 77 78 82 84 86] cost=30 lb=0x403bb97dd5c2e7f0 opt=false core=114x79 fix=16 runs=8 iters=4966",
		"keep":     "sol=[4 6 10 15 17 19 21 22 30 32 34 38 41 42 44 49 51 53 54 59 65 69 71 74 76 77 78 82 84 86] cost=30 lb=0x403bb97dd5c2e7f0 opt=false core=114x79 fix=16 runs=8 iters=4945",
		"resolve1": "sol=[4 6 10 15 17 19 21 22 30 32 34 38 41 42 44 49 51 53 54 59 65 69 71 74 76 77 78 82 84 86] cost=30 lb=0x403bb97dd5c2e7f0 opt=false core=114x79 fix=16 runs=8 iters=4945",
		"resolve2": "sol=[4 6 10 15 17 19 21 22 30 32 34 38 41 42 44 49 51 53 54 59 65 69 71 74 76 77 78 82 84 86] cost=30 lb=0x403bbdc274315312 opt=false core=114x80 fix=16 runs=8 iters=5437",
		"resolve3": "sol=[4 6 10 15 17 19 21 22 30 32 34 38 41 42 44 49 51 53 54 59 65 69 71 74 76 77 78 82 84 86] cost=30 lb=0x403b826810133296 opt=false core=113x79 fix=19 runs=8 iters=7127",
	},
	"figure1": {
		"solve":    "sol=[0 1 2] cost=3 lb=0x400135e21831c340 opt=true core=4x5 fix=0 runs=0 iters=17",
		"keep":     "sol=[0 1 2] cost=3 lb=0x400135e21831c340 opt=true core=4x5 fix=0 runs=0 iters=17",
		"resolve1": "sol=[0 1 2] cost=3 lb=0x400135e21831c340 opt=true core=4x5 fix=0 runs=0 iters=17",
		"resolve2": "sol=[2 5] cost=2 lb=0x4000000000000000 opt=true core=5x6 fix=0 runs=0 iters=1",
		"resolve3": "sol=[1 2] cost=2 lb=0x4000000000000000 opt=true core=3x3 fix=0 runs=0 iters=1",
	},
	"infeasible": {
		"solve":    "sol=nil cost=0 lb=0x0000000000000000 opt=false core=0x0 fix=0 runs=0 iters=0",
		"keep":     "sol=nil cost=0 lb=0x0000000000000000 opt=false core=0x0 fix=0 runs=0 iters=0",
		"resolve1": "sol=nil cost=0 lb=0x0000000000000000 opt=false core=0x0 fix=0 runs=0 iters=0",
		"resolve2": "sol=[0 3] cost=2 lb=0x4000000000000000 opt=true core=0x0 fix=0 runs=0 iters=0",
		"resolve3": "sol=[0 3] cost=2 lb=0x4000000000000000 opt=true core=0x0 fix=0 runs=0 iters=0",
	},
	"empty": {
		"solve":    "sol=[] cost=0 lb=0x0000000000000000 opt=true core=0x0 fix=0 runs=0 iters=0",
		"keep":     "sol=[] cost=0 lb=0x0000000000000000 opt=true core=0x0 fix=0 runs=0 iters=0",
		"resolve1": "sol=[0] cost=1 lb=0x3ff0000000000000 opt=true core=0x0 fix=0 runs=0 iters=0",
		"resolve2": "sol=[0] cost=1 lb=0x3ff0000000000000 opt=true core=0x0 fix=0 runs=0 iters=0",
		"resolve3": "sol=[0] cost=1 lb=0x3ff0000000000000 opt=true core=0x0 fix=0 runs=0 iters=0",
	},
	"reduced": {
		"solve":    "sol=[0 2 5] cost=3 lb=0x4008000000000000 opt=true core=0x0 fix=0 runs=0 iters=0",
		"keep":     "sol=[0 2 5] cost=3 lb=0x4008000000000000 opt=true core=0x0 fix=0 runs=0 iters=0",
		"resolve1": "sol=[0 2 5] cost=3 lb=0x4008000000000000 opt=true core=0x0 fix=0 runs=0 iters=0",
		"resolve2": "sol=[2 5 6] cost=3 lb=0x4008000000000000 opt=true core=0x0 fix=0 runs=0 iters=0",
		"resolve3": "sol=[1 2 5] cost=3 lb=0x4008000000000000 opt=true core=0x0 fix=0 runs=0 iters=0",
	},
}

// TestPinnedOutputs pins the exact outputs of every solve path on
// fixed instances.  The differential suites compare paths pairwise, so
// a change that shifts both sides at once passes them; this table does
// not move unless a change alters a result on purpose.  Direct and kept
// solves run one pipeline, so on every connected pin (all but
// two-part, which a kept solve does not split) the recorded solve and
// keep lines are the same.
func TestPinnedOutputs(t *testing.T) {
	for name, p := range pinInstances(t) {
		want := pinned[name]
		if name != "two-part" && want["solve"] != want["keep"] {
			t.Errorf("%s: pinned solve line %q differs from keep line %q", name, want["solve"], want["keep"])
		}
		check := func(run, key string, res *SCGResult) {
			t.Helper()
			if got := pinLine(res); got != want[key] {
				t.Errorf("%s %s:\n got %q\nwant %q", name, run, got, want[key])
			}
		}
		opt := SCGOptions{Seed: 11, NumIter: 4}
		for _, w := range []int{1, 4} {
			opt.Workers = w
			check(fmt.Sprintf("workers=%d", w), "solve", SolveSCG(p, opt))
		}
		spill := opt
		spill.Workers, spill.MemBudget = 2, 64
		res := SolveSCG(p, spill)
		if len(p.Rows) > 0 && res.Stats.ShardSpilled == 0 {
			t.Errorf("%s: the spill budget spilled nothing", name)
		}
		check("spill", "solve", res)

		opt.Workers = 2
		s := NewSolver(SolverOptions{})
		kept, keep := s.SolveSCGKeep(p, opt)
		check("keep", "keep", kept)
		cur := p
		for k := 0; k < 3; k++ {
			cur = pinEdit(cur, k)
			var got *SCGResult
			got, keep = s.Resolve(cur, keep, opt)
			check(fmt.Sprintf("resolve step %d", k+1), fmt.Sprintf("resolve%d", k+1), got)
		}
	}
}
