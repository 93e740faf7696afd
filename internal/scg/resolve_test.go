package scg

import (
	"math"
	"math/rand"
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/bnb"
	"ucp/internal/matrix"
)

// editProblem applies a few random edits to p through the public delta
// API: added rows (fresh and near-duplicate), dropped rows, added
// columns, emptied columns.
func editProblem(rng *rand.Rand, p *matrix.Problem) *matrix.Delta {
	d := p.BeginDelta()
	n := 1 + rng.Intn(4)
	for e := 0; e < n; e++ {
		var err error
		switch rng.Intn(5) {
		case 0: // fresh random row
			var row []int
			for t := 0; t <= rng.Intn(4); t++ {
				row = append(row, rng.Intn(d.Child.NCol))
			}
			d, err = d.AddRows([][]int{row})
		case 1: // superset near-duplicate of an existing row
			if len(d.Child.Rows) == 0 {
				continue
			}
			src := d.Child.Rows[rng.Intn(len(d.Child.Rows))]
			row := append(append([]int(nil), src...), rng.Intn(d.Child.NCol))
			d, err = d.AddRows([][]int{row})
		case 2: // drop a row
			if len(d.Child.Rows) <= 2 {
				continue
			}
			d, err = d.RemoveRows([]int{rng.Intn(len(d.Child.Rows))})
		case 3: // fresh column covering a few rows
			var cover []int
			for t := 0; t <= rng.Intn(3); t++ {
				if len(d.Child.Rows) > 0 {
					cover = append(cover, rng.Intn(len(d.Child.Rows)))
				}
			}
			d, err = d.AddCols([]int{1 + rng.Intn(3)}, [][]int{cover})
		case 4: // empty a column, but keep every row coverable
			j := rng.Intn(d.Child.NCol)
			sole := false
			for _, r := range d.Child.Rows {
				if len(r) == 1 && r[0] == j {
					sole = true
					break
				}
			}
			if sole {
				continue
			}
			d, err = d.RemoveCols([]int{j})
		}
		if err != nil {
			panic(err)
		}
	}
	return d
}

// sameSolve asserts two results agree on everything the bit-identity
// contract covers (timing, ZDD and cache counters are exempt).
func sameSolve(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Solution) != len(want.Solution) {
		t.Fatalf("%s: solutions differ: %v vs %v", label, got.Solution, want.Solution)
	}
	for i, j := range want.Solution {
		if got.Solution[i] != j {
			t.Fatalf("%s: solutions differ: %v vs %v", label, got.Solution, want.Solution)
		}
	}
	if got.Cost != want.Cost || got.LB != want.LB || got.ProvedOptimal != want.ProvedOptimal {
		t.Fatalf("%s: cost/LB differ: (%d, %v, %v) vs (%d, %v, %v)",
			label, got.Cost, got.LB, got.ProvedOptimal, want.Cost, want.LB, want.ProvedOptimal)
	}
	gs, ws := got.Stats, want.Stats
	if gs.CoreRows != ws.CoreRows || gs.CoreCols != ws.CoreCols ||
		gs.FixSteps != ws.FixSteps || gs.Runs != ws.Runs || gs.SubgradIters != ws.SubgradIters {
		t.Fatalf("%s: stats differ: core %dx%d steps %d runs %d iters %d vs core %dx%d steps %d runs %d iters %d",
			label, gs.CoreRows, gs.CoreCols, gs.FixSteps, gs.Runs, gs.SubgradIters,
			ws.CoreRows, ws.CoreCols, ws.FixSteps, ws.Runs, ws.SubgradIters)
	}
}

// TestSolveKeepMatchesSolve: keeping state must not perturb the solve —
// SolveKeep solves the whole input as part 0 through the same pipeline,
// so on connected inputs it equals Solve bit for bit.  (Inputs with
// several parts run different restart streams; the pinned-output table
// in the root package covers them.)
func TestSolveKeepMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 14, 12, 3)
		opt := Options{Seed: int64(trial), NumIter: 3, Workers: 1 + trial%4}
		want := Solve(p, opt)
		got, st := SolveKeep(p, opt)
		sameSolve(t, "keep", got, want)
		if st.Result() != got || !matrix.Equal(st.Problem(), p) {
			t.Fatal("state accessors disagree with the returned result")
		}
	}
	// Connected cyclic instances large enough for the restarts to run.
	for k, seed := range []int64{1, 2, 4, 5} {
		p := benchmarks.CyclicCovering(seed, 60, 45, 3)
		if matrix.Partition(p) != nil {
			t.Fatalf("seed %d: instance is not connected", seed)
		}
		opt := Options{Seed: 11, NumIter: 4, Workers: 1 + k}
		want := Solve(p, opt)
		if want.Stats.Runs == 0 {
			t.Fatalf("seed %d: no restart ran", seed)
		}
		got, _ := SolveKeep(p, opt)
		sameSolve(t, "keep cyclic", got, want)
	}
	// The largest part of a wide PLA covering, where Solve used to run
	// the ZDD engine.
	wide := widePart(t)
	opt := Options{Seed: 11, NumIter: 4, Workers: 2}
	got, _ := SolveKeep(wide, opt)
	sameSolve(t, "keep wide", got, Solve(wide, opt))
}

// TestResolveMatchesCold is the resolve bit-exactness contract: for
// random instances, random edit chains and worker counts 1/2/4/8, the
// incremental result must equal a cold SolveKeep of the child exactly —
// solution, cost, bounds and the deterministic Stats counters.
func TestResolveMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 40; trial++ {
		p := randomProblem(rng, 16, 14, 3)
		workers := []int{1, 2, 4, 8}[trial%4]
		opt := Options{Seed: int64(trial), NumIter: 2, Workers: workers}
		_, st := SolveKeep(p, opt)
		cur := p
		for gen := 0; gen < 3; gen++ {
			d := editProblem(rng, cur)
			want, _ := SolveKeep(d.Child, opt)
			got, next, info := ResolveState(d, st, opt, ResolveOptions{})
			if info.Fallback {
				t.Fatalf("trial %d gen %d: unexpected fallback", trial, gen)
			}
			sameSolve(t, "resolve", got, want)
			st, cur = next, d.Child
		}
	}
}

// TestResolveIdentityReusesAllBlocks: an identity delta must reuse the
// parent's portfolio wholesale.
func TestResolveIdentityReusesAllBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng, 16, 14, 3)
		opt := Options{Seed: int64(trial), NumIter: 2}
		want, st := SolveKeep(p, opt)
		got, _, info := ResolveState(p.BeginDelta(), st, opt, ResolveOptions{})
		sameSolve(t, "identity", got, want)
		if info.CompsSolved != 0 {
			t.Fatalf("trial %d: identity delta re-solved %d blocks", trial, info.CompsSolved)
		}
	}
}

// TestResolveWarmStart: warm-started resolves give up bit-identity but
// must still produce a feasible cover and a valid lower bound.
func TestResolveWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng, 12, 10, 3)
		opt := Options{Seed: int64(trial), NumIter: 2}
		_, st := SolveKeep(p, opt)
		d := editProblem(rng, p)
		got, _, _ := ResolveState(d, st, opt, ResolveOptions{WarmStart: true})
		if got.Solution == nil {
			t.Fatalf("trial %d: warm resolve found no solution", trial)
		}
		if !d.Child.IsCover(got.Solution) {
			t.Fatalf("trial %d: warm resolve returned a non-cover", trial)
		}
		ref := bnb.Solve(d.Child, bnb.Options{})
		if math.Ceil(got.LB-1e-9) > float64(ref.Cost) {
			t.Fatalf("trial %d: warm resolve LB %v exceeds optimum %d", trial, got.LB, ref.Cost)
		}
		if got.Cost < ref.Cost {
			t.Fatalf("trial %d: impossible cost %d < optimum %d", trial, got.Cost, ref.Cost)
		}
	}
}

// TestResolveFallback: a nil, foreign or differently-configured parent
// state degrades to a correct full solve and reports it.
func TestResolveFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	p := randomProblem(rng, 14, 12, 3)
	q := randomProblem(rng, 14, 12, 3)
	opt := Options{Seed: 9, NumIter: 2}
	_, stQ := SolveKeep(q, opt)
	d := editProblem(rng, p)
	want, _ := SolveKeep(d.Child, opt)

	for name, st := range map[string]*SolveState{
		"nil":     nil,
		"foreign": stQ, // parent state of an unrelated problem
	} {
		got, _, info := ResolveState(d, st, opt, ResolveOptions{})
		if !info.Fallback {
			t.Fatalf("%s: fallback not reported", name)
		}
		sameSolve(t, name, got, want)
	}

	// Different result-relevant options: same problem, new seed.
	_, stP := SolveKeep(p, opt)
	opt2 := opt
	opt2.Seed = 10
	want2, _ := SolveKeep(d.Child, opt2)
	got2, _, info := ResolveState(d, stP, opt2, ResolveOptions{})
	if !info.Fallback {
		t.Fatal("options change: fallback not reported")
	}
	sameSolve(t, "options", got2, want2)

	// A parent that differs only in the subgradient Params.
	opt3 := opt
	opt3.Params.MaxIters = 50
	want3, _ := SolveKeep(d.Child, opt3)
	got3, _, info := ResolveState(d, stP, opt3, ResolveOptions{})
	if !info.Fallback {
		t.Fatal("params change: fallback not reported")
	}
	sameSolve(t, "params", got3, want3)
}
