package scg

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/budget"
	"ucp/internal/matrix"
)

// editProblem applies a few random edits to p and returns the child
// problem: added rows (fresh and near-duplicate), dropped rows, added
// columns, emptied columns.
func editProblem(rng *rand.Rand, p *matrix.Problem) *matrix.Problem {
	return editWith(rng.Intn, p)
}

// editWith is editProblem over any source of bounded choices: next(n)
// returns a value in [0, n).  Added rows are normalised like
// matrix.New, an added column takes the next id with a cost of 1–3,
// and an emptied column keeps its id and cost but covers no row; p is
// never modified.
func editWith(next func(int) int, p *matrix.Problem) *matrix.Problem {
	rows := slices.Clone(p.Rows)
	ncol, cost := p.NCol, slices.Clone(p.Cost)
	addRow := func(r []int) {
		slices.Sort(r)
		rows = append(rows, slices.Compact(r))
	}
	n := 1 + next(4)
	for e := 0; e < n; e++ {
		switch next(5) {
		case 0: // fresh random row
			var row []int
			for t := 0; t <= next(4); t++ {
				row = append(row, next(ncol))
			}
			addRow(row)
		case 1: // superset near-duplicate of an existing row
			if len(rows) == 0 {
				continue
			}
			src := rows[next(len(rows))]
			addRow(append(slices.Clone(src), next(ncol)))
		case 2: // drop a row
			if len(rows) <= 2 {
				continue
			}
			i := next(len(rows))
			rows = slices.Delete(rows, i, i+1)
		case 3: // fresh column covering a few rows
			var cover []int
			for t := 0; t <= next(3); t++ {
				if len(rows) > 0 {
					cover = append(cover, next(len(rows)))
				}
			}
			cost = append(cost, 1+next(3))
			for _, i := range cover {
				if r := rows[i]; len(r) == 0 || r[len(r)-1] != ncol {
					rows[i] = append(slices.Clip(r), ncol)
				}
			}
			ncol++
		case 4: // empty a column, but keep every row coverable
			j := next(ncol)
			if slices.ContainsFunc(rows, func(r []int) bool { return len(r) == 1 && r[0] == j }) {
				continue
			}
			for i, r := range rows {
				if slices.Contains(r, j) {
					rows[i] = slices.DeleteFunc(slices.Clone(r), func(x int) bool { return x == j })
				}
			}
		}
	}
	return &matrix.Problem{Rows: rows, NCol: ncol, Cost: cost}
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
		if st.Result() != got {
			t.Fatal("the state disagrees with the returned result")
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
			child := editProblem(rng, cur)
			want, _ := SolveKeep(child, opt)
			got, next, info := ResolveState(child, st, opt)
			if info.Fallback {
				t.Fatalf("trial %d gen %d: unexpected fallback", trial, gen)
			}
			sameSolve(t, "resolve", got, want)
			st, cur = next, child
		}
	}
}

// TestResolveAfterSettledParent: a kept solve whose singleton
// essentials settle the whole input still leaves a state the next
// resolve builds on, with no fallback, and the chain stays equal to
// cold kept solves.
func TestResolveAfterSettledParent(t *testing.T) {
	p := matrix.MustNew([][]int{{0}, {0, 1}, {2}, {1, 2, 3}}, 4, []int{1, 2, 1, 3})
	opt := Options{Seed: 1, NumIter: 2}
	res, st := SolveKeep(p, opt)
	if res.Stats.CoreRows != 0 || res.Cost != 2 {
		t.Fatalf("parent: core %d rows, cost %d; want 0 rows, cost 2", res.Stats.CoreRows, res.Cost)
	}
	child := matrix.MustNew(append(slices.Clone(p.Rows), []int{1, 3}, []int{0, 3}), 4, p.Cost)
	for gen := 0; gen < 2; gen++ { // the edit, then the unchanged child
		want, _ := SolveKeep(child, opt)
		got, next, info := ResolveState(child, st, opt)
		if info.Fallback {
			t.Fatalf("gen %d: the resolve fell back", gen)
		}
		sameSolve(t, "resolve after settled parent", got, want)
		st = next
	}
}

// TestResolveIdentityReusesAllBlocks: an unchanged child must reuse
// the parent's portfolio wholesale.
func TestResolveIdentityReusesAllBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng, 16, 14, 3)
		opt := Options{Seed: int64(trial), NumIter: 2}
		want, st := SolveKeep(p, opt)
		got, _, info := ResolveState(p, st, opt)
		sameSolve(t, "identity", got, want)
		if info.CompsSolved != 0 {
			t.Fatalf("trial %d: unchanged child re-solved %d blocks", trial, info.CompsSolved)
		}
	}
}

// TestResolveFallback: a nil or differently-configured parent state
// degrades to a correct full solve and reports it; an unrelated parent
// is usable, since blocks are matched by content.
func TestResolveFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	p := randomProblem(rng, 14, 12, 3)
	q := randomProblem(rng, 14, 12, 3)
	opt := Options{Seed: 9, NumIter: 2}
	_, stQ := SolveKeep(q, opt)
	child := editProblem(rng, p)
	want, _ := SolveKeep(child, opt)

	for name, st := range map[string]*SolveState{
		"nil":     nil,
		"foreign": stQ, // parent state of an unrelated problem
	} {
		got, _, info := ResolveState(child, st, opt)
		if info.Fallback != (st == nil) {
			t.Fatalf("%s: fallback %v", name, info.Fallback)
		}
		sameSolve(t, name, got, want)
	}

	// Different result-relevant options: same problem, new seed.
	_, stP := SolveKeep(p, opt)
	opt2 := opt
	opt2.Seed = 10
	want2, _ := SolveKeep(child, opt2)
	got2, _, info := ResolveState(child, stP, opt2)
	if !info.Fallback {
		t.Fatal("options change: fallback not reported")
	}
	sameSolve(t, "options", got2, want2)

	// A parent that differs only in the subgradient Params.
	opt3 := opt
	opt3.Params.MaxIters = 50
	want3, _ := SolveKeep(child, opt3)
	got3, _, info := ResolveState(child, stP, opt3)
	if !info.Fallback {
		t.Fatal("params change: fallback not reported")
	}
	sameSolve(t, "params", got3, want3)
}

// TestResolveFallbackInterruptedParent: a parent whose kept solve a
// budget cut — inside the reduction (an already-cancelled context) or
// in the portfolio (an iteration cap) — is interrupted, so resolving
// against it falls back, and the result equals a cold kept solve of
// the child under an unlimited budget.
func TestResolveFallbackInterruptedParent(t *testing.T) {
	p := benchmarks.CyclicCovering(3, 60, 45, 3)
	child := editProblem(rand.New(rand.NewSource(76)), p)
	opt := Options{Seed: 9, NumIter: 2}
	want, _ := SolveKeep(child, opt)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, b := range map[string]budget.Budget{
		"cancelled": {Context: cancelled},
		"itercap":   {IterCap: 5},
	} {
		cut := opt
		cut.Budget = b
		res, st := SolveKeep(p, cut)
		if !res.Interrupted {
			t.Fatalf("%s: the parent solve was not interrupted", name)
		}
		got, _, info := ResolveState(child, st, opt)
		if !info.Fallback || info.CompsReused != 0 {
			t.Fatalf("%s: info %+v, want a fallback that reuses nothing", name, info)
		}
		sameSolve(t, name, got, want)
	}
}

// unionOf places b beside a on fresh column ids: a problem whose rows
// are a's, then b's, and whose parts are theirs.
func unionOf(a, b *matrix.Problem) *matrix.Problem {
	rows := slices.Clone(a.Rows)
	for _, r := range b.Rows {
		shifted := make([]int, len(r))
		for k, j := range r {
			shifted[k] = j + a.NCol
		}
		rows = append(rows, shifted)
	}
	return matrix.MustNew(rows, a.NCol+b.NCol, append(slices.Clone(a.Cost), b.Cost...))
}

// TestResolveReusesBlockOfUnrelatedParent: a parent that shares only
// its first cyclic-core block with the child, beside a second block
// the child does not have, hands that block over, and the result still
// equals the cold kept solve.
func TestResolveReusesBlockOfUnrelatedParent(t *testing.T) {
	shared := benchmarks.CyclicCovering(2, 60, 45, 3)
	parent := unionOf(shared, benchmarks.CyclicCovering(8, 60, 45, 3))
	child := unionOf(shared, benchmarks.CyclicCovering(5, 50, 40, 3))
	opt := Options{Seed: 11, NumIter: 3, Workers: 2}
	_, st := SolveKeep(parent, opt)
	if n := len(st.comps); n != 2 {
		t.Fatalf("parent core has %d blocks, want 2", n)
	}
	want, _ := SolveKeep(child, opt)
	got, _, info := ResolveState(child, st, opt)
	if info.Fallback || info.CompsReused != 1 || info.CompsSolved != 1 {
		t.Fatalf("info %+v: want the shared block reused and the other solved", info)
	}
	sameSolve(t, "unrelated parent", got, want)
}

// FuzzResolveMatchesKeep holds the resolve contract on arbitrary
// edits: seed picks the parent problem, edit decodes the child's edits
// (one byte per choice, 0 once the bytes run out), and pick chooses
// the state to resolve against — the true parent, an unrelated one or
// none — and Workers 1–4.  The resolve must equal the cold kept solve
// of the child, and an unchanged child must reuse every block of its
// true parent.
func FuzzResolveMatchesKeep(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{})
	f.Add(int64(2), uint8(3), []byte{2, 0, 3, 1, 2})
	f.Add(int64(3), uint8(1), []byte{3, 1, 4, 2, 0, 1})
	f.Add(int64(4), uint8(2), []byte{1, 4, 0, 2, 3, 3, 1})
	f.Add(int64(5), uint8(9), []byte{3, 3, 2, 1, 0, 4, 1, 2, 7})
	f.Fuzz(func(t *testing.T, seed int64, pick uint8, edit []byte) {
		if len(edit) > 64 {
			edit = edit[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 14, 12, 3)
		child := p
		if len(edit) > 0 {
			child = editWith(func(n int) int {
				if len(edit) == 0 {
					return 0
				}
				v := int(edit[0]) % n
				edit = edit[1:]
				return v
			}, p)
		}
		opt := Options{Seed: seed, NumIter: 2, Workers: 1 + int(pick/3)%4}
		var st *SolveState
		switch pick % 3 {
		case 0:
			_, st = SolveKeep(p, opt)
		case 1:
			_, st = SolveKeep(randomProblem(rng, 14, 12, 3), opt)
		}
		want, _ := SolveKeep(child, opt)
		got, _, info := ResolveState(child, st, opt)
		if info.Fallback != (st == nil) {
			t.Fatalf("fallback %v with parent %v", info.Fallback, st != nil)
		}
		sameSolve(t, "fuzz resolve", got, want)
		unchanged := child.NCol == p.NCol && slices.Equal(child.Cost, p.Cost) &&
			slices.EqualFunc(child.Rows, p.Rows, slices.Equal[[]int])
		if pick%3 == 0 && unchanged && info.CompsSolved != 0 {
			t.Fatalf("unchanged child re-solved %d of %d blocks", info.CompsSolved, info.CompsSolved+info.CompsReused)
		}
	})
}
