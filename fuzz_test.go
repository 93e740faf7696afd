package ucp

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/cube"
	"ucp/internal/matrix"
	"ucp/internal/primes"
	"ucp/internal/scg"
)

// The fuzz targets double as robustness tests: under plain `go test`
// they run their seed corpus; under `go test -fuzz` they explore
// further.  The parsers must never panic and anything they accept must
// survive a write/re-read round trip.

func FuzzReadProblem(f *testing.F) {
	f.Add("p 2 3\nr 0 1\nr 2\n")
	f.Add("p 1 1\nc 5\nr 0\n")
	f.Add("# only a comment\np 0 1\n")
	f.Add("p 2 2\nr 0 0 0\nr 1\n")
	f.Add("p -1 -1\n")
	f.Add("r 0\np 1 1\n")
	f.Add("p 1 1\nr 99\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ReadProblem(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteProblem(&buf, p); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		q, err := ReadProblem(&buf)
		if err != nil {
			t.Fatalf("re-read of own output failed: %v\n%s", err, buf.String())
		}
		if len(q.Rows) != len(p.Rows) || q.NCol != p.NCol {
			t.Fatal("round trip changed the problem shape")
		}
	})
}

func FuzzParsePLA(f *testing.F) {
	f.Add(".i 2\n.o 1\n11 1\n")
	f.Add(".i 2\n.o 2\n.type fr\n10 01\n")
	f.Add(".i 0\n.o 1\n 1\n")
	f.Add(".i 3\n.o 1\n.ilb a b c\n.ob z\n--- 1\n.e\n")
	f.Add(".i 1\n.o 1\n.type fdr\n1 -\n0 0\n")
	f.Add(".i 2\n.o 1\n1z 1\n")
	f.Add("11 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		pla, err := ParsePLA(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := pla.Write(&buf); err != nil {
			t.Fatalf("write after successful parse: %v", err)
		}
		again, err := ParsePLA(&buf)
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v\n%s", err, buf.String())
		}
		if !pla.F.EquivalentTo(again.F) {
			t.Fatal("round trip changed the ON-set")
		}
	})
}

func FuzzReadORLibProblem(f *testing.F) {
	f.Add("2 3\n1 2 3\n2\n1 2\n1\n3\n")
	f.Add("1 1 1 1 1")
	f.Add("0 1 7")
	f.Add("2 2 1 1 0 0")
	f.Add("3 3\n1 1 1\n1\n1\n1\n2\n1\n3\n")
	f.Add("1 2\n5 5\n0\n")
	f.Add("-1 -1\n")
	f.Add("2 2\n1 1\n9 1 2\n1 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ReadORLibProblem(strings.NewReader(src))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteORLibProblem(&buf, p); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		if _, err := ReadORLibProblem(&buf); err != nil {
			t.Fatalf("re-read of own output failed: %v", err)
		}
	})
}

// FuzzSolveParsedProblem drives every unate solver on whatever the
// matrix parser accepts: no input, however contrived, may panic a
// solver reached through the public API, and anything a solver returns
// must be a feasible cover.
func FuzzSolveParsedProblem(f *testing.F) {
	f.Add("p 2 3\nr 0 1\nr 2\n")
	f.Add("p 1 1\nc 5\nr 0\n")
	f.Add("p 3 3\nr 0 1\nr 1 2\nr 0 2\n")
	f.Add("p 2 2\nr 0\nr\n") // second row uncoverable
	f.Add("p 1 2\nc 0 0\nr 0 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ReadProblem(strings.NewReader(src))
		if err != nil {
			return
		}
		if len(p.Rows) > 40 || p.NCol > 40 {
			return // keep the harness fast; size adds nothing here
		}
		g, _, gerr := SolveGreedy(p, Budget{})
		if gerr == nil && !p.IsCover(g) {
			t.Fatalf("greedy returned a non-cover %v", g)
		}
		res := SolveSCG(p, SCGOptions{Budget: Budget{IterCap: 30}})
		if res.Solution != nil && !p.IsCover(res.Solution) {
			t.Fatalf("scg returned a non-cover %v", res.Solution)
		}
		if (res.Solution == nil) != (gerr != nil) {
			t.Fatalf("scg feasibility (%v) disagrees with greedy (%v)", res.Solution, gerr)
		}
		ex := SolveExact(p, ExactOptions{Budget: Budget{SearchCap: 200}})
		if ex.Solution != nil && !p.IsCover(ex.Solution) {
			t.Fatalf("exact returned a non-cover %v", ex.Solution)
		}
		if bp, err := BinateFromUnate(p); err == nil {
			SolveBinate(bp, BinateOptions{MaxNodes: 200})
		}
	})
}

// FuzzMinimizeParsedPLA pushes whatever the PLA parser accepts through
// the whole two-level pipeline (primes, covering, SCG, Espresso) under
// a tight iteration budget, checking that the minimised covers still
// implement the parsed function.
func FuzzMinimizeParsedPLA(f *testing.F) {
	f.Add(".i 2\n.o 1\n11 1\n00 1\n")
	f.Add(".i 3\n.o 2\n.type fd\n1-- 10\n-1- 01\n--1 11\n")
	f.Add(".i 1\n.o 1\n- 1\n")
	f.Add(".i 2\n.o 1\n.type fr\n10 1\n01 0\n")
	f.Fuzz(func(t *testing.T, src string) {
		pla, err := ParsePLA(strings.NewReader(src))
		if err != nil {
			return
		}
		if pla.Space.Inputs() > 8 || pla.F.Len() > 16 {
			return // exponential minterm work adds nothing to the fuzz
		}
		res, err := MinimizeSCG(pla, SCGOptions{Budget: Budget{IterCap: 30}})
		if err == nil && !Equivalent(pla, res.Cover) {
			t.Fatal("SCG cover does not implement the parsed function")
		}
		esp := MinimizeEspresso(pla, EspressoNormal, Budget{})
		if !Equivalent(pla, esp.Cover) {
			t.Fatal("espresso cover does not implement the parsed function")
		}
	})
}

// partitionedSolve is scg.Solve spelled out as Partition followed by
// the per-part pipeline on every whole part (each runs its own
// essential prepass), merged in part order: the pipeline the one-pass
// split replaced, kept here as the split routes' oracle.
func partitionedSolve(p *matrix.Problem, opt scg.Options) *scg.Result {
	parts := []matrix.Component{{Problem: p}}
	if c := matrix.Partition(p); c != nil && !opt.DisablePartition {
		parts = c
	}
	tr := opt.Budget.Tracker()
	var prs []*scg.PartResult
	for k, c := range parts {
		pr := scg.SolvePart(c.Problem, k, len(parts), opt, tr)
		prs = append(prs, pr)
		if pr.Solution == nil {
			break
		}
	}
	return scg.MergeParts(prs)
}

// splitLine renders everything the bit-identity contract covers.
func splitLine(r *SCGResult) string {
	s := r.Stats
	return fmt.Sprintf("sol=%v cost=%d lb=%#016x opt=%t core=%dx%d fix=%d runs=%d iters=%d",
		r.Solution, r.Cost, math.Float64bits(r.LB), r.ProvedOptimal,
		s.CoreRows, s.CoreCols, s.FixSteps, s.Runs, s.SubgradIters)
}

// FuzzMinimizeSplitMatchesFull holds the split route to the whole
// covering on random PLAs (up to 10 inputs, 1-3 outputs, up to 4
// don't-care cubes, .type fd or fr, whose drawn don't-care cubes then
// serve as the OFF-set).  The PLA split must equal the one-pass split
// of the whole covering, and scg.SolveSplit on it, scg.Solve on the
// whole covering and partitionedSolve must agree bit for bit for any
// NumIter, Seed, Workers and DisablePartition, as must MinimizeSCG's
// cover and bound.
func FuzzMinimizeSplitMatchesFull(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(1), uint8(8), uint8(1), false, uint8(0), uint8(0), false)
	f.Add(int64(7), uint8(9), uint8(2), uint8(11), uint8(3), false, uint8(2), uint8(3), false)
	f.Add(int64(3), uint8(5), uint8(2), uint8(6), uint8(2), true, uint8(1), uint8(1), false)
	f.Add(int64(12), uint8(8), uint8(2), uint8(9), uint8(0), false, uint8(2), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, nIn, nOut, nCubes, nDC uint8, fr bool, numIter, workers uint8, noPartition bool) {
		p := benchmarks.RandomPLA(seed, 1+int(nIn)%10, 1+int(nOut)%3, 1+int(nCubes)%12, 0.4, int(nDC)%5)
		if fr {
			p.R, p.D, p.Type = p.D, cube.NewCover(p.Space), "fr"
		}
		d := p.DontCares()
		prs, _ := primes.GenerateAutoBudget(p.F, d, nil)
		full, _, err := primes.BuildCovering(p.F, d, prs, primes.UnitCost)
		if err != nil {
			t.Fatal(err)
		}
		split, err := primes.BuildSplit(p.F, d, prs, primes.UnitCost)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := fmt.Sprintf("%+v", *split), fmt.Sprintf("%+v", *full.SplitParts()); g != w {
			t.Fatalf("PLA split\n%s\nwhole covering's\n%s", g, w)
		}
		opt := SCGOptions{NumIter: 1 + int(numIter)%3, Seed: seed, Workers: 1 + int(workers)%4, DisablePartition: noPartition}
		want := splitLine(partitionedSolve(full, opt))
		ref := scg.Solve(full, opt)
		for route, res := range map[string]*SCGResult{"split": scg.SolveSplit(split, opt), "whole": ref} {
			if got := splitLine(res); got != want {
				t.Fatalf("%s route:\n got %s\nwant %s", route, got, want)
			}
		}
		tl, err := MinimizeSCG(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(tl.Cover.Cubes, tl.Products, math.Float64bits(tl.LB), tl.ProvedOptimal, tl.CoreRows, tl.CoreCols, tl.Rows)
		exp := fmt.Sprint(primes.CoverFromColumns(prs, ref.Solution).Cubes, ref.Cost, math.Float64bits(ref.LB), ref.ProvedOptimal,
			ref.Stats.CoreRows, ref.Stats.CoreCols, len(full.Rows))
		if got != exp {
			t.Fatalf("MinimizeSCG %s, whole covering %s", got, exp)
		}
	})
}
