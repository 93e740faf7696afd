package ucp

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ucp/internal/benchmarks"
)

const samplePLA = `
.i 4
.o 2
.p 6
1--0 10
-11- 11
0--1 01
11-- 10
--00 01
0110 11
.e
`

func TestEndToEndMinimisation(t *testing.T) {
	f, err := ParsePLA(strings.NewReader(samplePLA))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := MinimizeSCG(f, SCGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(f, sg.Cover) {
		t.Fatal("SCG cover does not implement the function")
	}
	ex, err := MinimizeExact(f, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !Equivalent(f, ex.Cover) {
		t.Fatal("exact cover does not implement the function")
	}
	if !ex.ProvedOptimal {
		t.Fatal("exact solver did not certify")
	}
	if sg.Products < ex.Products {
		t.Fatalf("SCG %d below exact optimum %d", sg.Products, ex.Products)
	}
	if sg.ProvedOptimal && sg.Products != ex.Products {
		t.Fatalf("SCG claimed optimality at %d; optimum is %d", sg.Products, ex.Products)
	}
	esp := MinimizeEspresso(f, EspressoNormal, Budget{})
	if !Equivalent(f, esp.Cover) {
		t.Fatal("espresso cover does not implement the function")
	}
	if esp.Products < ex.Products {
		t.Fatalf("espresso %d below optimum %d", esp.Products, ex.Products)
	}
	str := MinimizeEspresso(f, EspressoStrong, Budget{})
	if str.Products > esp.Products {
		t.Fatal("strong mode worse than normal")
	}
}

// The committed wide-corpus example must minimise end to end under the
// default (unlimited) budget: 20 inputs is far past what the covering
// pipeline reached before the streaming construction, and the dense
// front end must agree with the solver on a proved optimum.
func TestWideInstanceEndToEnd(t *testing.T) {
	f, err := ParsePLAFile("examples/wide20.pla")
	if err != nil {
		t.Fatal(err)
	}
	if n := f.Space.Inputs(); n < 20 {
		t.Fatalf("example has %d inputs, want >= 20", n)
	}
	if o := f.Space.Outputs(); o < 2 {
		t.Fatalf("example has %d outputs, want multi-output", o)
	}
	res, err := MinimizeSCG(f, SCGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("default budget run reported an interruption")
	}
	if res.Products <= 0 || res.Cover.Len() != res.Products {
		t.Fatalf("products=%d cover=%d", res.Products, res.Cover.Len())
	}
	// Full equivalence enumerates 2^20 minterms per output; spot-check
	// the containment direction cube-wise instead: every ON cube must
	// be covered, and the cover must stay inside F ∪ D.
	if !res.Cover.ContainsCover(f.F) {
		t.Fatal("cover misses part of the ON-set")
	}
	on := f.F.Clone()
	for _, c := range f.DontCares().Cubes {
		on.Add(c)
	}
	if !on.ContainsCover(res.Cover) {
		t.Fatal("cover leaves F ∪ D")
	}
}

func TestCoveringAPI(t *testing.T) {
	p, err := NewProblem([][]int{{0, 1}, {1, 2}, {0, 2}}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := SolveSCG(p, SCGOptions{})
	if res.Cost != 2 {
		t.Fatalf("triangle optimum = %d, want 2", res.Cost)
	}
	ex := SolveExact(p, ExactOptions{})
	if ex.Cost != 2 || !ex.Optimal {
		t.Fatalf("exact: %+v", ex)
	}
	g, _, gerr := SolveGreedy(p, Budget{})
	if gerr != nil || !p.IsCover(g) {
		t.Fatalf("greedy failed: %v", gerr)
	}
	red := ReduceProblem(p)
	if len(red.Core.Rows) != 3 {
		t.Fatalf("triangle should be its own cyclic core, got %d rows", len(red.Core.Rows))
	}
}

func TestLowerBoundsOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 60; trial++ {
		p := benchmarks.RandomCovering(rng.Int63(), 3+rng.Intn(8), 3+rng.Intn(8), 0.35, 3)
		b := LowerBounds(p)
		if !b.LPExact {
			t.Fatal("LP skipped on a tiny instance")
		}
		if float64(b.MIS) > b.DualAscent+1e-6 {
			t.Fatalf("trial %d: MIS %d > DA %v", trial, b.MIS, b.DualAscent)
		}
		if b.DualAscent > b.LinearRelaxation+1e-6 {
			t.Fatalf("trial %d: DA %v > LR %v", trial, b.DualAscent, b.LinearRelaxation)
		}
		if b.Lagrangian > b.LinearRelaxation+1e-6 {
			t.Fatalf("trial %d: Lagr %v > LR %v", trial, b.Lagrangian, b.LinearRelaxation)
		}
	}
}

func TestFigure1Bounds(t *testing.T) {
	b := LowerBounds(benchmarks.Figure1())
	if b.MIS != 1 {
		t.Fatalf("MIS = %d, want 1", b.MIS)
	}
	if math.Abs(b.DualAscent-2) > 1e-9 {
		t.Fatalf("DA = %v, want 2", b.DualAscent)
	}
	if math.Abs(b.LinearRelaxation-2.5) > 1e-6 {
		t.Fatalf("LR = %v, want 2.5", b.LinearRelaxation)
	}
	opt := SolveExact(benchmarks.Figure1(), ExactOptions{})
	if opt.Cost != 3 {
		t.Fatalf("integer optimum = %d, want 3 = ⌈2.5⌉", opt.Cost)
	}
	// Uniform-cost variant: MIS = DA = 1, LR = 5/3 (→ 2 rounded).
	u := LowerBounds(benchmarks.Figure1Uniform())
	if u.MIS != 1 || math.Abs(u.DualAscent-1) > 1e-9 {
		t.Fatalf("uniform MIS/DA = %d/%v, want 1/1", u.MIS, u.DualAscent)
	}
	if math.Abs(u.LinearRelaxation-5.0/3.0) > 1e-6 {
		t.Fatalf("uniform LR = %v, want 5/3", u.LinearRelaxation)
	}
}

// TestLowerBoundsInfeasible: an uncoverable row leaves the LP without
// a value, so LPExact stays false and the LP bound NaN.
func TestLowerBoundsInfeasible(t *testing.T) {
	p, err := NewProblem([][]int{{0, 1}, {}, {2}}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := LowerBounds(p)
	if b.LPExact || !math.IsNaN(b.LinearRelaxation) {
		t.Fatalf("LPExact=%v LinearRelaxation=%v, want false and NaN", b.LPExact, b.LinearRelaxation)
	}
}

func TestLowerBoundsSkipsHugeLP(t *testing.T) {
	p := benchmarks.CyclicCovering(7, 400, 300, 3)
	b := LowerBounds(p)
	if b.LPExact {
		t.Fatal("dense LP should be skipped above LPLimit")
	}
	if !math.IsNaN(b.LinearRelaxation) {
		t.Fatal("skipped LP should be NaN")
	}
	if b.DualAscent < float64(b.MIS)-1e-6 {
		t.Fatal("bound ordering violated")
	}
}

func TestBuildCoveringExposesFormulation(t *testing.T) {
	f, err := ParsePLA(strings.NewReader(samplePLA))
	if err != nil {
		t.Fatal(err)
	}
	prob, prs, err := BuildCovering(f, UnitCost)
	if err != nil {
		t.Fatal(err)
	}
	if prs.Len() == 0 || len(prob.Rows) == 0 {
		t.Fatal("empty formulation")
	}
	if prob.NCol != prs.Len() {
		t.Fatal("columns out of sync with primes")
	}
}

func TestLiteralCostModelPrefersLargerCubes(t *testing.T) {
	f, err := ParsePLA(strings.NewReader(samplePLA))
	if err != nil {
		t.Fatal(err)
	}
	prob, _, err := BuildCovering(f, LiteralCost)
	if err != nil {
		t.Fatal(err)
	}
	res := SolveExact(prob, ExactOptions{})
	if res.Solution == nil || !res.Optimal {
		t.Fatal("literal-cost covering unsolved")
	}
}
