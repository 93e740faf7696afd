package primes

import (
	"math/rand"
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/bnb"
	"ucp/internal/cube"
	"ucp/internal/matrix"
)

// mintermIn reports whether minterm (m, o) lies in cube c.
func mintermIn(s *cube.Space, c cube.Cube, m uint64, o int) bool {
	for i := 0; i < s.Inputs(); i++ {
		bit := cube.Zero
		if m>>i&1 == 1 {
			bit = cube.One
		}
		if s.Input(c, i)&bit == 0 {
			return false
		}
	}
	return s.Outputs() == 0 || s.Output(c, o)
}

func inCover(f *cube.Cover, m uint64, o int) bool {
	for _, c := range f.Cubes {
		if mintermIn(f.S, c, m, o) {
			return true
		}
	}
	return false
}

// allCubes enumerates every non-empty cube of a small space.
func allCubes(s *cube.Space) []cube.Cube {
	var out []cube.Cube
	lits := []cube.Literal{cube.Zero, cube.One, cube.DC}
	nIn := s.Inputs()
	nOut := s.Outputs()
	var inputs func(i int, c cube.Cube)
	inputs = func(i int, c cube.Cube) {
		if i == nIn {
			if nOut == 0 {
				out = append(out, s.Copy(c))
				return
			}
			for mask := 1; mask < 1<<nOut; mask++ {
				d := s.Copy(c)
				for o := 0; o < nOut; o++ {
					s.SetOutput(d, o, mask>>o&1 == 1)
				}
				out = append(out, d)
			}
			return
		}
		for _, l := range lits {
			s.SetInput(c, i, l)
			inputs(i+1, c)
		}
	}
	inputs(0, s.NewCube())
	return out
}

// brutePrimes computes all primes of care ∪ dc by definition: maximal
// cubes entirely inside the function.
func brutePrimes(f, d *cube.Cover) []cube.Cube {
	s := f.S
	union := cube.NewCover(s)
	for _, c := range f.Cubes {
		union.Add(c)
	}
	if d != nil {
		for _, c := range d.Cubes {
			union.Add(c)
		}
	}
	isImplicant := func(c cube.Cube) bool {
		nOut := s.Outputs()
		if nOut == 0 {
			nOut = 1
		}
		for o := 0; o < nOut; o++ {
			if s.Outputs() > 0 && !s.Output(c, o) {
				continue
			}
			ok := true
			s.Minterms(c, o, func(m uint64) bool {
				if !inCover(union, m, o) {
					ok = false
					return false
				}
				return true
			})
			if !ok {
				return false
			}
		}
		return true
	}
	var imps []cube.Cube
	for _, c := range allCubes(s) {
		if isImplicant(c) {
			imps = append(imps, c)
		}
	}
	var primes []cube.Cube
	for _, c := range imps {
		maximal := true
		for _, d2 := range imps {
			if !s.Equal(c, d2) && s.Contains(d2, c) {
				maximal = false
				break
			}
		}
		if maximal {
			primes = append(primes, c)
		}
	}
	return primes
}

func randomCover(s *cube.Space, n int, rng *rand.Rand) *cube.Cover {
	f := cube.NewCover(s)
	for k := 0; k < n; k++ {
		c := s.NewCube()
		for i := 0; i < s.Inputs(); i++ {
			switch rng.Intn(4) {
			case 0:
				s.SetInput(c, i, cube.Zero)
			case 1:
				s.SetInput(c, i, cube.One)
			default:
				s.SetInput(c, i, cube.DC)
			}
		}
		any := false
		for o := 0; o < s.Outputs(); o++ {
			if rng.Intn(2) == 0 {
				s.SetOutput(c, o, true)
				any = true
			}
		}
		if s.Outputs() > 0 && !any {
			s.SetOutput(c, rng.Intn(s.Outputs()), true)
		}
		f.Add(c)
	}
	return f
}

func TestGenerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 120; trial++ {
		s := cube.NewSpace(1+rng.Intn(3), 1+rng.Intn(2))
		f := randomCover(s, 1+rng.Intn(4), rng)
		d := randomCover(s, rng.Intn(2), rng)
		got := Generate(f, d)
		want := brutePrimes(f, d)
		if got.Len() != len(want) {
			t.Fatalf("trial %d: %d primes, brute force %d\nf:\n%sgot:\n%s",
				trial, got.Len(), len(want), f, got)
		}
		for _, w := range want {
			found := false
			for _, g := range got.Cubes {
				if s.Equal(g, w) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: prime %s missing", trial, s.String(w))
			}
		}
	}
}

func TestGenerateClassicExample(t *testing.T) {
	// f = x'y + xy = y: the single prime is y with full DC on x.
	s := cube.NewSpace(2, 1)
	f := cube.NewCover(s)
	a, _ := s.ParseCube("01", "1")
	b, _ := s.ParseCube("11", "1")
	f.Add(a)
	f.Add(b)
	got := Generate(f, nil)
	if got.Len() != 1 {
		t.Fatalf("got %d primes:\n%s", got.Len(), got)
	}
	if s.String(got.Cubes[0]) != "-1 1" {
		t.Fatalf("prime = %q", s.String(got.Cubes[0]))
	}
}

func TestBuildCoveringAndSolve(t *testing.T) {
	// Minimising via primes + exact covering must reproduce the known
	// minimum cover size of the full adder's sum/carry pair.
	s := cube.NewSpace(3, 2) // inputs a,b,cin; outputs sum, cout
	f := cube.NewCover(s)
	for m := uint64(0); m < 8; m++ {
		ones := 0
		for i := 0; i < 3; i++ {
			if m>>i&1 == 1 {
				ones++
			}
		}
		c := s.CubeOfMinterm(m, 0)
		s.SetOutput(c, 0, ones%2 == 1) // sum
		s.SetOutput(c, 1, ones >= 2)   // carry
		if ones%2 == 1 || ones >= 2 {
			f.Add(c)
		}
	}
	prs := Generate(f, nil)
	prob, ids, err := BuildCovering(f, nil, prs, UnitCost)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(prob.Rows) {
		t.Fatal("row ids out of sync")
	}
	res := bnb.Solve(prob, bnb.Options{})
	if res.Solution == nil {
		t.Fatal("covering unsolvable")
	}
	// The two-output full adder needs 4 sum minterm-products plus
	// carry products; classic result: 7 products with no sharing help
	// for sum (XOR has no larger primes), carry has 3 primes.
	cover := CoverFromColumns(prs, res.Solution)
	checkEquivalent(t, s, f, nil, cover)
	if res.Cost != 7 {
		t.Fatalf("minimum products = %d, want 7", res.Cost)
	}
}

// checkEquivalent verifies cover equals f modulo the DC set d.
func checkEquivalent(t *testing.T, s *cube.Space, f, d, cover *cube.Cover) {
	t.Helper()
	for o := 0; o < s.Outputs(); o++ {
		for m := uint64(0); m < 1<<s.Inputs(); m++ {
			on := inCover(f, m, o)
			dc := d != nil && inCover(d, m, o)
			got := inCover(cover, m, o)
			if dc {
				continue
			}
			if got != on {
				t.Fatalf("output %d minterm %b: cover=%v on=%v", o, m, got, on)
			}
		}
	}
}

func TestCoveringSolutionsAreCorrectCovers(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 60; trial++ {
		s := cube.NewSpace(1+rng.Intn(4), 1+rng.Intn(2))
		f := randomCover(s, 1+rng.Intn(4), rng)
		d := randomCover(s, rng.Intn(2), rng)
		prs := Generate(f, d)
		prob, _, err := BuildCovering(f, d, prs, UnitCost)
		if err != nil {
			t.Fatal(err)
		}
		res := bnb.Solve(prob, bnb.Options{})
		if res.Solution == nil {
			// Only possible if F \ D is empty; then zero products do.
			if len(prob.Rows) != 0 {
				t.Fatalf("trial %d: unsolvable covering with %d rows", trial, len(prob.Rows))
			}
			continue
		}
		cover := CoverFromColumns(prs, res.Solution)
		checkEquivalent(t, s, f, d, cover)
	}
}

func TestLiteralCostModel(t *testing.T) {
	s := cube.NewSpace(3, 1)
	f := cube.NewCover(s)
	a, _ := s.ParseCube("1--", "1")
	f.Add(a)
	prs := Generate(f, nil)
	prob, _, err := BuildCovering(f, nil, prs, LiteralCost)
	if err != nil {
		t.Fatal(err)
	}
	// The only prime is "1--": cost 1 literal + 1 = 2.
	if len(prob.Cost) != 1 || prob.Cost[0] != 2 {
		t.Fatalf("cost = %v", prob.Cost)
	}
}

func TestBuildCoveringRejectsHugeInputs(t *testing.T) {
	s := cube.NewSpace(MaxCoveringInputs+1, 1)
	f := cube.NewCover(s)
	if _, _, err := BuildCovering(f, nil, cube.NewCover(s), UnitCost); err == nil {
		t.Fatal("oversized input space accepted")
	}
}

func TestDontCaresExcuseRows(t *testing.T) {
	s := cube.NewSpace(2, 1)
	f := cube.NewCover(s)
	a, _ := s.ParseCube("11", "1")
	f.Add(a)
	d := cube.NewCover(s)
	b, _ := s.ParseCube("11", "1") // same minterm is also DC
	d.Add(b)
	prs := Generate(f, d)
	prob, ids, err := BuildCovering(f, d, prs, UnitCost)
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Rows) != 0 || len(ids) != 0 {
		t.Fatalf("DC minterm still required: %v", ids)
	}
}

func mustNotPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic: %v", r)
		}
	}()
	fn()
}

func TestEmptyFunction(t *testing.T) {
	s := cube.NewSpace(2, 1)
	f := cube.NewCover(s)
	mustNotPanic(t, func() {
		prs := Generate(f, nil)
		if prs.Len() != 0 {
			t.Fatalf("primes of empty function: %d", prs.Len())
		}
		prob, _, err := BuildCovering(f, nil, prs, UnitCost)
		if err != nil || len(prob.Rows) != 0 {
			t.Fatalf("err=%v rows=%d", err, len(prob.Rows))
		}
		_ = matrix.ReduceBudgetWorkers(prob, nil, 1)
	})
}

// TestConsensusWorkSemiNaive pins the semi-naive closure's saving on
// the deterministic work meter.  The hardest pla-wide function,
// RandomPLA(15839, 16, 2, 100, 0.35, 0), closes in 5 160 194 units
// (pairs tried plus containment probes).  Scanning the candidates that
// lie inside a member of their pair charged 7 141 305, and retrying
// every pair in every sweep, with two candidates per pair, 18 200 868.
func TestConsensusWorkSemiNaive(t *testing.T) {
	p := benchmarks.RandomPLA(15839, 16, 2, 100, 0.35, 0)
	out, complete, capped := generateConsensus(p.F, p.DontCares(), nil, 10_000_000)
	if capped || !complete || out == nil {
		t.Fatalf("closure under a 10 000 000-unit cap: complete=%v capped=%v", complete, capped)
	}
	if _, _, units := consensusWork(p.F, p.DontCares()); units != 5_160_194 {
		t.Fatalf("closure charged %d units, want 5 160 194", units)
	}
}
