package benchmarks

import (
	"math"
	"testing"

	"ucp/internal/lagrangian"
	"ucp/internal/matrix"
	"ucp/internal/primes"
)

func TestFigure1Properties(t *testing.T) {
	p := Figure1()
	// Pairwise intersecting rows.
	for i := range p.Rows {
		for k := i + 1; k < len(p.Rows); k++ {
			inter := false
			for _, a := range p.Rows[i] {
				for _, b := range p.Rows[k] {
					if a == b {
						inter = true
					}
				}
			}
			if !inter {
				t.Fatalf("rows %d and %d do not intersect", i, k)
			}
		}
	}
	// Every row has a unit-cost column → LB_MIS = 1.
	mis, _ := matrix.MISBound(p)
	if mis != 1 {
		t.Fatalf("MIS bound = %d, want 1", mis)
	}
	// The paper's dual solution m = (1,1,0,0) is feasible with value 2.
	if !lagrangian.DualFeasible(p, []float64{1, 1, 0, 0}, 1e-12) {
		t.Fatal("m = (1,1,0,0) infeasible")
	}
	_, da := lagrangian.DualAscent(p, nil, nil)
	if math.Abs(da-2) > 1e-9 {
		t.Fatalf("dual ascent = %v, want 2", da)
	}
	// The paper's fractional optimum p = (.5,.5,.5,0,.5) is feasible
	// and costs 2.5.
	x := []float64{.5, .5, .5, 0, .5}
	for i, r := range p.Rows {
		s := 0.0
		for _, j := range r {
			s += x[j]
		}
		if s < 1-1e-12 {
			t.Fatalf("row %d uncovered by the fractional optimum", i)
		}
	}
	z := 0.0
	for j, v := range x {
		z += v * float64(p.Cost[j])
	}
	if math.Abs(z-2.5) > 1e-12 {
		t.Fatalf("fractional cost = %v, want 2.5", z)
	}
	// Integer optimum is 3 = ⌈2.5⌉.
	best := 1 << 30
	for mask := 0; mask < 32; mask++ {
		var cols []int
		for j := 0; j < 5; j++ {
			if mask>>j&1 == 1 {
				cols = append(cols, j)
			}
		}
		if p.IsCover(cols) && p.CostOf(cols) < best {
			best = p.CostOf(cols)
		}
	}
	if best != 3 {
		t.Fatalf("integer optimum = %d, want 3", best)
	}
	// Uniform variant: MIS = DA = 1.
	u := Figure1Uniform()
	misU, _ := matrix.MISBound(u)
	_, daU := lagrangian.DualAscent(u, nil, nil)
	if misU != 1 || math.Abs(daU-1) > 1e-9 {
		t.Fatalf("uniform MIS/DA = %d/%v, want 1/1", misU, daU)
	}
}

func TestInstancesDeterministic(t *testing.T) {
	a := DifficultCyclic()[0].PLA()
	b := DifficultCyclic()[0].PLA()
	if a.F.Len() != b.F.Len() {
		t.Fatal("same seed produced different PLAs")
	}
	for i := range a.F.Cubes {
		if !a.Space.Equal(a.F.Cubes[i], b.F.Cubes[i]) {
			t.Fatal("same seed produced different cubes")
		}
	}
}

func TestRegistryShape(t *testing.T) {
	if n := len(DifficultCyclic()); n != 7 {
		t.Fatalf("difficult cyclic has %d instances, want 7 (as in Table 1)", n)
	}
	if n := len(Challenging()); n != 16 {
		t.Fatalf("challenging has %d instances, want 16 (as in Table 2)", n)
	}
	if n := len(EasyCyclic()); n != 49 {
		t.Fatalf("easy cyclic has %d instances, want 49", n)
	}
	if n := len(Table4Names()); n != 9 {
		t.Fatalf("Table 4 has %d instances, want 9", n)
	}
	names := map[string]bool{}
	for _, in := range Challenging() {
		names[in.Name] = true
	}
	for _, n := range Table4Names() {
		if !names[n] {
			t.Fatalf("Table 4 instance %q not in the challenging set", n)
		}
	}
	seen := map[string]bool{}
	for _, in := range append(append(DifficultCyclic(), Challenging()...), EasyCyclic()...) {
		if seen[in.Name] {
			t.Fatalf("duplicate instance name %q", in.Name)
		}
		seen[in.Name] = true
		if in.Inputs < 4 || in.Outputs < 1 || in.Kernels < 1 {
			t.Fatalf("instance %q has degenerate shape", in.Name)
		}
	}
}

// TestHardInstancesHaveCyclicCores is the central quality property of
// the replica generator: the difficult and challenging functions must
// survive the reductions with a non-empty cyclic core, like the paper
// originals.
func TestHardInstancesHaveCyclicCores(t *testing.T) {
	if testing.Short() {
		t.Skip("prime generation across the registry is slow")
	}
	for _, in := range append(DifficultCyclic(), Challenging()...) {
		in := in
		t.Run(in.Name, func(t *testing.T) {
			f := in.PLA()
			prs := primes.Generate(f.F, f.D)
			prob, _, err := primes.BuildCovering(f.F, f.D, prs, primes.UnitCost)
			if err != nil {
				t.Fatal(err)
			}
			red := matrix.ReduceBudgetWorkers(prob, nil, 1)
			if red.Infeasible {
				t.Fatal("replica infeasible")
			}
			if len(red.Core.Rows) == 0 {
				t.Fatalf("replica of %s reduces to an empty core", in.Name)
			}
		})
	}
}

func TestEasyInstancesMostlyCyclic(t *testing.T) {
	if testing.Short() {
		t.Skip("prime generation across the registry is slow")
	}
	empty := 0
	for _, in := range EasyCyclic() {
		f := in.PLA()
		prs := primes.Generate(f.F, f.D)
		prob, _, err := primes.BuildCovering(f.F, f.D, prs, primes.UnitCost)
		if err != nil {
			t.Fatal(err)
		}
		if red := matrix.ReduceBudgetWorkers(prob, nil, 1); len(red.Core.Rows) == 0 {
			empty++
		}
	}
	if empty > 5 {
		t.Fatalf("%d/49 easy instances reduce to empty cores; the class should be cyclic", empty)
	}
}

func TestRandomCoveringShape(t *testing.T) {
	p := RandomCovering(3, 20, 15, 0.3, 4)
	if len(p.Rows) != 20 || p.NCol != 15 {
		t.Fatalf("shape %dx%d", len(p.Rows), p.NCol)
	}
	for i, r := range p.Rows {
		if len(r) == 0 {
			t.Fatalf("row %d empty", i)
		}
	}
	for _, c := range p.Cost {
		if c < 1 || c > 4 {
			t.Fatalf("cost %d out of range", c)
		}
	}
	q := RandomCovering(3, 20, 15, 0.3, 4)
	for i := range p.Rows {
		if len(p.Rows[i]) != len(q.Rows[i]) {
			t.Fatal("not deterministic")
		}
	}
}

func TestCyclicCoveringShape(t *testing.T) {
	p := CyclicCovering(5, 60, 40, 3)
	if len(p.Rows) != 60 || p.NCol != 40 {
		t.Fatalf("shape %dx%d", len(p.Rows), p.NCol)
	}
	for i, r := range p.Rows {
		if len(r) != 3 {
			t.Fatalf("row %d degree %d, want 3", i, len(r))
		}
	}
}
