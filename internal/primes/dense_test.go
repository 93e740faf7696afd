package primes

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"ucp/internal/benchmarks"
	"ucp/internal/budget"
	"ucp/internal/cube"
	"ucp/internal/matrix"
	"ucp/internal/pla"
)

// requireSameCover fails unless the two canonical (sorted) covers are
// cube-for-cube identical.
func requireSameCover(t *testing.T, s *cube.Space, got, want *cube.Cover, label string) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d cubes, want %d\ngot:\n%swant:\n%s", label, got.Len(), want.Len(), got, want)
	}
	for i := range want.Cubes {
		if !s.Equal(got.Cubes[i], want.Cubes[i]) {
			t.Fatalf("%s: cube %d = %s, want %s", label, i, s.String(got.Cubes[i]), s.String(want.Cubes[i]))
		}
	}
}

// requireSameCovering fails unless the two covering constructions are
// bit-identical: same row ids, same sorted column lists, same costs.
func requireSameCovering(t *testing.T, f, d, prs *cube.Cover, label string) {
	t.Helper()
	for _, cm := range []CostModel{UnitCost, LiteralCost} {
		gotP, gotIDs, gotErr := BuildCovering(f, d, prs, cm)
		wantP, wantIDs, wantErr := buildCoveringReference(f, d, prs, cm)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: err=%v, reference err=%v", label, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("%s: %d rows, reference %d", label, len(gotIDs), len(wantIDs))
		}
		for r := range wantIDs {
			if gotIDs[r] != wantIDs[r] {
				t.Fatalf("%s: row %d id %+v, reference %+v", label, r, gotIDs[r], wantIDs[r])
			}
			g, w := gotP.Rows[r], wantP.Rows[r]
			if len(g) != len(w) {
				t.Fatalf("%s: row %d has %d cols, reference %d", label, r, len(g), len(w))
			}
			for k := range w {
				if g[k] != w[k] {
					t.Fatalf("%s: row %d col %d = %d, reference %d", label, r, k, g[k], w[k])
				}
			}
		}
		if gotP.NCol != wantP.NCol {
			t.Fatalf("%s: ncol %d, reference %d", label, gotP.NCol, wantP.NCol)
		}
		for j := range wantP.Cost {
			if gotP.Cost[j] != wantP.Cost[j] {
				t.Fatalf("%s: cost[%d] = %d, reference %d", label, j, gotP.Cost[j], wantP.Cost[j])
			}
		}
		split, err := BuildSplit(f, d, prs, cm)
		if err != nil {
			t.Fatalf("%s: BuildSplit: %v", label, err)
		}
		requireSameSplit(t, split, gotP.SplitParts(), label)
	}
}

// requireSameSplit fails unless the PLA split equals the one-pass split
// of the whole covering: parts, essentials, residual rows and costs.
func requireSameSplit(t *testing.T, got, want *matrix.Split, label string) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"ncol", got.NCol, want.NCol},
		{"cost", got.Cost, want.Cost},
		{"rows", got.NRows, want.NRows},
		{"parts", got.NParts, want.NParts},
		{"essentials", got.Ess, want.Ess},
		{"essential parts", got.EssPart, want.EssPart},
		{"residual", got.Rest, want.Rest},
		{"residual parts", got.RestPart, want.RestPart},
	} {
		if g, w := fmt.Sprint(f.got), fmt.Sprint(f.want); g != w {
			t.Fatalf("%s: split %s %s, whole covering's %s", label, f.name, g, w)
		}
	}
}

func TestDenseMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		s := cube.NewSpace(1+rng.Intn(3), 1+rng.Intn(2))
		f := randomCover(s, 1+rng.Intn(4), rng)
		d := randomCover(s, rng.Intn(2), rng)
		if !DenseEligible(f, d) {
			t.Fatalf("trial %d: small random cover not dense-eligible", trial)
		}
		got, complete := GenerateDenseBudget(f, d, nil)
		if !complete {
			t.Fatalf("trial %d: unbudgeted sweep incomplete", trial)
		}
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

// TestDenseMatchesConsensus drives both engines over random functions
// large enough to exercise the high-variable chunk dictionary (inputs
// beyond denseKLow) and checks canonical prime sets and covering
// problems are bit-identical.
func TestDenseMatchesConsensus(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 80; trial++ {
		n := 1 + rng.Intn(10) // up to 10 inputs: 4 high variables
		s := cube.NewSpace(n, rng.Intn(4))
		f := randomCover(s, 1+rng.Intn(6), rng)
		d := randomCover(s, rng.Intn(3), rng)
		want, wc := GenerateBudget(f, d, nil)
		got, gc := GenerateDenseBudget(f, d, nil)
		if wc != gc {
			t.Fatalf("trial %d: complete=%v, consensus %v", trial, gc, wc)
		}
		requireSameCover(t, s, got, want, "primes")
		requireSameCovering(t, f, d, got, "covering")
	}
}

func TestDenseNoOutputsAndNoInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	// Output-free space: cubes are pure input products.
	s := cube.NewSpace(4, 0)
	f := randomCover(s, 3, rng)
	requireSameCover(t, s, GenerateDenseBudget0(f, nil), Generate(f, nil), "no outputs")
	requireSameCovering(t, f, nil, Generate(f, nil), "no outputs covering")

	// Input-free space: cubes are pure output sets.
	s0 := cube.NewSpace(0, 3)
	g := cube.NewCover(s0)
	c := s0.NewCube()
	s0.SetOutput(c, 0, true)
	s0.SetOutput(c, 2, true)
	g.Add(c)
	c2 := s0.NewCube()
	s0.SetOutput(c2, 1, true)
	g.Add(c2)
	requireSameCover(t, s0, GenerateDenseBudget0(g, nil), Generate(g, nil), "no inputs")
}

// GenerateDenseBudget0 is a test shim: the dense sweep without budget.
func GenerateDenseBudget0(f, d *cube.Cover) *cube.Cover {
	out, complete := GenerateDenseBudget(f, d, nil)
	if !complete {
		panic("unbudgeted dense sweep incomplete")
	}
	return out
}

func TestDenseBudgetDegradation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := budget.Budget{Context: ctx}.Tracker()

	rng := rand.New(rand.NewSource(74))
	s := cube.NewSpace(8, 2)
	f := randomCover(s, 6, rng)
	d := randomCover(s, 2, rng)
	out, complete := GenerateDenseBudget(f, d, tr)
	if complete {
		t.Fatal("cancelled sweep reported complete")
	}
	// Contract: a valid implicant set containing F ∪ D — every care
	// minterm remains coverable.
	union := cube.NewCover(s)
	union.Cubes = append(union.Cubes, f.Cubes...)
	union.Cubes = append(union.Cubes, d.Cubes...)
	for o := 0; o < s.Outputs(); o++ {
		for m := uint64(0); m < 1<<s.Inputs(); m++ {
			if inCover(f, m, o) && !inCover(out, m, o) {
				t.Fatalf("ON minterm (%d,%d) not coverable after degradation", m, o)
			}
			// And nothing outside the function was invented.
			if inCover(out, m, o) && !inCover(union, m, o) {
				t.Fatalf("degraded set covers (%d,%d) outside F ∪ D", m, o)
			}
		}
	}
}

func TestGenerateAutoBudgetDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	s := cube.NewSpace(5, 2)
	f := randomCover(s, 4, rng)
	if !DenseEligible(f, nil) {
		t.Fatal("small cover should be dense-eligible")
	}
	got, complete := GenerateAutoBudget(f, nil, nil)
	if !complete {
		t.Fatal("auto dispatch incomplete")
	}
	want := Generate(f, nil)
	requireSameCover(t, s, got, want, "auto")

	// Oversized spaces must fall back to consensus (and still work).
	big := cube.NewSpace(DenseMaxInputs+1, 1)
	bf := cube.NewCover(big)
	c := big.FullCube()
	bf.Add(c)
	if DenseEligible(bf, nil) {
		t.Fatal("oversized space reported dense-eligible")
	}
	out, complete := GenerateAutoBudget(bf, nil, nil)
	if !complete || out.Len() != 1 || !big.Equal(out.Cubes[0], c) {
		t.Fatalf("fallback primes = %v (complete=%v)", out, complete)
	}

	// A cube with an empty part routes to consensus semantics too.
	se := cube.NewSpace(2, 1)
	fe := cube.NewCover(se)
	fe.Add(se.NewCube()) // all-Empty cube
	if DenseEligible(fe, nil) {
		t.Fatal("empty cube reported dense-eligible")
	}

	// A wide sparse function: the sweep would materialise tens of
	// thousands of chunks, while consensus closes well within that
	// many probes.
	fh, err := os.Open("../../examples/wide20.pla")
	if err != nil {
		t.Fatal(err)
	}
	w, err := pla.Parse(fh)
	fh.Close()
	if err != nil {
		t.Fatal(err)
	}
	got, complete, eng := GenerateAutoEngine(w.F, w.DontCares(), nil)
	if !complete || eng != EngineCappedConsensus {
		t.Fatalf("wide20: engine %s (complete=%v), want %s", eng, complete, EngineCappedConsensus)
	}
	requireSameCover(t, w.F.S, got, GenerateDenseBudget0(w.F, w.DontCares()), "wide20 auto vs sweep")

	// A hard cyclic replica: a tiny lattice but a consensus work set in
	// the thousands, so the cap trips and the sweep answers — the same
	// way on every run.
	var hard *pla.File
	for _, in := range benchmarks.Challenging() {
		if in.Name == "ex1010" {
			hard = in.PLA()
		}
	}
	hf, hd := hard.F, hard.DontCares()
	first, complete, eng := GenerateAutoEngine(hf, hd, nil)
	if !complete || eng != EngineDense {
		t.Fatalf("ex1010: engine %s (complete=%v), want %s", eng, complete, EngineDense)
	}
	requireSameCover(t, hf.S, first, GenerateDenseBudget0(hf, hd), "ex1010 auto vs sweep")
	for run := 0; run < 3; run++ {
		again, complete, eng := GenerateAutoEngine(hf, hd, nil)
		if !complete || eng != EngineDense {
			t.Fatalf("ex1010 run %d: engine %s (complete=%v)", run, eng, complete)
		}
		requireSameCover(t, hf.S, again, first, "ex1010 repeated")
	}
	chunks, _ := denseEstimate(hf, hd)
	if out, _, capped := generateConsensus(hf, hd, nil, denseWordOps(hf.S, chunks)); !capped || out != nil {
		t.Fatal("ex1010: capped consensus pass must trip and drop its work set")
	}
}

// requireDegradedContract fails unless out is a valid degraded prime
// set for (f, d): every cube of F lies inside some cube of out, so
// every ON minterm stays coverable, and no cube of out reaches a
// minterm outside F ∪ D.
func requireDegradedContract(t *testing.T, f, d, out *cube.Cover) {
	t.Helper()
	s := f.S
	for _, c := range f.Cubes {
		covered := false
		for _, p := range out.Cubes {
			if s.Contains(p, c) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("ON cube %s not coverable after degradation", s.String(c))
		}
	}
	// Care bitmap of F ∪ D, one bit per (minterm, output).
	planes := s.Outputs()
	if planes == 0 {
		planes = 1
	}
	care := make([]uint64, (planes<<uint(s.Inputs())+63)/64)
	each := func(c cube.Cube, fn func(bit uint64) bool) bool {
		value, mask, _ := s.PackInput(c)
		outs, _ := s.PackOutputs(c)
		if s.Outputs() == 0 {
			outs = 1
		}
		for sub := mask; ; sub = (sub - 1) & mask {
			for o := 0; o < planes; o++ {
				if outs>>uint(o)&1 != 0 && !fn(uint64(o)<<uint(s.Inputs())|value|sub) {
					return false
				}
			}
			if sub == 0 {
				return true
			}
		}
	}
	for _, cv := range []*cube.Cover{f, d} {
		for _, c := range cv.Cubes {
			each(c, func(bit uint64) bool { care[bit/64] |= 1 << (bit % 64); return true })
		}
	}
	for _, p := range out.Cubes {
		if !each(p, func(bit uint64) bool { return care[bit/64]>>(bit%64)&1 != 0 }) {
			t.Fatalf("degraded cube %s covers a minterm outside F ∪ D", s.String(p))
		}
	}
}

// TestGenerateBudgetDeadline holds iterated consensus to its deadline
// on an instance whose closure runs for seconds: the tracker is polled
// from the work counter (and inside the dedup pass), not just between
// outer cubes, so the return comes promptly and still meets the
// degradation contract.
func TestGenerateBudgetDeadline(t *testing.T) {
	p := benchmarks.RandomPLA(3, 16, 4, 200, 0.5, 0)
	f, d := p.F, p.DontCares()
	const deadline = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	t0 := time.Now()
	out, complete := GenerateBudget(f, d, budget.Budget{Context: ctx}.Tracker())
	if took := time.Since(t0); took > 2*deadline+150*time.Millisecond {
		t.Fatalf("100ms deadline returned after %v", took)
	}
	if complete {
		t.Skip("closure finished inside the deadline; nothing to degrade")
	}
	requireDegradedContract(t, f, d, out)
}

func TestDenseCareBudgetLimit(t *testing.T) {
	// Lattice-cheap (the full high lattice is 3^2 = 9 chunks) but
	// enumeration-heavy: each full cube costs 16 outputs × 2^8 care
	// writes, so 4096 of them sit exactly at the 2^24 limit and one
	// more is over it.
	s := cube.NewSpace(8, 16)
	f := cube.NewCover(s)
	for i := 0; i < 4096; i++ {
		f.Add(s.FullCube())
	}
	if !DenseEligible(f, nil) {
		t.Fatal("2^24 care minterms should be eligible")
	}
	f.Add(s.FullCube())
	if DenseEligible(f, nil) {
		t.Fatal("over 2^24 care minterms should exceed the enumeration budget")
	}
}

func TestDenseLatticeMemoryLimit(t *testing.T) {
	// A single all-don't-care cube over 18 inputs enumerates only 2^18
	// care minterms, but its merge closure is the full 3^12-chunk high
	// lattice — hundreds of MB.  The lattice bound must reject it and
	// auto-dispatch must still answer (consensus proves the tautology
	// from the cube list without touching any minterm).
	s := cube.NewSpace(18, 1)
	f := cube.NewCover(s)
	f.Add(s.FullCube())
	if DenseEligible(f, nil) {
		t.Fatal("3^12-chunk merge closure reported dense-eligible")
	}
	out, complete := GenerateAutoBudget(f, nil, nil)
	if !complete || out.Len() != 1 || !s.Equal(out.Cubes[0], s.FullCube()) {
		t.Fatalf("tautology primes = %v (complete=%v)", out, complete)
	}
}

func TestDenseChunkCapOverflow(t *testing.T) {
	defer func(v uint64) { denseMaxLatticeWords = v }(denseMaxLatticeWords)

	// Four cubes fixing the two high variables to the four assignments,
	// low part all don't-care: DenseEligible's per-cube estimate is 4
	// chunks, but the merge closure is the full 3^2 = 9-chunk lattice.
	// A cap between the two admits the sweep and then trips the
	// in-flight guard, which must drop the dense state and finish via
	// consensus — completely, not with the degraded F ∪ D set.
	s := cube.NewSpace(8, 1)
	f := cube.NewCover(s)
	for hi := 0; hi < 4; hi++ {
		c := s.FullCube()
		lit := [2]cube.Literal{cube.Zero, cube.One}
		s.SetInput(c, 6, lit[hi&1])
		s.SetInput(c, 7, lit[hi>>1])
		f.Add(c)
	}
	denseMaxLatticeWords = 6 * 2 * 64 // six chunks of (1 plane + covered) × 64 words
	if !DenseEligible(f, nil) {
		t.Fatal("4-chunk estimate should pass the 6-chunk test cap")
	}
	got, complete := GenerateDenseBudget(f, nil, nil)
	if !complete {
		t.Fatal("chunk-cap overflow must complete via the consensus fallback")
	}
	want, _ := GenerateBudget(f, nil, nil)
	requireSameCover(t, s, got, want, "overflow fallback")
}

// FuzzPrimesDense is the differential acceptance gate: on arbitrary
// random functions the dense sweep, iterated consensus and the
// work-capped dispatcher must produce identical canonical prime sets
// and bit-identical covering problems.  Up to 12 inputs, so outputs
// span up to 64 need words and primes up to 6 high don't-care bits:
// the covering scatter meets both of its word walks.
func FuzzPrimesDense(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(2), uint8(4))
	f.Add(uint64(42), uint8(8), uint8(1), uint8(6))
	f.Add(uint64(7), uint8(9), uint8(3), uint8(5))
	f.Add(uint64(99), uint8(1), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nIn, nOut, nCubes uint8) {
		n := 1 + int(nIn)%12 // 1..12 inputs
		m := int(nOut) % 4   // 0..3 outputs
		k := 1 + int(nCubes)%7
		rng := rand.New(rand.NewSource(int64(seed)))
		s := cube.NewSpace(n, m)
		fc := randomCover(s, k, rng)
		dc := randomCover(s, int(seed)%3, rng)
		want, wc := GenerateBudget(fc, dc, nil)
		got, gc := GenerateDenseBudget(fc, dc, nil)
		auto, ac := GenerateAutoBudget(fc, dc, nil)
		if wc != gc || wc != ac {
			t.Fatalf("complete: dense %v, auto %v, consensus %v", gc, ac, wc)
		}
		requireSameCover(t, s, got, want, "fuzz primes")
		requireSameCover(t, s, auto, want, "fuzz auto primes")
		requireSameCovering(t, fc, dc, got, "fuzz covering")
	})
}
