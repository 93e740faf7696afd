package primes

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/cube"
	"ucp/internal/matrix"
)

// buildCoveringReference is the original map-and-cube-containment
// construction, kept as the oracle for the differential tests:
// BuildCovering's per-prime scatter must reproduce its rows, ids and
// costs bit-identically.
func buildCoveringReference(f, d *cube.Cover, prs *cube.Cover, cm CostModel) (*matrix.Problem, []RowID, error) {
	s := f.S
	if s.Inputs() > MaxCoveringInputs {
		return nil, nil, fmt.Errorf("%w: %d inputs exceed %d", ErrCoveringLimit, s.Inputs(), MaxCoveringInputs)
	}
	nOut := s.Outputs()
	if nOut == 0 {
		nOut = 1
	}
	type key struct {
		m uint64
		o int
	}
	need := make(map[key]bool)
	for o := 0; o < nOut; o++ {
		for _, c := range f.Cubes {
			if err := s.Minterms(c, o, func(m uint64) bool {
				need[key{m, o}] = true
				return true
			}); err != nil {
				return nil, nil, err
			}
		}
		if d != nil {
			for _, c := range d.Cubes {
				if err := s.Minterms(c, o, func(m uint64) bool {
					delete(need, key{m, o}) // don't cares need no cover
					return true
				}); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	ids := make([]RowID, 0, len(need))
	for k := range need {
		ids = append(ids, RowID{Minterm: k.m, Output: k.o})
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].Output != ids[b].Output {
			return ids[a].Output < ids[b].Output
		}
		return ids[a].Minterm < ids[b].Minterm
	})

	rows := make([][]int, len(ids))
	for r, id := range ids {
		mc := s.CubeOfMinterm(id.Minterm, id.Output)
		for j, pc := range prs.Cubes {
			if s.Contains(pc, mc) {
				rows[r] = append(rows[r], j)
			}
		}
	}
	cost := make([]int, prs.Len())
	for j, pc := range prs.Cubes {
		switch cm {
		case LiteralCost:
			cost[j] = 1 + s.Inputs() - s.InputWeight(pc)
		default:
			cost[j] = 1
		}
	}
	p, err := matrix.New(rows, prs.Len(), cost)
	if err != nil {
		return nil, nil, err
	}
	return p, ids, nil
}

// dcHeavyFunction builds a 16-input, 2-output function whose
// don't-care set dwarfs its ON-set.  Each output has one wide ON cube
// spanning 2^6 words (x6..x11 free) whose minterms the don't-care
// cubes excuse except in one word (output 0) or four (output 1), plus
// a few small seeded ON cubes.  The wide ON cubes stay prime, so they
// span far more words than their output has nonzero need words.
func dcHeavyFunction() (f, d *cube.Cover) {
	s := cube.NewSpace(16, 2)
	f, d = cube.NewCover(s), cube.NewCover(s)
	add := func(cv *cube.Cover, in, out string) {
		c, err := s.ParseCube(in, out)
		if err != nil {
			panic(err)
		}
		cv.Add(c)
	}
	// Output 0: x0 = 0, x12..x15 = 0; required only where x6..x11 = 0.
	add(f, "0-----------0000", "10")
	for v := 6; v < 12; v++ {
		in := []byte("0-----------0000")
		in[v] = '1'
		add(d, string(in), "10")
	}
	// Output 1: x1 = 1, x12 = x13 = 1, x14 = x15 = 0; required only
	// where x8..x11 = 0.
	add(f, "-1----------1100", "01")
	for v := 8; v < 12; v++ {
		in := []byte("-1----------1100")
		in[v] = '1'
		add(d, string(in), "01")
	}
	rng := rand.New(rand.NewSource(16))
	for k := 0; k < 8; k++ {
		in := make([]byte, 16)
		for i := range in {
			dc := 0.15
			if i < 6 {
				dc = 0.5
			}
			switch {
			case rng.Float64() < dc:
				in[i] = '-'
			case rng.Intn(2) == 0:
				in[i] = '0'
			default:
				in[i] = '1'
			}
		}
		add(f, string(in), [...]string{"10", "01", "11"}[rng.Intn(3)])
	}
	return f, d
}

// TestWideScaleDifferential holds both front-end stages to their
// oracles at the benchmark's pla-wide scale, beyond the 10 inputs of
// TestDenseMatchesConsensus: iterated consensus must equal the dense
// sweep cube for cube, and BuildCovering must equal
// buildCoveringReference under both cost models.  The functions are
// one per pla-wide shape at the benchmark's seeds (7919·k + shape + 1)
// and a don't-care-heavy one on which some prime spans more words
// than its output has nonzero need words, so the covering scatter
// walks the output's nonzero-word list instead of the prime's own
// words (asserted below).
func TestWideScaleDifferential(t *testing.T) {
	type fn struct {
		name string
		f, d *cube.Cover
	}
	var fns []fn
	for _, w := range []struct {
		seed                   int64
		inputs, outputs, cubes int
		density                float64
	}{{15839, 16, 2, 100, 0.35}, {2, 18, 3, 80, 0.3}, {3, 20, 3, 80, 0.3}} {
		p := benchmarks.RandomPLA(w.seed, w.inputs, w.outputs, w.cubes, w.density, 0)
		fns = append(fns, fn{fmt.Sprintf("rand%d-seed%d", w.inputs, w.seed), p.F, p.DontCares()})
	}
	f, d := dcHeavyFunction()
	fns = append(fns, fn{"dc-heavy16", f, d})

	for _, c := range fns {
		if !DenseEligible(c.f, c.d) {
			t.Fatalf("%s: not dense-eligible, so the sweep would not be an independent oracle", c.name)
		}
		cons, complete := GenerateBudget(c.f, c.d, nil)
		if !complete {
			t.Fatalf("%s: unbudgeted consensus incomplete", c.name)
		}
		requireSameCover(t, c.f.S, cons, GenerateDenseBudget0(c.f, c.d), c.name+" consensus vs sweep")
		requireSameCovering(t, c.f, c.d, cons, c.name+" covering")
	}

	// The don't-care-heavy case must reach the nonzero-word walk: some
	// prime that covers a row has more high don't-care words than its
	// output has nonzero need words.
	s := f.S
	prs := Generate(f, d)
	_, ids, err := buildCoveringReference(f, d, prs, UnitCost)
	if err != nil {
		t.Fatal(err)
	}
	nzWords := make([]map[uint64]bool, s.Outputs())
	for o := range nzWords {
		nzWords[o] = map[uint64]bool{}
	}
	for _, id := range ids {
		nzWords[id.Output][id.Minterm>>6] = true
	}
	walked := false
	for _, pc := range prs.Cubes {
		value, mask, _ := s.PackInput(pc)
		words := 1 << bits.OnesCount64(mask&^63)
		for o := 0; o < s.Outputs(); o++ {
			if !s.Output(pc, o) || words <= len(nzWords[o]) {
				continue
			}
			for _, id := range ids {
				if id.Output == o && (id.Minterm^value)&^mask == 0 {
					walked = true
				}
			}
		}
	}
	if !walked {
		t.Fatal("dc-heavy16: no row-covering prime spans more words than its output's nonzero need words")
	}
}
