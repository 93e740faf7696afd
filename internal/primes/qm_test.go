package primes

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"ucp/internal/cube"
)

// implicant is a cube in (value, mask) form: mask bits are don't
// cares, value bits are the fixed assignment (value ∩ mask = 0).
type implicant struct {
	value, mask uint64
}

// TabularPrimes computes all prime implicants of the single-output
// function with ON-set minterms on and don't-care minterms dc over
// nvars variables, using the classical Quine–McCluskey tabulation:
// group implicants by the weight of their fixed ones, merge pairs that
// differ in exactly one fixed bit, and keep whatever never merges.
// It exists as an independently-implemented oracle for the iterated
// consensus generator (Generate); the two must produce identical prime
// sets on single-output functions.
func TabularPrimes(s *cube.Space, on, dc []uint64) (*cube.Cover, error) {
	nvars := s.Inputs()
	if s.Outputs() > 1 {
		return nil, fmt.Errorf("primes: tabular method handles at most one output, space has %d", s.Outputs())
	}
	if nvars > 63 {
		return nil, fmt.Errorf("primes: tabular method limited to 63 variables")
	}
	full := uint64(1)<<uint(nvars) - 1

	// Current generation, deduplicated.
	cur := make(map[implicant]bool)
	for _, m := range on {
		cur[implicant{m & full, 0}] = true
	}
	for _, m := range dc {
		cur[implicant{m & full, 0}] = true
	}

	primes := make(map[implicant]bool)
	for len(cur) > 0 {
		// Group by weight of the fixed ones for the adjacency scan.
		groups := make(map[int][]implicant)
		for imp := range cur {
			groups[bits.OnesCount64(imp.value)] = append(groups[bits.OnesCount64(imp.value)], imp)
		}
		merged := make(map[implicant]bool)
		next := make(map[implicant]bool)
		for w, g := range groups {
			hi := groups[w+1]
			for _, a := range g {
				for _, b := range hi {
					if a.mask != b.mask {
						continue
					}
					diff := a.value ^ b.value
					if bits.OnesCount64(diff) != 1 {
						continue
					}
					next[implicant{a.value &^ diff, a.mask | diff}] = true
					merged[a] = true
					merged[b] = true
				}
			}
		}
		for imp := range cur {
			if !merged[imp] {
				primes[imp] = true
			}
		}
		cur = next
	}

	// Emit as a cover, in a canonical order.
	list := make([]implicant, 0, len(primes))
	for imp := range primes {
		list = append(list, imp)
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].mask != list[b].mask {
			return list[a].mask < list[b].mask
		}
		return list[a].value < list[b].value
	})
	out := cube.NewCover(s)
	for _, imp := range list {
		c := s.NewCube()
		for i := 0; i < nvars; i++ {
			switch {
			case imp.mask>>uint(i)&1 == 1:
				s.SetInput(c, i, cube.DC)
			case imp.value>>uint(i)&1 == 1:
				s.SetInput(c, i, cube.One)
			default:
				s.SetInput(c, i, cube.Zero)
			}
		}
		if s.Outputs() == 1 {
			s.SetOutput(c, 0, true)
		}
		out.Add(c)
	}
	return out, nil
}

// MintermsOf enumerates the input minterms of a single-output cover
// (output 0 when the space has outputs).  Spaces beyond 63 inputs are
// not enumerable; their cubes contribute no minterms.
func MintermsOf(f *cube.Cover) []uint64 {
	seen := make(map[uint64]bool)
	for _, c := range f.Cubes {
		if err := f.S.Minterms(c, 0, func(m uint64) bool {
			seen[m] = true
			return true
		}); err != nil {
			break // >63 inputs: every cube fails the same way
		}
	}
	out := make([]uint64, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func TestTabularClassicExample(t *testing.T) {
	// The textbook example f = Σm(4,8,10,11,12,15) + d(9,14) over 4
	// variables has exactly four primes (in msb-first textbook
	// numbering).  Our bit order is lsb-first, so translate: textbook
	// minterm 4 = binary 0100 (a=0,b=1,c=0,d=0) maps to our mask with
	// bit per variable index 0..3 = a..d → 0b0010.
	rev := func(m uint64) uint64 { // reverse 4-bit value
		var r uint64
		for i := 0; i < 4; i++ {
			if m>>uint(i)&1 == 1 {
				r |= 1 << uint(3-i)
			}
		}
		return r
	}
	s := cube.NewSpace(4, 1)
	var on, dc []uint64
	for _, m := range []uint64{4, 8, 10, 11, 12, 15} {
		on = append(on, rev(m))
	}
	for _, m := range []uint64{9, 14} {
		dc = append(dc, rev(m))
	}
	prs, err := TabularPrimes(s, on, dc)
	if err != nil {
		t.Fatal(err)
	}
	// The known prime count for this classic is 4:
	// bd', ab', ac, b'c... (textbook) — verify count and primality
	// against the consensus generator instead of hand-listing.
	f := cube.NewCover(s)
	for _, m := range on {
		f.Add(s.CubeOfMinterm(m, 0))
	}
	d := cube.NewCover(s)
	for _, m := range dc {
		d.Add(s.CubeOfMinterm(m, 0))
	}
	want := Generate(f, d)
	if prs.Len() != want.Len() {
		t.Fatalf("tabular found %d primes, consensus %d\ntabular:\n%sconsensus:\n%s",
			prs.Len(), want.Len(), prs, want)
	}
}

func TestTabularMatchesConsensus(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(6)
		s := cube.NewSpace(n, 1)
		var on, dc []uint64
		for m := uint64(0); m < 1<<n; m++ {
			switch rng.Intn(4) {
			case 0:
				on = append(on, m)
			case 1:
				dc = append(dc, m)
			}
		}
		tab, err := TabularPrimes(s, on, dc)
		if err != nil {
			t.Fatal(err)
		}
		f := cube.NewCover(s)
		for _, m := range on {
			f.Add(s.CubeOfMinterm(m, 0))
		}
		d := cube.NewCover(s)
		for _, m := range dc {
			d.Add(s.CubeOfMinterm(m, 0))
		}
		cons := Generate(f, d)
		if tab.Len() != cons.Len() {
			t.Fatalf("trial %d: tabular %d primes, consensus %d", trial, tab.Len(), cons.Len())
		}
		// Same set, not just same count.
		for _, c := range cons.Cubes {
			found := false
			for _, tc := range tab.Cubes {
				if s.Equal(c, tc) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: consensus prime %s missing from tabular", trial, s.String(c))
			}
		}
	}
}

func TestTabularEmptyAndFull(t *testing.T) {
	s := cube.NewSpace(3, 1)
	empty, err := TabularPrimes(s, nil, nil)
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty function: %v, %d primes", err, empty.Len())
	}
	var all []uint64
	for m := uint64(0); m < 8; m++ {
		all = append(all, m)
	}
	full, err := TabularPrimes(s, all, nil)
	if err != nil || full.Len() != 1 {
		t.Fatalf("tautology: %v, %d primes", err, full.Len())
	}
	if s.InputWeight(full.Cubes[0]) != 3 {
		t.Fatal("tautology prime should be the universal cube")
	}
}

func TestTabularRejectsMultiOutput(t *testing.T) {
	s := cube.NewSpace(3, 2)
	if _, err := TabularPrimes(s, []uint64{1}, nil); err == nil {
		t.Fatal("multi-output space accepted")
	}
}

func TestMintermsOf(t *testing.T) {
	s := cube.NewSpace(3, 1)
	f := cube.NewCover(s)
	c, _ := s.ParseCube("1--", "1")
	f.Add(c)
	ms := MintermsOf(f)
	if len(ms) != 4 {
		t.Fatalf("got %d minterms", len(ms))
	}
	for _, m := range ms {
		if m&1 == 0 {
			t.Fatalf("minterm %b missing the fixed literal", m)
		}
	}
}
