package cube

import (
	"fmt"
	"math/rand"
	"testing"
)

// mintermIn reports whether input minterm m with output o lies in cube c.
func mintermIn(s *Space, c Cube, m uint64, o int) bool {
	for i := 0; i < s.Inputs(); i++ {
		bit := m >> i & 1
		l := s.Input(c, i)
		if bit == 0 && l&Zero == 0 {
			return false
		}
		if bit == 1 && l&One == 0 {
			return false
		}
	}
	if s.Outputs() > 0 && !s.Output(c, o) {
		return false
	}
	return true
}

func mintermInCover(f *Cover, m uint64, o int) bool {
	for _, c := range f.Cubes {
		if mintermIn(f.S, c, m, o) {
			return true
		}
	}
	return false
}

// randomCover builds a random cover over s with n cubes.
func randomCover(s *Space, n int, rng *rand.Rand) *Cover {
	f := NewCover(s)
	for k := 0; k < n; k++ {
		c := s.NewCube()
		for i := 0; i < s.Inputs(); i++ {
			switch rng.Intn(4) {
			case 0:
				s.SetInput(c, i, Zero)
			case 1:
				s.SetInput(c, i, One)
			default:
				s.SetInput(c, i, DC)
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

func TestLiteralRoundTrip(t *testing.T) {
	s := NewSpace(70, 5) // spans multiple words
	c := s.NewCube()
	for i := 0; i < 70; i++ {
		l := []Literal{Zero, One, DC}[i%3]
		s.SetInput(c, i, l)
	}
	for i := 0; i < 70; i++ {
		want := []Literal{Zero, One, DC}[i%3]
		if got := s.Input(c, i); got != want {
			t.Fatalf("input %d: got %v want %v", i, got, want)
		}
	}
	for o := 0; o < 5; o++ {
		s.SetOutput(c, o, o%2 == 0)
	}
	for o := 0; o < 5; o++ {
		if got := s.Output(c, o); got != (o%2 == 0) {
			t.Fatalf("output %d: got %v", o, got)
		}
	}
	// Flipping an input must not clobber neighbours.
	s.SetInput(c, 31, Zero) // straddles word boundary at bit 62..63
	s.SetInput(c, 32, One)
	if s.Input(c, 31) != Zero || s.Input(c, 32) != One {
		t.Fatal("word-boundary parts corrupted")
	}
}

func TestParseAndString(t *testing.T) {
	s := NewSpace(4, 2)
	c, err := s.ParseCube("10-0", "01")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(c); got != "10-0 01" {
		t.Fatalf("String = %q", got)
	}
	if s.Input(c, 0) != One || s.Input(c, 2) != DC {
		t.Fatal("parsed literals wrong")
	}
	if s.Output(c, 0) || !s.Output(c, 1) {
		t.Fatal("parsed outputs wrong")
	}
	if _, err := s.ParseCube("10-", "01"); err == nil {
		t.Fatal("short input accepted")
	}
	if _, err := s.ParseCube("10z0", "01"); err == nil {
		t.Fatal("bad char accepted")
	}
}

func TestEmptyAndFull(t *testing.T) {
	s := NewSpace(3, 2)
	if !s.IsEmpty(s.NewCube()) {
		t.Fatal("fresh cube should be empty")
	}
	f := s.FullCube()
	if s.IsEmpty(f) {
		t.Fatal("full cube empty")
	}
	for i := 0; i < 3; i++ {
		if s.Input(f, i) != DC {
			t.Fatal("full cube input not DC")
		}
	}
	c := s.Copy(f)
	s.SetOutput(c, 0, false)
	s.SetOutput(c, 1, false)
	if !s.IsEmpty(c) {
		t.Fatal("cube with no outputs should be empty")
	}
}

func TestContainsAndIntersect(t *testing.T) {
	s := NewSpace(3, 1)
	a, _ := s.ParseCube("1--", "1")
	b, _ := s.ParseCube("10-", "1")
	d, _ := s.ParseCube("0--", "1")
	if !s.Contains(a, b) || s.Contains(b, a) {
		t.Fatal("containment wrong")
	}
	if s.Intersects(a, d) {
		t.Fatal("disjoint cubes intersect")
	}
	if !s.Intersects(a, b) {
		t.Fatal("nested cubes must intersect")
	}
	x := s.And(a, d)
	if !s.IsEmpty(x) {
		t.Fatal("empty intersection not detected")
	}
}

// wantConsensus is the per-variable reading of the two consensus forms
// ConsensusInto fuses: the distance-one consensus (raise the single
// conflicting input part of a ∩ b, or at an output-only conflict take
// the input intersection with the output union) and the output-part
// consensus (input intersection with output union whenever no input
// part conflicts, in a space with outputs).  When both exist they must
// be the same cube; the result is whichever exists, or nil.
func wantConsensus(t *testing.T, s *Space, a, b Cube) Cube {
	t.Helper()
	empties, first := 0, -1
	for i := 0; i < s.Inputs(); i++ {
		if s.Input(a, i)&s.Input(b, i) == Empty {
			if first < 0 {
				first = i
			}
			empties++
		}
	}
	meet := false
	for o := 0; o < s.Outputs(); o++ {
		meet = meet || (s.Output(a, o) && s.Output(b, o))
	}
	dist := empties
	if s.Outputs() > 0 && !meet {
		dist++
	}
	and := s.And(a, b)
	withOuts := func(c Cube) Cube {
		for o := 0; o < s.Outputs(); o++ {
			s.SetOutput(c, o, s.Output(a, o) || s.Output(b, o))
		}
		return c
	}
	var cons, out Cube
	switch {
	case dist != 1:
	case empties == 1:
		cons = s.Copy(and)
		s.SetInput(cons, first, DC)
	default:
		cons = withOuts(s.Copy(and))
	}
	if s.Outputs() > 0 && empties == 0 {
		out = withOuts(s.Copy(and))
	}
	if cons != nil && out != nil && !s.Equal(cons, out) {
		t.Fatalf("distance-one consensus %s differs from output consensus %s", s.String(cons), s.String(out))
	}
	if cons != nil {
		return cons
	}
	return out
}

// requireConsensus checks ConsensusInto against wantConsensus, writing
// into a buffer pre-filled with junk so every word must be overwritten.
func requireConsensus(t *testing.T, s *Space, a, b Cube, label string) Cube {
	t.Helper()
	want := wantConsensus(t, s, a, b)
	got := s.NewCube()
	for w := range got {
		got[w] = 0x5a5a5a5a5a5a5a5a
	}
	if ok := s.ConsensusInto(got, a, b); ok != (want != nil) || (ok && !s.Equal(got, want)) {
		t.Fatalf("%s: ConsensusInto = %v %v, want %v", label, ok, got, want)
	}
	return want
}

func TestDistanceAndConsensus(t *testing.T) {
	s := NewSpace(3, 0)
	a, _ := s.ParseCube("10-", "")
	b, _ := s.ParseCube("11-", "")
	if d := s.Distance(a, b); d != 1 {
		t.Fatalf("distance = %d, want 1", d)
	}
	c := requireConsensus(t, s, a, b, "input consensus")
	if c == nil {
		t.Fatal("no consensus at distance 1")
	}
	if got := s.String(c); got != "1--" {
		t.Fatalf("consensus = %q, want 1--", got)
	}
	e, _ := s.ParseCube("01-", "")
	if requireConsensus(t, s, a, e, "distance 2") != nil {
		t.Fatal("consensus at distance 2 should not exist")
	}
	if requireConsensus(t, s, a, a, "no outputs, distance 0") != nil {
		t.Fatal("an output-free space has no consensus at distance 0")
	}
	// Output-part consensus: same inputs, disjoint outputs.
	so := NewSpace(2, 2)
	p, _ := so.ParseCube("1-", "10")
	q, _ := so.ParseCube("1-", "01")
	if so.Distance(p, q) != 1 {
		t.Fatal("output distance wrong")
	}
	r := requireConsensus(t, so, p, q, "output consensus")
	if r == nil || !so.Output(r, 0) || !so.Output(r, 1) {
		t.Fatal("output consensus should union outputs")
	}
	// An input conflict with disjoint outputs is distance two.
	x, _ := so.ParseCube("0-", "01")
	if requireConsensus(t, so, p, x, "input and output conflict") != nil {
		t.Fatal("consensus at distance 2 should not exist")
	}
	// Overlapping outputs at distance zero: the output part is unioned.
	s3 := NewSpace(2, 3)
	u, _ := s3.ParseCube("1-", "110")
	v, _ := s3.ParseCube("-1", "011")
	if s3.Distance(u, v) != 0 {
		t.Fatal("overlapping cubes should be at distance 0")
	}
	if got := requireConsensus(t, s3, u, v, "overlapping outputs"); got == nil || s3.String(got) != "11 111" {
		t.Fatalf("overlapping-output consensus = %v, want 11 111", got)
	}
}

// TestPartOpsMatchPerVariable holds the word-parallel part tests
// (IsEmpty, Intersects, Distance, ConsensusInto) to a per-variable
// reading of the cubes, on spaces wide enough to span several words
// and on cubes with empty parts.
func TestPartOpsMatchPerVariable(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lits := []Literal{Empty, Zero, One, DC, DC, Zero, One}
	randCube := func(s *Space) Cube {
		c := s.NewCube()
		for i := 0; i < s.Inputs(); i++ {
			l := lits[1+rng.Intn(len(lits)-1)]
			if rng.Intn(4*s.Inputs()+1) == 0 {
				l = Empty
			}
			s.SetInput(c, i, l)
		}
		for o := 0; o < s.Outputs(); o++ {
			s.SetOutput(c, o, rng.Intn(2) == 0)
		}
		return c
	}
	for trial := 0; trial < 2000; trial++ {
		s := NewSpace(rng.Intn(70), rng.Intn(5))
		a, b := randCube(s), randCube(s)
		if s.Inputs() > 0 && rng.Intn(3) == 0 { // a near-copy: distance 0 or 1
			copy(b, a)
			s.SetInput(b, rng.Intn(s.Inputs()), lits[rng.Intn(4)])
		}
		empties := 0
		for i := 0; i < s.Inputs(); i++ {
			if s.Input(a, i)&s.Input(b, i) == Empty {
				empties++
			}
		}
		meet := false
		for o := 0; o < s.Outputs(); o++ {
			meet = meet || (s.Output(a, o) && s.Output(b, o))
		}
		dist := empties
		if s.Outputs() > 0 && !meet {
			dist++
		}
		if got := s.Distance(a, b); got != dist {
			t.Fatalf("trial %d: Distance = %d, want %d", trial, got, dist)
		}
		if got := s.Intersects(a, b); got != (dist == 0) {
			t.Fatalf("trial %d: Intersects = %v, distance %d", trial, got, dist)
		}
		aEmpty := s.Outputs() > 0
		for o := 0; o < s.Outputs(); o++ {
			aEmpty = aEmpty && !s.Output(a, o)
		}
		for i := 0; i < s.Inputs(); i++ {
			aEmpty = aEmpty || s.Input(a, i) == Empty
		}
		if s.IsEmpty(a) != aEmpty {
			t.Fatalf("trial %d: IsEmpty = %v, want %v", trial, s.IsEmpty(a), aEmpty)
		}
		requireConsensus(t, s, a, b, fmt.Sprintf("trial %d", trial))
		requirePacked(t, s, a, fmt.Sprintf("trial %d", trial))
	}
	// Wider than a packed mask: rejected, not truncated.
	wide := NewSpace(2, 65)
	if _, ok := wide.PackOutputs(wide.FullCube()); ok {
		t.Fatal("PackOutputs packed 65 outputs")
	}
}

// requirePacked fails unless PackInput and PackOutputs agree with the
// per-variable reading of c through Input and Output.
func requirePacked(t *testing.T, s *Space, c Cube, label string) {
	t.Helper()
	var value, mask uint64
	ok := s.Inputs() <= 63
	for i := 0; ok && i < s.Inputs(); i++ {
		switch s.Input(c, i) {
		case One:
			value |= 1 << i
		case DC:
			mask |= 1 << i
		case Empty:
			ok = false
		}
	}
	if !ok {
		value, mask = 0, 0
	}
	gv, gm, gok := s.PackInput(c)
	if gv != value || gm != mask || gok != ok {
		t.Fatalf("%s: PackInput(%s) = (%#x, %#x, %v), want (%#x, %#x, %v)", label, s.String(c), gv, gm, gok, value, mask, ok)
	}
	var outs uint64
	for o := 0; o < s.Outputs(); o++ {
		if s.Output(c, o) {
			outs |= 1 << o
		}
	}
	if got, ok := s.PackOutputs(c); got != outs || !ok {
		t.Fatalf("%s: PackOutputs(%s) = (%#x, %v), want %#x", label, s.String(c), got, ok, outs)
	}
}

func TestTautologyBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		s := NewSpace(1+rng.Intn(5), 1+rng.Intn(3))
		f := randomCover(s, rng.Intn(8), rng)
		want := true
	outer:
		for o := 0; o < s.Outputs(); o++ {
			for m := uint64(0); m < 1<<s.Inputs(); m++ {
				if !mintermInCover(f, m, o) {
					want = false
					break outer
				}
			}
		}
		if got := f.Tautology(); got != want {
			t.Fatalf("trial %d: Tautology = %v, brute force = %v\ncover:\n%s", trial, got, want, f)
		}
	}
}

func TestContainsCubeBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		s := NewSpace(1+rng.Intn(5), 1+rng.Intn(2))
		f := randomCover(s, 1+rng.Intn(6), rng)
		c := randomCover(s, 1, rng).Cubes[0]
		want := true
	outer:
		for o := 0; o < s.Outputs(); o++ {
			for m := uint64(0); m < 1<<s.Inputs(); m++ {
				if mintermIn(s, c, m, o) && !mintermInCover(f, m, o) {
					want = false
					break outer
				}
			}
		}
		if got := f.ContainsCube(c); got != want {
			t.Fatalf("trial %d: ContainsCube = %v, brute force = %v", trial, got, want)
		}
	}
}

func TestComplementInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		s := NewSpace(1+rng.Intn(6), 0)
		f := randomCover(s, rng.Intn(7), rng)
		g := f.ComplementInputs()
		for m := uint64(0); m < 1<<s.Inputs(); m++ {
			inF := mintermInCover(f, m, 0)
			inG := mintermInCover(g, m, 0)
			if inF == inG {
				t.Fatalf("trial %d: minterm %b in both or neither (f=%v g=%v)", trial, m, inF, inG)
			}
		}
	}
}

func TestSharpBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		s := NewSpace(1+rng.Intn(4), 1+rng.Intn(2))
		a := randomCover(s, 1, rng).Cubes[0]
		b := randomCover(s, 1, rng).Cubes[0]
		parts := s.Sharp(a, b)
		// The parts must be pairwise disjoint and cover exactly a\b.
		for i := range parts {
			for j := i + 1; j < len(parts); j++ {
				if s.Intersects(parts[i], parts[j]) {
					t.Fatalf("trial %d: sharp parts intersect", trial)
				}
			}
		}
		pc := &Cover{S: s, Cubes: parts}
		for o := 0; o < s.Outputs(); o++ {
			for m := uint64(0); m < 1<<s.Inputs(); m++ {
				want := mintermIn(s, a, m, o) && !mintermIn(s, b, m, o)
				if got := mintermInCover(pc, m, o); got != want {
					t.Fatalf("trial %d: sharp wrong at m=%b o=%d: got %v want %v", trial, m, o, got, want)
				}
			}
		}
	}
}

func TestSharpCover(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		s := NewSpace(1+rng.Intn(4), 1)
		f := randomCover(s, 1+rng.Intn(3), rng)
		g := randomCover(s, rng.Intn(3), rng)
		d := f.SharpCover(g)
		for m := uint64(0); m < 1<<s.Inputs(); m++ {
			want := mintermInCover(f, m, 0) && !mintermInCover(g, m, 0)
			if got := mintermInCover(d, m, 0); got != want {
				t.Fatalf("trial %d: SharpCover wrong at m=%b", trial, m)
			}
		}
	}
}

func TestSuperCube(t *testing.T) {
	s := NewSpace(3, 1)
	a, _ := s.ParseCube("100", "1")
	b, _ := s.ParseCube("110", "1")
	sc := s.SuperCube([]Cube{a, b})
	if got := s.String(sc); got != "1-0 1" {
		t.Fatalf("supercube = %q", got)
	}
	if s.SuperCube(nil) != nil {
		t.Fatal("supercube of empty should be nil")
	}
}

func TestDedup(t *testing.T) {
	s := NewSpace(2, 1)
	f := NewCover(s)
	a, _ := s.ParseCube("1-", "1")
	b, _ := s.ParseCube("10", "1") // contained in a
	c, _ := s.ParseCube("1-", "1") // duplicate of a
	f.Add(a)
	f.Add(b)
	f.Add(c)
	g := f.Dedup()
	if g.Len() != 1 {
		t.Fatalf("Dedup kept %d cubes, want 1:\n%s", g.Len(), g)
	}
}

func TestMintermEnumeration(t *testing.T) {
	s := NewSpace(3, 2)
	c, _ := s.ParseCube("1--", "01")
	var ms []uint64
	s.Minterms(c, 1, func(m uint64) bool { ms = append(ms, m); return true })
	if len(ms) != 4 {
		t.Fatalf("got %d minterms, want 4", len(ms))
	}
	for _, m := range ms {
		if m&1 == 0 {
			t.Fatalf("minterm %b should have input 0 set", m)
		}
	}
	ms = nil
	s.Minterms(c, 0, func(m uint64) bool { ms = append(ms, m); return true })
	if len(ms) != 0 {
		t.Fatal("cube does not drive output 0")
	}
	// Round trip through CubeOfMinterm.
	mc := s.CubeOfMinterm(5, 1)
	if !mintermIn(s, mc, 5, 1) || mintermIn(s, mc, 4, 1) || mintermIn(s, mc, 5, 0) {
		t.Fatal("CubeOfMinterm wrong")
	}
}

func TestCofactorProperties(t *testing.T) {
	s := NewSpace(4, 1)
	c, _ := s.ParseCube("10--", "1")
	p, _ := s.ParseCube("1---", "1")
	r := s.Cofactor(c, p)
	if r == nil {
		t.Fatal("cofactor of intersecting cubes nil")
	}
	if s.Input(r, 0) != DC {
		t.Fatal("cofactored variable should become DC")
	}
	q, _ := s.ParseCube("0---", "1")
	if s.Cofactor(c, q) != nil {
		t.Fatal("cofactor of disjoint cubes should be nil")
	}
}

func TestEquivalentTo(t *testing.T) {
	s := NewSpace(2, 1)
	// x0 XOR-free identity: f = x0 + x0'x1 == x0 + x1
	f := NewCover(s)
	a, _ := s.ParseCube("1-", "1")
	b, _ := s.ParseCube("01", "1")
	f.Add(a)
	f.Add(b)
	g := NewCover(s)
	c, _ := s.ParseCube("1-", "1")
	d, _ := s.ParseCube("-1", "1")
	g.Add(c)
	g.Add(d)
	if !f.EquivalentTo(g) {
		t.Fatal("equivalent covers reported different")
	}
	h := NewCover(s)
	h.Add(s.Copy(a))
	if f.EquivalentTo(h) {
		t.Fatal("different covers reported equivalent")
	}
}

func TestLiterals(t *testing.T) {
	s := NewSpace(4, 1)
	f := NewCover(s)
	a, _ := s.ParseCube("10--", "1")
	b, _ := s.ParseCube("----", "1")
	c, _ := s.ParseCube("0011", "1")
	f.Add(a)
	f.Add(b)
	f.Add(c)
	if got := f.Literals(); got != 2+0+4 {
		t.Fatalf("Literals = %d, want 6", got)
	}
}
