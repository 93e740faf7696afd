package pla

import (
	"bytes"
	"strings"
	"testing"

	"ucp/internal/cube"
)

const sample = `
# a 3-input 2-output example with don't cares
.i 3
.o 2
.ilb a b c
.ob f g
.p 4
110 10
1-1 11
000 -1
011 01
.e
`

func TestParseBasics(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.Space.Inputs() != 3 || f.Space.Outputs() != 2 {
		t.Fatalf("space %d/%d", f.Space.Inputs(), f.Space.Outputs())
	}
	if f.Type != "fd" {
		t.Fatalf("type = %q", f.Type)
	}
	if len(f.InputLabels) != 3 || f.InputLabels[0] != "a" {
		t.Fatalf("ilb = %v", f.InputLabels)
	}
	// Line "000 -1": output 0 is DC, output 1 is ON → one F cube for
	// g, one D cube for f.
	if f.F.Len() != 4 {
		t.Fatalf("F has %d cubes, want 4", f.F.Len())
	}
	if f.D.Len() != 1 {
		t.Fatalf("D has %d cubes, want 1", f.D.Len())
	}
	d := f.D.Cubes[0]
	if !f.Space.Output(d, 0) || f.Space.Output(d, 1) {
		t.Fatal("DC cube outputs wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		".i 2\n.o 1\n101 1\n",    // wrong width
		".i 2\n.o 1\n1z 1\n",     // bad input char
		".i 2\n.o 1\n11 z\n",     // bad output char
		"11 1\n",                 // cube before .i/.o
		".i x\n.o 1\n",           // bad .i
		".i 2\n.o 1\n.type zz\n", // bad type
		"",                       // no declarations at all
		".i 2\n.o 0\n",           // zero outputs rejected
	}
	for k, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Fatalf("case %d: error expected for %q", k, src)
		}
	}
}

func TestParseTypeFR(t *testing.T) {
	src := ".i 2\n.o 1\n.type fr\n11 1\n00 0\n"
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.F.Len() != 1 || f.R.Len() != 1 || f.D.Len() != 0 {
		t.Fatalf("F=%d R=%d D=%d", f.F.Len(), f.R.Len(), f.D.Len())
	}
	// Implicit D = ¬(F ∪ R) = {01, 10}.
	d := f.DontCares()
	n := 0
	for m := uint64(0); m < 4; m++ {
		mc := f.Space.CubeOfMinterm(m, 0)
		if d.ContainsCube(mc) {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("implicit DC covers %d minterms, want 2", n)
	}
	offs := f.OffSets()
	if len(offs) != 1 || offs[0].Len() != 1 {
		t.Fatalf("offsets = %v", offs)
	}
}

func TestWriteRoundTrip(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if !f.F.EquivalentTo(g.F) {
		t.Fatalf("F changed across round trip:\n%s\nvs\n%s", f.F, g.F)
	}
	if !f.D.EquivalentTo(g.D) {
		t.Fatal("D changed across round trip")
	}
	if len(g.InputLabels) != 3 || g.InputLabels[2] != "c" {
		t.Fatalf("labels lost: %v", g.InputLabels)
	}
}

func TestOffSetsComplement(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	offs := f.OffSets()
	s := f.Space
	for o := 0; o < s.Outputs(); o++ {
		for m := uint64(0); m < 1<<s.Inputs(); m++ {
			mc := s.CubeOfMinterm(m, o)
			inOn := f.F.ContainsCube(mc)
			inDC := f.D.ContainsCube(mc)
			inOff := false
			for _, c := range offs[o].Cubes {
				// offs are pure input cubes: compare inputs only.
				ok := true
				for i := 0; i < s.Inputs(); i++ {
					bit := cube.Zero
					if m>>i&1 == 1 {
						bit = cube.One
					}
					if s.Input(c, i)&bit == 0 {
						ok = false
						break
					}
				}
				if ok {
					inOff = true
					break
				}
			}
			if inOff == (inOn || inDC) {
				t.Fatalf("output %d minterm %b: off=%v on=%v dc=%v", o, m, inOff, inOn, inDC)
			}
		}
	}
}

func TestPipeSeparator(t *testing.T) {
	src := ".i 2\n.o 1\n10|1\n"
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.F.Len() != 1 {
		t.Fatal("pipe-separated cube not parsed")
	}
}

func TestIgnoredDirectives(t *testing.T) {
	src := ".i 1\n.o 1\n.phase 1\n.pair (a b)\n1 1\n.end\n"
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if f.F.Len() != 1 {
		t.Fatal("cube after ignored directives lost")
	}
}

// TestLongLines: the scanner starts small and grows on demand, so a
// line past 1 MiB still parses, while one past the 16 MiB cap fails.
func TestLongLines(t *testing.T) {
	long := "# " + strings.Repeat("x", 3<<19) + "\n" // 1.5 MiB comment
	f, err := Parse(strings.NewReader(".i 2\n.o 1\n" + long + "11 1\n"))
	if err != nil {
		t.Fatalf("1.5 MiB line: %v", err)
	}
	if f.F.Len() != 1 {
		t.Fatalf("%d cubes after the long line, want 1", f.F.Len())
	}
	huge := "# " + strings.Repeat("x", 1<<24) + "\n"
	if _, err := Parse(strings.NewReader(".i 2\n.o 1\n" + huge + "11 1\n")); err == nil {
		t.Fatal("a line over 16 MiB parsed")
	}
}
