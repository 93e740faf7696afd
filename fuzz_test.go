package ucp

import (
	"bytes"
	"strings"
	"testing"
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
