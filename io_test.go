package ucp

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestReadProblem(t *testing.T) {
	src := `
# a comment
p 3 4
c 1 2 3 4
r 0 1
r 2 3   # trailing comment
r 0 3
`
	p, err := ReadProblem(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rows) != 3 || p.NCol != 4 {
		t.Fatalf("shape %dx%d", len(p.Rows), p.NCol)
	}
	if p.Cost[3] != 4 {
		t.Fatalf("costs %v", p.Cost)
	}
}

func TestReadProblemDefaultsToUnitCosts(t *testing.T) {
	p, err := ReadProblem(strings.NewReader("p 1 2\nr 0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost[0] != 1 || p.Cost[1] != 1 {
		t.Fatalf("costs %v", p.Cost)
	}
}

func TestReadProblemErrors(t *testing.T) {
	cases := []string{
		"r 0 1\n",           // row before p
		"p 1\n",             // malformed p
		"p 1 2\nc 1\nr 0\n", // short cost vector
		"p 1 2\nr 0 x\n",    // bad column
		"p 2 2\nr 0\n",      // row count mismatch
		"p 1 2\nq 0\n",      // unknown directive
		"p 1 2\nr 5\n",      // column out of range
		"",                  // empty
	}
	for k, src := range cases {
		if _, err := ReadProblem(strings.NewReader(src)); err == nil {
			t.Fatalf("case %d: error expected for %q", k, src)
		}
	}
}

func TestProblemRoundTrip(t *testing.T) {
	p, err := NewProblem([][]int{{0, 2}, {1}, {0, 1, 2}}, 3, []int{2, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProblem(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProblem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != len(p.Rows) || q.NCol != p.NCol {
		t.Fatal("shape changed")
	}
	for i := range p.Rows {
		if len(p.Rows[i]) != len(q.Rows[i]) {
			t.Fatalf("row %d changed", i)
		}
		for k := range p.Rows[i] {
			if p.Rows[i][k] != q.Rows[i][k] {
				t.Fatalf("row %d changed", i)
			}
		}
	}
	for j := range p.Cost {
		if p.Cost[j] != q.Cost[j] {
			t.Fatal("costs changed")
		}
	}
}

func TestWriteProblemOmitsUniformCosts(t *testing.T) {
	p, _ := NewProblem([][]int{{0}}, 2, nil)
	var buf bytes.Buffer
	if err := WriteProblem(&buf, p); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "c ") {
		t.Fatalf("uniform costs should be omitted:\n%s", buf.String())
	}
}

// TestReadORLibProblemErrorLines: OR-Library parse failures carry the
// 1-based line number they were detected on and wrap ErrMalformedInput.
func TestReadORLibProblemErrorLines(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"bad cost", "2 2\n1 x\n", "line 2"},
		{"column out of range", "1 2\n1 1\n1 5\n", "line 3"},
		{"negative degree", "1 2\n1 1\n-3\n", "line 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadORLibProblem(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("input unexpectedly accepted")
			}
			if !errors.Is(err, ErrMalformedInput) {
				t.Fatalf("error %v does not wrap ErrMalformedInput", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not carry %q", err, tc.want)
			}
		})
	}
}

// TestMatrixTextReadersAgree: ReadProblem and SolveSCGMatrix, in
// memory and under a byte budget, parse the covering-matrix format
// with one parser, so every input is accepted by all three or rejected
// by all three.
func TestMatrixTextReadersAgree(t *testing.T) {
	cases := []struct {
		name, in string
		ok       bool
	}{
		{"plain", "p 2 3\nr 0 1\nr 2\n", true},
		{"costs and comments", "# head\np 2 3\n\nc 3 1 2\n# between\nr 0 1\nr 1 2\n", true},
		{"trailing comment on a row", "p 3 4\nc 1 2 3 4\nr 0 1\nr 2 3   # note\nr 0 3\n", true},
		{"trailing comments on p and c", "p 1 2 # size\nc 4 5\t# costs\nr 0 1\n", true},
		{"unsorted duplicate ids", "p 1 3\nr 2 0 2\n", true},
		{"no rows", "p 0 3\n", true},
		{"empty row", "p 2 2\nr\nr 1\n", true},
		{"empty input", "", false},
		{"comment only", "# nothing\n", false},
		{"row before p", "r 0 1\n", false},
		{"malformed p", "p 1\nr 0\n", false},
		{"p line with a third number", "p 1 2 3\nr 0\n", false},
		{"duplicate p", "p 1 2\np 1 2\nr 0\n", false},
		{"cost after rows", "p 2 2\nr 0\nc 1 1\nr 1\n", false},
		{"short cost line", "p 1 3\nc 1 1\nr 0\n", false},
		{"long cost line", "p 1 2\nc 1 1 1\nr 0\n", false},
		{"negative cost", "p 1 2\nc 1 -1\nr 0\n", false},
		{"bad column", "p 1 2\nr 0 x\n", false},
		{"comment glued to a column", "p 1 2\nr 0 1#x\n", false},
		{"column out of range", "p 1 2\nr 5\n", false},
		{"negative column", "p 1 2\nr -1\n", false},
		{"row count mismatch", "p 2 2\nr 0\n", false},
		{"unknown directive", "p 1 2\nq 0\n", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadProblem(strings.NewReader(tc.in))
			errs := map[string]error{"ReadProblem": err}
			_, errs["SolveSCGMatrix"] = SolveSCGMatrix(strings.NewReader(tc.in), SCGOptions{Seed: 1, NumIter: 1})
			_, errs["SolveSCGMatrix+MemBudget"] = SolveSCGMatrix(strings.NewReader(tc.in),
				SCGOptions{Seed: 1, NumIter: 1, MemBudget: 1 << 16, SpillDir: t.TempDir()})
			for path, err := range errs {
				if (err == nil) != tc.ok {
					t.Errorf("%s: error %v, want accepted=%v", path, err, tc.ok)
				}
				if err != nil && !errors.Is(err, ErrMalformedInput) {
					t.Errorf("%s: error %v does not wrap ErrMalformedInput", path, err)
				}
			}
		})
	}
}
