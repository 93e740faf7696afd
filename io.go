package ucp

import (
	"bufio"
	"fmt"
	"io"

	"ucp/internal/benchmarks"
	"ucp/internal/scpio"
)

// The covering-matrix text format understood by ReadProblem and
// SolveSCGMatrix and emitted by WriteProblem:
//
//	# comment
//	p <rows> <cols>
//	c <cost_0> <cost_1> ... <cost_{cols-1}>     (optional; default 1)
//	r <col> <col> ...                           (one line per row)
//
// Column ids are zero-based.  There is one p line, the c line comes
// before the first r line, and a '#' after whitespace starts a comment
// that runs to the end of its line.

// ReadProblem parses a covering problem in the text format above.
func ReadProblem(r io.Reader) (p *Problem, err error) {
	defer malformed(&err)
	defer guard(&err)
	mr, err := scpio.NewMatrixReader(r)
	if err != nil {
		return nil, fmt.Errorf("ucp: %w", err)
	}
	var rows [][]int
	for {
		row, err := mr.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("ucp: %w", err)
		}
		rows = append(rows, row)
	}
	return NewProblem(rows, mr.NumCols(), mr.Cost())
}

// WriteProblem emits p in the text format understood by ReadProblem.
func WriteProblem(w io.Writer, p *Problem) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p %d %d\n", len(p.Rows), p.NCol)
	uniform := true
	for _, c := range p.Cost {
		if c != 1 {
			uniform = false
			break
		}
	}
	if !uniform {
		bw.WriteString("c")
		for _, c := range p.Cost {
			fmt.Fprintf(bw, " %d", c)
		}
		bw.WriteByte('\n')
	}
	for _, r := range p.Rows {
		bw.WriteString("r")
		for _, j := range r {
			fmt.Fprintf(bw, " %d", j)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadORLibProblem parses a set-covering instance in the Beasley
// OR-Library "scp" format (row/column counts, the column costs, then
// each row's degree and 1-based covering columns, all free-format).
func ReadORLibProblem(r io.Reader) (p *Problem, err error) {
	defer malformed(&err)
	defer guard(&err)
	return benchmarks.ReadORLib(r)
}

// WriteORLibProblem emits p in the Beasley OR-Library format.
func WriteORLibProblem(w io.Writer, p *Problem) error { return benchmarks.WriteORLib(w, p) }
