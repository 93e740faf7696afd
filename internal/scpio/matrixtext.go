package scpio

import (
	"fmt"
	"io"
)

// MatrixReader streams the repo's covering-matrix text format:
//
//	# comment
//	p <rows> <cols>
//	c <cost_0> ... <cost_{cols-1}>     (optional; default 1)
//	r <col> <col> ...                  (one line per row)
//
// Column ids are zero-based, and a '#' after whitespace starts a
// comment that runs to the end of its line.  The optional cost line
// must precede the first row (costs must be known before rows can be
// dispatched); a file with `c` after `r` lines, or with a second `p`
// line, is rejected with a line-numbered error.  It is the only parser
// of the format: ucp.ReadProblem collects the same stream into a
// problem.
type MatrixReader struct {
	lx    *Lexer
	nrows int
	ncols int
	cost  []int
	seen  int
	done  bool
}

// NewMatrixReader parses the header: everything up to (not including)
// the first row directive.
func NewMatrixReader(r io.Reader) (*MatrixReader, error) {
	m := &MatrixReader{lx: NewLexer(r), nrows: -1, ncols: -1}
	for {
		d, eof, err := m.directive()
		if err != nil {
			return nil, err
		}
		if eof {
			if m.ncols < 0 {
				return nil, fmt.Errorf("missing p line")
			}
			m.done = true
			return m, nil
		}
		switch d {
		case 'p':
			if m.ncols >= 0 {
				return nil, m.lx.Errf("duplicate p line")
			}
			nr, d1, err := m.lx.IntInLine()
			if err != nil {
				return nil, fmt.Errorf("line %d: malformed p line: %w", m.lx.Line(), err)
			}
			nc, d2, err := m.lx.IntInLine()
			if err != nil {
				return nil, fmt.Errorf("line %d: malformed p line: %w", m.lx.Line(), err)
			}
			if d1 || d2 {
				return nil, m.lx.Errf("malformed p line")
			}
			if nr < 0 || nc < 0 || nr > MaxDim || nc > MaxDim {
				return nil, m.lx.Errf("bad problem size")
			}
			if _, done, err := m.lx.IntInLine(); err != nil || !done {
				return nil, m.lx.Errf("malformed p line")
			}
			m.nrows, m.ncols = nr, nc
		case 'c':
			if m.ncols < 0 {
				return nil, m.lx.Errf("c line before p line")
			}
			m.cost = make([]int, m.ncols)
			for j := range m.cost {
				v, done, err := m.lx.IntInLine()
				if err != nil {
					return nil, fmt.Errorf("line %d: bad cost: %w", m.lx.Line(), err)
				}
				if done {
					return nil, m.lx.Errf("%d costs for %d columns", j, m.ncols)
				}
				m.cost[j] = v
			}
			if _, done, err := m.lx.IntInLine(); err != nil || !done {
				return nil, m.lx.Errf("more than %d costs on c line", m.ncols)
			}
		case 'r':
			if m.ncols < 0 {
				return nil, m.lx.Errf("r line before p line")
			}
			return m, nil // header complete; Next picks up this row
		default:
			return nil, m.lx.Errf("unknown directive %q", string(d))
		}
	}
}

// directive positions the lexer after the next directive letter,
// skipping blank lines and comments.  eof=true at a clean end of
// stream.
func (m *MatrixReader) directive() (d byte, eof bool, err error) {
	for {
		if !m.lx.skipSpace() {
			if m.lx.err == io.EOF {
				return 0, true, nil
			}
			return 0, false, m.lx.err
		}
		c := m.lx.buf[m.lx.pos]
		if c == '#' {
			m.lx.skipRestOfLine()
			continue
		}
		m.lx.pos++
		return c, false, nil
	}
}

// NumRows returns the declared row count (-1 when the p line omitted
// it — the format always declares it, so -1 never survives a valid
// header).
func (m *MatrixReader) NumRows() int { return m.nrows }

// NumCols returns the declared column count.
func (m *MatrixReader) NumCols() int { return m.ncols }

// Cost returns the cost vector, or nil for uniform unit costs.
func (m *MatrixReader) Cost() []int { return m.cost }

// Next returns the next row's column ids (raw file order, duplicates
// preserved) appended to buf[:0].  io.EOF after the last row; the
// declared row count is validated against the rows actually seen.
func (m *MatrixReader) Next(buf []int) ([]int, error) {
	if m.done {
		return nil, m.finish()
	}
	row := buf[:0]
	for {
		v, done, err := m.lx.IntInLine()
		if err != nil {
			return nil, fmt.Errorf("line %d: bad column: %w", m.lx.Line(), err)
		}
		if done {
			break
		}
		row = append(row, v)
	}
	m.seen++
	// Find the next row directive (or EOF) so the following Next call
	// starts positioned on a row.
	for {
		d, eof, err := m.directive()
		if err != nil {
			return nil, err
		}
		if eof {
			m.done = true
			return row, nil
		}
		switch d {
		case 'r':
			return row, nil
		case 'c', 'p':
			return nil, m.lx.Errf("%q line after row data", string(d))
		default:
			return nil, m.lx.Errf("unknown directive %q", string(d))
		}
	}
}

// finish validates the declared row count once the stream is drained.
func (m *MatrixReader) finish() error {
	if m.nrows >= 0 && m.nrows != m.seen {
		return fmt.Errorf("p line declares %d rows, found %d", m.nrows, m.seen)
	}
	return io.EOF
}
