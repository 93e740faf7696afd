package scpio

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// iotaReader hands out one byte per Read call, forcing every buffer
// boundary the lexer can hit.
type byteAtATime struct{ s string }

func (b *byteAtATime) Read(p []byte) (int, error) {
	if len(b.s) == 0 {
		return 0, io.EOF
	}
	p[0] = b.s[0]
	b.s = b.s[1:]
	return 1, nil
}

const orlibSample = `3 4
2 1 3 5
2 1 2
3
2 3 4
1 4
`

func drainORLib(t *testing.T, r io.Reader) (*ORLibReader, [][]int) {
	t.Helper()
	or, err := NewORLibReader(r)
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	var rows [][]int
	for {
		row, err := or.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("row %d: %v", len(rows), err)
		}
		rows = append(rows, append([]int(nil), row...))
	}
	return or, rows
}

func TestORLibReader(t *testing.T) {
	or, rows := drainORLib(t, strings.NewReader(orlibSample))
	if or.NumRows() != 3 || or.NumCols() != 4 {
		t.Fatalf("size %dx%d, want 3x4", or.NumRows(), or.NumCols())
	}
	if !reflect.DeepEqual(or.Cost(), []int{2, 1, 3, 5}) {
		t.Fatalf("cost = %v", or.Cost())
	}
	want := [][]int{{0, 1}, {1, 2, 3}, {3}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
}

// TestORLibReaderTinyReads re-parses the sample one byte per Read call:
// the result must be identical regardless of how the stream fragments.
func TestORLibReaderTinyReads(t *testing.T) {
	_, base := drainORLib(t, strings.NewReader(orlibSample))
	_, tiny := drainORLib(t, &byteAtATime{orlibSample})
	if !reflect.DeepEqual(base, tiny) {
		t.Fatalf("fragmented parse diverged: %v vs %v", base, tiny)
	}
}

// orlibRead is everything an OR-Library stream yields: the header, the
// rows and the text of the error that ended it ("" at a clean end).
type orlibRead struct {
	rows, cols int
	cost       []int
	data       [][]int
	err        string
}

func readORLib(r io.Reader) orlibRead {
	or, err := NewORLibReader(r)
	if err != nil {
		return orlibRead{err: err.Error()}
	}
	out := orlibRead{rows: or.NumRows(), cols: or.NumCols(), cost: or.Cost()}
	var row []int
	for {
		if row, err = or.Next(row); err != nil {
			if err != io.EOF {
				out.err = err.Error()
			}
			return out
		}
		out.data = append(out.data, append([]int(nil), row...))
	}
}

// chunkReader hands out at most n bytes per Read call.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// FuzzORLibReader: a text read whole, where every token inside the
// lexer's window takes the in-window loop, reads exactly as it does
// one byte per Read call, where every token crosses a refill, and in
// chunks of 2 to 17 bytes, where the loop meets the window's end
// mid-token — the same header, costs and rows, and the same error
// text, line number included.
func FuzzORLibReader(f *testing.F) {
	for _, s := range []string{
		orlibSample,
		"1 1\n2147483648\n1 1\n", // a cost at 2³¹
		"1 1\n2147483649\n1 1\n", // one past it
		"1 2\n3 -4\n1 -1\n",      // signs
		"1 2\n3 4\n2 1 -\n",      // a bare sign
		"1 2\n3 4 # note\n1 1\n", // '#' is no comment here
		"2 3\r\n1 2 3\r\n2 1 3\r\n1 2\r\n",
		"1 2\n3 4\n2 1 2", // the last token ends the input
		"1 2\n3 4\n2 1 2x\n",
	} {
		f.Add(s, uint8(len(s)))
	}
	f.Fuzz(func(t *testing.T, s string, chunk uint8) {
		whole := readORLib(strings.NewReader(s))
		tiny := readORLib(iotest.OneByteReader(strings.NewReader(s)))
		if !reflect.DeepEqual(whole, tiny) {
			t.Fatalf("read whole %s\none byte at a time %s", fmt.Sprint(whole), fmt.Sprint(tiny))
		}
		n := 2 + int(chunk%16)
		if chunked := readORLib(chunkReader{strings.NewReader(s), n}); !reflect.DeepEqual(whole, chunked) {
			t.Fatalf("read whole %s\n%d bytes at a time %s", fmt.Sprint(whole), n, fmt.Sprint(chunked))
		}
	})
}

func TestORLibReaderErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"truncated header", "3", "line 1"},
		{"bad size", "-1 4", "invalid size"},
		{"non-numeric cost", "1 2\n1 x\n", "line 2"},
		{"truncated row", "2 2\n1 1\n2 1\n", "unexpected EOF"},
		{"column out of range", "1 2\n1 1\n1 5\n", "line 3: row 0 references column 5 of 2"},
		{"negative degree", "1 2\n1 1\n-2\n", "negative degree"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			or, err := NewORLibReader(strings.NewReader(tc.in))
			for err == nil {
				_, err = or.Next(nil)
			}
			if err == io.EOF || err == nil {
				t.Fatalf("parse succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

const matrixSample = `# a comment
p 3 4

c 2 1 3 5
r 0 1
# interior comment
r 1 2 3
r 3
`

func drainMatrix(t *testing.T, r io.Reader) (*MatrixReader, [][]int) {
	t.Helper()
	mr, err := NewMatrixReader(r)
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	var rows [][]int
	for {
		row, err := mr.Next(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("row %d: %v", len(rows), err)
		}
		rows = append(rows, append([]int(nil), row...))
	}
	return mr, rows
}

func TestMatrixReader(t *testing.T) {
	mr, rows := drainMatrix(t, strings.NewReader(matrixSample))
	if mr.NumRows() != 3 || mr.NumCols() != 4 {
		t.Fatalf("size %dx%d, want 3x4", mr.NumRows(), mr.NumCols())
	}
	if !reflect.DeepEqual(mr.Cost(), []int{2, 1, 3, 5}) {
		t.Fatalf("cost = %v", mr.Cost())
	}
	want := [][]int{{0, 1}, {1, 2, 3}, {3}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
}

func TestMatrixReaderNoCosts(t *testing.T) {
	mr, rows := drainMatrix(t, strings.NewReader("p 1 2\nr 0 1\n"))
	if mr.Cost() != nil {
		t.Fatalf("cost = %v, want nil (unit costs)", mr.Cost())
	}
	if !reflect.DeepEqual(rows, [][]int{{0, 1}}) {
		t.Fatalf("rows = %v", rows)
	}
}

func TestMatrixReaderEmptyRow(t *testing.T) {
	_, rows := drainMatrix(t, strings.NewReader("p 2 2\nr\nr 1\n"))
	want := [][]int{{}, {1}}
	if len(rows) != 2 || len(rows[0]) != 0 || !reflect.DeepEqual(rows[1], want[1]) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
}

func TestMatrixReaderTinyReads(t *testing.T) {
	_, base := drainMatrix(t, strings.NewReader(matrixSample))
	_, tiny := drainMatrix(t, &byteAtATime{matrixSample})
	if !reflect.DeepEqual(base, tiny) {
		t.Fatalf("fragmented parse diverged: %v vs %v", base, tiny)
	}
}

func TestMatrixReaderErrors(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"missing p", "r 0 1\n", "line 1: r line before p line"},
		{"unknown directive", "p 1 2\nq 1\n", "line 2: unknown directive"},
		{"cost after rows", "p 2 2\nr 0\nc 1 1\nr 1\n", `"c" line after row data`},
		{"duplicate p", "p 1 2\np 1 2\n", "duplicate p line"},
		{"short cost line", "p 1 3\nc 1 1\nr 0\n", "2 costs for 3 columns"},
		{"row count mismatch", "p 3 2\nr 0\nr 1\n", "declares 3 rows, found 2"},
		{"non-numeric column", "p 1 2\nr 0 x\n", "line 2: bad column"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mr, err := NewMatrixReader(strings.NewReader(tc.in))
			for err == nil {
				_, err = mr.Next(nil)
			}
			if err == io.EOF || err == nil {
				t.Fatalf("parse succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
