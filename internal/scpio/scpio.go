// Package scpio streams set-covering instances from their interchange
// formats — the Beasley OR-Library "scp" format and the repo's
// covering-matrix text format — without ever materialising the file or
// the full row set: a fixed-size read buffer, one row handed out at a
// time.  It is the IO substrate of the out-of-core sharded driver
// (internal/shard) and of the in-memory readers in internal/benchmarks
// and the ucp root, which collect the same stream into a
// matrix.Problem.  Every parse error carries the 1-based line number
// it was detected on.
package scpio

import (
	"fmt"
	"io"
)

// MaxDim bounds declared row/column counts in both formats.
const MaxDim = 1 << 24

// bufSize is the lexer's read buffer: tokens are integers, so a tiny
// fixed buffer bounds memory regardless of the instance size.
const bufSize = 64 << 10

// Lexer tokenizes whitespace-separated integers from a stream, keeping
// a fixed-size buffer and the current 1-based line number.
type Lexer struct {
	r    io.Reader
	buf  []byte
	pos  int
	end  int
	line int
	err  error // sticky read error (io.EOF included)
}

// NewLexer wraps r.
func NewLexer(r io.Reader) *Lexer {
	return &Lexer{r: r, buf: make([]byte, bufSize), line: 1}
}

// Line returns the 1-based line number of the last byte consumed.
func (lx *Lexer) Line() int { return lx.line }

// Errf builds a parse error tagged with the current line.
func (lx *Lexer) Errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", lx.line, fmt.Sprintf(format, args...))
}

func (lx *Lexer) fill() bool {
	if lx.pos < lx.end {
		return true
	}
	if lx.err != nil {
		return false
	}
	for {
		n, err := lx.r.Read(lx.buf)
		if n > 0 {
			lx.pos, lx.end = 0, n
			if err != nil {
				lx.err = err
			}
			return true
		}
		if err != nil {
			lx.err = err
			return false
		}
	}
}

// readErr is the stream error to surface after fill returned false:
// clean EOF maps to io.ErrUnexpectedEOF for callers mid-structure.
func (lx *Lexer) readErr() error {
	if lx.err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return lx.err
}

// isSpace reports ' ' and '\t' '\n' '\v' '\f' '\r', which are
// contiguous in ASCII.
func isSpace(c byte) bool {
	return c == ' ' || c-'\t' <= '\r'-'\t'
}

// skipSpace consumes whitespace (counting newlines); it reports
// whether a non-space byte is available.
func (lx *Lexer) skipSpace() bool {
	for {
		if !lx.fill() {
			return false
		}
		c := lx.buf[lx.pos]
		if !isSpace(c) {
			return true
		}
		if c == '\n' {
			lx.line++
		}
		lx.pos++
	}
}

// skipSpaceInLine consumes spaces and tabs up to (not including) the
// next newline.  It returns the next byte and false at a newline or
// end of stream.
func (lx *Lexer) skipSpaceInLine() (byte, bool) {
	for {
		if !lx.fill() {
			return 0, false
		}
		c := lx.buf[lx.pos]
		if c == '\n' {
			return 0, false
		}
		if !isSpace(c) {
			return c, true
		}
		lx.pos++
	}
}

// skipRestOfLine consumes everything up to and including the next
// newline (or end of stream).
func (lx *Lexer) skipRestOfLine() {
	for lx.fill() {
		c := lx.buf[lx.pos]
		lx.pos++
		if c == '\n' {
			lx.line++
			return
		}
	}
}

// number parses the integer starting at the current (non-space)
// position.  Same grammar as the historical readers: an optional
// leading '-', then decimal digits, magnitude capped at 2³¹.
func (lx *Lexer) number() (int, error) {
	v := 0
	neg := false
	digits := 0
	first := true
	for {
		if !lx.fill() {
			break
		}
		c := lx.buf[lx.pos]
		if first && c == '-' {
			neg = true
			first = false
			lx.pos++
			continue
		}
		first = false
		if c < '0' || c > '9' {
			if isSpace(c) {
				break
			}
			return 0, lx.Errf("non-numeric token (unexpected %q)", string(c))
		}
		v = v*10 + int(c-'0')
		digits++
		if v > 1<<31 {
			return 0, lx.Errf("numeric token out of range")
		}
		lx.pos++
	}
	if digits == 0 {
		return 0, lx.Errf("non-numeric token")
	}
	if neg {
		v = -v
	}
	return v, nil
}

// Int returns the next integer token, skipping any whitespace
// (newlines included).  At a clean end of stream it returns
// io.ErrUnexpectedEOF — callers ask for an Int only when the format
// requires one.
//
// The whitespace and an unsigned token that end inside the window are
// read in one loop over the buffer.  Everything else — the window's
// end, a sign, a malformed byte, a value past 2³¹ — goes to skipSpace
// and number, which read the token again from its first byte, so the
// tokens, errors and line numbers are those of the byte-at-a-time
// path.
func (lx *Lexer) Int() (int, error) {
	buf, p := lx.buf[:lx.end], lx.pos
	for p < len(buf) && isSpace(buf[p]) {
		if buf[p] == '\n' {
			lx.line++
		}
		p++
	}
	lx.pos = p
	v := 0
	for q := p; q < len(buf); q++ {
		c := buf[q]
		if c-'0' <= 9 {
			if v = v*10 + int(c-'0'); v > 1<<31 {
				break
			}
			continue
		}
		if q > p && isSpace(c) {
			lx.pos = q
			return v, nil
		}
		break
	}
	if !lx.skipSpace() {
		return 0, lx.readErr()
	}
	return lx.number()
}

// IntInLine returns the next integer on the current line.  done=true
// (with a consumed newline) means the line ended before another token;
// a '#' where a token would start ends the line too, the rest of it
// being a comment.  The stream error, if any, surfaces on the *next*
// call.
func (lx *Lexer) IntInLine() (v int, done bool, err error) {
	c, ok := lx.skipSpaceInLine()
	if ok && c == '#' {
		lx.skipRestOfLine()
		return 0, true, nil
	}
	if !ok {
		if lx.pos < lx.end { // at a newline
			lx.pos++
			lx.line++
			return 0, true, nil
		}
		if lx.err == io.EOF {
			return 0, true, nil
		}
		return 0, true, lx.err
	}
	v, err = lx.number()
	return v, false, err
}
