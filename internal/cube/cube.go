// Package cube implements the positional-cube calculus for
// multiple-output two-level logic, in the style of Espresso.
//
// A cube over n binary inputs and m outputs is stored as a bit vector.
// Each input variable occupies two bits: bit 0 set means the variable
// may take value 0, bit 1 set means it may take value 1.  Thus 01
// encodes the negative literal, 10 the positive literal, 11 a don't
// care (the variable is absent from the product term) and 00 the empty
// part.  The m outputs form one multi-valued part with one bit per
// output: a set bit means the product term belongs to that output's
// cover.  A cube with no outputs (m = 0) is purely an input cube.
package cube

import (
	"fmt"
	"math/bits"
	"strings"
)

// Literal is the value of one binary input position of a cube.
type Literal uint8

// The four possible input parts.
const (
	Empty Literal = 0b00 // no value: the cube is empty
	Zero  Literal = 0b01 // negative literal (variable = 0)
	One   Literal = 0b10 // positive literal (variable = 1)
	DC    Literal = 0b11 // don't care (variable absent)
)

// String renders the literal in PLA notation.
func (l Literal) String() string {
	switch l {
	case Zero:
		return "0"
	case One:
		return "1"
	case DC:
		return "-"
	default:
		return "?"
	}
}

// Cube is a product term in positional-cube notation.  Cubes are plain
// word slices; every operation interpreting them is a method of the
// Space that created them.
type Cube []uint64

// Space describes a boolean space with a fixed number of binary inputs
// and outputs, and provides all cube operations for cubes of that
// shape.  Spaces are immutable and safe for concurrent use.
type Space struct {
	inputs  int
	outputs int
	words   int      // words per cube
	inMask  []uint64 // mask of the bits used by input parts, per word
	outMask []uint64 // mask of the bits used by output parts, per word
	lowMask []uint64 // mask of bit 0 of every input part, per word
}

// NewSpace returns a space with the given number of binary input
// variables and output functions.  Both may be zero, but not
// simultaneously negative.
func NewSpace(inputs, outputs int) *Space {
	if inputs < 0 || outputs < 0 {
		panic(fmt.Sprintf("cube: invalid space %d/%d", inputs, outputs))
	}
	totalBits := 2*inputs + outputs
	words := (totalBits + 63) / 64
	if words == 0 {
		words = 1
	}
	s := &Space{
		inputs:  inputs,
		outputs: outputs,
		words:   words,
		inMask:  make([]uint64, words),
		outMask: make([]uint64, words),
		lowMask: make([]uint64, words),
	}
	for i := 0; i < 2*inputs; i++ {
		s.inMask[i/64] |= 1 << (i % 64)
		if i%2 == 0 {
			s.lowMask[i/64] |= 1 << (i % 64)
		}
	}
	for o := 0; o < outputs; o++ {
		b := 2*inputs + o
		s.outMask[b/64] |= 1 << (b % 64)
	}
	return s
}

// Inputs returns the number of binary input variables.
func (s *Space) Inputs() int { return s.inputs }

// Outputs returns the number of output functions.
func (s *Space) Outputs() int { return s.outputs }

// NewCube returns an empty cube (all parts 00 / outputs 0).
func (s *Space) NewCube() Cube { return make(Cube, s.words) }

// FullCube returns the universal cube: every input part is a don't
// care and every output bit is set.
func (s *Space) FullCube() Cube {
	c := s.NewCube()
	for w := range c {
		c[w] = s.inMask[w] | s.outMask[w]
	}
	return c
}

// Copy returns an independent copy of c.
func (s *Space) Copy(c Cube) Cube {
	d := make(Cube, s.words)
	copy(d, c)
	return d
}

// Input returns the literal of input variable i in c.
func (s *Space) Input(c Cube, i int) Literal {
	b := 2 * i
	return Literal((c[b/64] >> (b % 64)) & 3)
}

// SetInput sets the literal of input variable i in c.
func (s *Space) SetInput(c Cube, i int, l Literal) {
	b := 2 * i
	c[b/64] = c[b/64]&^(3<<(b%64)) | uint64(l)<<(b%64)
}

// Output reports whether output o is present in c.
func (s *Space) Output(c Cube, o int) bool {
	b := 2*s.inputs + o
	return c[b/64]>>(b%64)&1 != 0
}

// SetOutput adds or removes output o from c.
func (s *Space) SetOutput(c Cube, o int, on bool) {
	b := 2*s.inputs + o
	if on {
		c[b/64] |= 1 << (b % 64)
	} else {
		c[b/64] &^= 1 << (b % 64)
	}
}

// Equal reports whether a and b are the same cube.
func (s *Space) Equal(a, b Cube) bool {
	for w := range a {
		if a[w] != b[w] {
			return false
		}
	}
	return true
}

// IsEmpty reports whether the cube denotes the empty set: some input
// part is 00, or the space has outputs and the output part is all
// zero.
func (s *Space) IsEmpty(c Cube) bool {
	for w, x := range c {
		if s.emptyParts(x, w) != 0 {
			return true
		}
	}
	return s.outputs > 0 && !s.outputsMeet(c, c)
}

// emptyParts returns the input parts of word w of a cube x that are 00,
// as a mask holding bit 0 of each such part.  Parts never straddle
// words (each word holds 32 whole parts), so the test is word-parallel.
func (s *Space) emptyParts(x uint64, w int) uint64 {
	return ^(x | x>>1) & s.lowMask[w]
}

// outputsMeet reports whether the output parts of a and b share a bit.
func (s *Space) outputsMeet(a, b Cube) bool {
	for w := range a {
		if a[w]&b[w]&s.outMask[w] != 0 {
			return true
		}
	}
	return false
}

// Contains reports whether a contains b as a set (b ⊆ a), assuming
// both are non-empty.
func (s *Space) Contains(a, b Cube) bool {
	for w := range a {
		if b[w]&^a[w] != 0 {
			return false
		}
	}
	return true
}

// And intersects a and b into a fresh cube.  The result may be empty;
// check with IsEmpty.
func (s *Space) And(a, b Cube) Cube {
	c := make(Cube, s.words)
	for w := range c {
		c[w] = a[w] & b[w]
	}
	return c
}

// Intersects reports whether a ∩ b is non-empty without allocating.
func (s *Space) Intersects(a, b Cube) bool {
	for w := range a {
		if s.emptyParts(a[w]&b[w], w) != 0 {
			return false
		}
	}
	return s.outputs == 0 || s.outputsMeet(a, b)
}

// Distance returns the number of empty input parts of a ∩ b, plus one
// if the space has outputs and the intersection's output part is
// empty.  Distance zero means the cubes intersect; distance one makes
// the consensus non-trivial.
func (s *Space) Distance(a, b Cube) int {
	d := 0
	for w := range a {
		d += bits.OnesCount64(s.emptyParts(a[w]&b[w], w))
	}
	if s.outputs > 0 && !s.outputsMeet(a, b) {
		d++
	}
	return d
}

// ConsensusInto writes the consensus of a and b into dst, a cube of
// this space, and reports whether the pair has one.  A pair yields at
// most one candidate, in one of two forms:
//
//   - exactly one input part of a ∩ b is empty, and the output parts
//     meet (or the space has no outputs): that part is raised to don't
//     care in a ∩ b — the distance-one consensus on an input variable;
//   - no input part of a ∩ b is empty and the space has outputs: the
//     intersection of the input parts with the union of the output
//     parts — the consensus on the output part.  It applies even when
//     the outputs overlap (distance zero): with three or more outputs
//     the union of two overlapping output sets can be a strictly
//     larger implicant that no distance-one consensus produces, and
//     the closure needs these cubes to reach every multiple-output
//     prime.
//
// Otherwise there is no candidate and dst is left unspecified.  The
// output-part form is empty when neither cube drives an output; check
// IsEmpty where that matters.
func (s *Space) ConsensusInto(dst, a, b Cube) bool {
	conflict, raise := -1, uint64(0)
	for w := range a {
		if e := s.emptyParts(a[w]&b[w], w); e != 0 {
			if conflict >= 0 || e&(e-1) != 0 {
				return false // two or more conflicting input parts
			}
			conflict, raise = w, e|e<<1
		}
	}
	if conflict >= 0 {
		if s.outputs > 0 && !s.outputsMeet(a, b) {
			return false
		}
		for w := range dst {
			dst[w] = a[w] & b[w]
		}
		dst[conflict] |= raise
		return true
	}
	if s.outputs == 0 {
		return false
	}
	for w := range dst {
		dst[w] = a[w]&b[w]&s.inMask[w] | (a[w]|b[w])&s.outMask[w]
	}
	return true
}

// Cofactor returns the Shannon cofactor of c with respect to cube p
// (the "cube cofactor" of Espresso): nil when c ∩ p is empty,
// otherwise each part of the result is c's part OR the complement of
// p's part.  Cofactoring against a positive literal of variable x
// yields c with the x part forced to don't care when c depends on x
// positively.
func (s *Space) Cofactor(c, p Cube) Cube {
	if !s.Intersects(c, p) {
		return nil
	}
	r := make(Cube, s.words)
	for w := range r {
		full := s.inMask[w] | s.outMask[w]
		r[w] = (c[w] | (full &^ p[w])) & full
	}
	return r
}

// SuperCube returns the smallest cube containing every cube of the
// slice (their bitwise union), or nil if the slice is empty.
func (s *Space) SuperCube(cs []Cube) Cube {
	if len(cs) == 0 {
		return nil
	}
	r := s.Copy(cs[0])
	for _, c := range cs[1:] {
		for w := range r {
			r[w] |= c[w]
		}
	}
	return r
}

// InputWeight returns the number of don't-care input parts of c; a
// larger weight means a larger cube.
func (s *Space) InputWeight(c Cube) int {
	n := 0
	for i := 0; i < s.inputs; i++ {
		if s.Input(c, i) == DC {
			n++
		}
	}
	return n
}

// OutputCount returns the number of outputs present in c.
func (s *Space) OutputCount(c Cube) int {
	n := 0
	for w := range c {
		n += bits.OnesCount64(c[w] & s.outMask[w])
	}
	return n
}

// ParseCube parses PLA-style text for a cube: an input field of
// {0,1,-} characters followed (if the space has outputs) by an output
// field of {0,1} characters (4 and ~ are accepted as output don't
// cares and read as 0).  Fields may be separated by spaces or tabs.
func (s *Space) ParseCube(in, out string) (Cube, error) {
	if len(in) != s.inputs {
		return nil, fmt.Errorf("cube: input field %q has %d characters, want %d", in, len(in), s.inputs)
	}
	if len(out) != s.outputs {
		return nil, fmt.Errorf("cube: output field %q has %d characters, want %d", out, len(out), s.outputs)
	}
	c := s.NewCube()
	for i, ch := range in {
		switch ch {
		case '0':
			s.SetInput(c, i, Zero)
		case '1':
			s.SetInput(c, i, One)
		case '-', '2', 'x', 'X':
			s.SetInput(c, i, DC)
		default:
			return nil, fmt.Errorf("cube: invalid input character %q", ch)
		}
	}
	for o, ch := range out {
		switch ch {
		case '1':
			s.SetOutput(c, o, true)
		case '0', '~', '4', '2', '-':
			s.SetOutput(c, o, false)
		default:
			return nil, fmt.Errorf("cube: invalid output character %q", ch)
		}
	}
	return c, nil
}

// String renders c in PLA notation ("10-1 01" style).
func (s *Space) String(c Cube) string {
	var b strings.Builder
	for i := 0; i < s.inputs; i++ {
		b.WriteString(s.Input(c, i).String())
	}
	if s.outputs > 0 {
		b.WriteByte(' ')
		for o := 0; o < s.outputs; o++ {
			if s.Output(c, o) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
	}
	return b.String()
}

// Minterms enumerates the input minterms of cube c restricted to
// output o (o is ignored when the space has no outputs, and no
// minterms are produced if the cube does not drive output o).  Each
// minterm is reported as an integer whose bit i is input variable i.
// The callback may return false to stop the enumeration early.  Spaces
// beyond 63 inputs do not fit the minterm mask and are rejected with
// an error.
func (s *Space) Minterms(c Cube, o int, visit func(m uint64) bool) error {
	if s.inputs > 63 {
		return fmt.Errorf("cube: minterm enumeration limited to 63 inputs, got %d", s.inputs)
	}
	if s.outputs > 0 && !s.Output(c, o) {
		return nil
	}
	var rec func(i int, m uint64) bool
	rec = func(i int, m uint64) bool {
		if i == s.inputs {
			return visit(m)
		}
		switch s.Input(c, i) {
		case Zero:
			return rec(i+1, m)
		case One:
			return rec(i+1, m|1<<i)
		case DC:
			return rec(i+1, m) && rec(i+1, m|1<<i)
		default:
			return true // empty part: no minterms
		}
	}
	rec(0, 0)
	return nil
}

// PackInput converts the input part of c to (value, mask) form: bit i
// of mask is set when input variable i is a don't care, and bit i of
// value is set when the variable is fixed to one.  An input minterm m
// then lies in c exactly when (m^value)&^mask == 0.  Cubes with an
// Empty input part have no minterms; ok reports false for them.
// Spaces beyond 63 inputs do not fit the packing and also report
// ok=false.  Each word's 32 parts are split into their two bits with
// the low-bit mask and gathered word-parallel (evenBits).
func (s *Space) PackInput(c Cube) (value, mask uint64, ok bool) {
	if s.inputs > 63 {
		return 0, 0, false
	}
	for w := 0; 32*w < s.inputs; w++ {
		x, low := c[w], s.lowMask[w]
		if s.emptyParts(x, w) != 0 {
			return 0, 0, false // empty part: no minterms
		}
		zero, one := x&low, x>>1&low
		value |= evenBits(one&^zero) << (32 * w)
		mask |= evenBits(one&zero) << (32 * w)
	}
	return value, mask, true
}

// evenBits gathers bits 0, 2, 4, … 62 of x into bits 0–31.
func evenBits(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	return (x | x>>16) & 0x00000000FFFFFFFF
}

// PackOutputs returns the output part of c as a bitmask (bit o set
// when the cube drives output o).  Spaces beyond 64 outputs do not fit
// and report ok=false; a space with no outputs packs to 0, true.  The
// outputs are the contiguous bits from bit 2·inputs, so the mask is at
// most two shifted words.
func (s *Space) PackOutputs(c Cube) (outs uint64, ok bool) {
	if s.outputs > 64 {
		return 0, false
	}
	if s.outputs == 0 {
		return 0, true
	}
	b := 2 * s.inputs
	w, off := b/64, uint(b%64)
	outs = c[w] >> off
	if off+uint(s.outputs) > 64 {
		outs |= c[w+1] << (64 - off)
	}
	return outs & (1<<uint(s.outputs) - 1), true
}

// CubeOfMinterm builds the single-minterm cube for input assignment m
// driving output o (ignored when the space has no outputs).
func (s *Space) CubeOfMinterm(m uint64, o int) Cube {
	c := s.NewCube()
	for i := 0; i < s.inputs; i++ {
		if m>>i&1 != 0 {
			s.SetInput(c, i, One)
		} else {
			s.SetInput(c, i, Zero)
		}
	}
	if s.outputs > 0 {
		s.SetOutput(c, o, true)
	}
	return c
}
