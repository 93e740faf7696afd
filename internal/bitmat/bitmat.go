// Package bitmat provides a dense bit-matrix representation of a
// covering problem's row/column incidence, whose word-parallel subset
// tests carry the dense reduction engine's row and column dominance
// passes, plus the bitsets and fused float gathers the subgradient
// engine's incremental updates run on.
//
// The layout is the DenseQMC insight applied to the paper's explicit
// phase: a row is one strip of ⌈ncols/64⌉ uint64 words, a column one
// strip of ⌈nrows/64⌉ words, and both orientations are materialised so
// dominance checks on either axis are straight word loops.  On the
// cyclic cores this library actually solves (hundreds of rows and
// columns), a subset test is a handful of AND-NOT words instead of a
// merge over sorted []int slices.
//
// The package is dependency-free; internal/matrix decides when the
// dense representation pays off (see matrix.DenseEligible) and falls
// back to the sparse path above a size/density threshold.
package bitmat

import "math/bits"

const wordShift = 6

// Words returns the number of 64-bit words needed for n bits.
func Words(n int) int { return (n + 63) >> wordShift }

// Vec is a fixed-capacity bitset backed by 64-bit words.
type Vec []uint64

// Set sets bit i.
func (v Vec) Set(i int) { v[i>>wordShift] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (v Vec) Clear(i int) { v[i>>wordShift] &^= 1 << (uint(i) & 63) }

// Has reports whether bit i is set.
func (v Vec) Has(i int) bool { return v[i>>wordShift]&(1<<(uint(i)&63)) != 0 }

// Zero clears every bit.
func (v Vec) Zero() {
	for k := range v {
		v[k] = 0
	}
}

// SubsetOf reports v ⊆ w.
func (v Vec) SubsetOf(w Vec) bool {
	for k, x := range v {
		if x&^w[k] != 0 {
			return false
		}
	}
	return true
}

// Range calls fn for every set bit in ascending order until fn returns
// false.
func (v Vec) Range(fn func(i int) bool) {
	for k, w := range v {
		base := k << wordShift
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(base + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Bits appends the indices of the set bits to out and returns it.
func (v Vec) Bits(out []int) []int {
	v.Range(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Fold returns the OR of all words: bit g of the result is set when
// some bit i with i mod 64 == g is set.  The fold is the 64-bit
// occupancy signature the dominance engines use to reject subset
// candidates in one word: v ⊆ w implies Fold(v) &^ Fold(w) == 0.
func (v Vec) Fold() uint64 {
	var f uint64
	for _, w := range v {
		f |= w
	}
	return f
}

// First returns the index of the lowest set bit, or -1 when empty.
func (v Vec) First() int {
	for k, w := range v {
		if w != 0 {
			return k<<wordShift + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Matrix is a dense 0/1 incidence matrix held in both orientations:
// row-major strips over the column universe and column-major strips
// over the row universe.  The two views are kept in sync by the
// mutating kernels (KillRow, KillCol).
type Matrix struct {
	NRows, NCols int
	rw, cw       int // words per row strip / per column strip
	row, col     []uint64
}

// New returns an all-zero nrows × ncols matrix.
func New(nrows, ncols int) *Matrix {
	m := &Matrix{NRows: nrows, NCols: ncols, rw: Words(ncols), cw: Words(nrows)}
	m.row = make([]uint64, nrows*m.rw)
	m.col = make([]uint64, ncols*m.cw)
	return m
}

// SetBit sets entry (i, j) in both orientations.
func (m *Matrix) SetBit(i, j int) {
	m.Row(i).Set(j)
	m.Col(j).Set(i)
}

// Row returns the row-i bitset over columns (a live view, not a copy).
func (m *Matrix) Row(i int) Vec { return Vec(m.row[i*m.rw : (i+1)*m.rw]) }

// Col returns the column-j bitset over rows (a live view, not a copy).
func (m *Matrix) Col(j int) Vec { return Vec(m.col[j*m.cw : (j+1)*m.cw]) }

// KillRow zeroes row i in both orientations.
func (m *Matrix) KillRow(i int) {
	m.Row(i).Range(func(j int) bool {
		m.Col(j).Clear(i)
		return true
	})
	m.Row(i).Zero()
}

// KillCol zeroes column j in both orientations.
func (m *Matrix) KillCol(j int) {
	m.Col(j).Range(func(i int) bool {
		m.Row(i).Clear(j)
		return true
	})
	m.Col(j).Zero()
}
