// Package bitmat provides the word-backed bitsets and the fused float
// gathers that the subgradient engine of internal/lagrangian runs its
// incremental updates on: dirty-row and dirty-column marks, the sign
// set of the reduced costs, and the ordered multiplier folds down a
// column or across a row.
//
// The package is dependency-free.
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
