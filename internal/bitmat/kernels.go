package bitmat

// Fused float gather kernels for the lagrangian engine.  The sparse
// matrix keeps a column-major (CSC) mirror — one contiguous int32
// index array — and the subgradient loop folds a multiplier vector
// down a column (or across a row) into a single register accumulator.
// Each kernel subtracts strictly in index order, so a gather down
// column j is bit-identical to the row-major scatter it replaces: the
// same values leave the same accumulator in the same sequence.

// GatherSub32 returns base − Σ v[idx[k]], subtracting in index order.
func GatherSub32(base float64, idx []int32, v []float64) float64 {
	acc := base
	for _, i := range idx {
		acc -= v[i]
	}
	return acc
}

// GatherSub is GatherSub32 over an []int index list (a sparse row).
func GatherSub(base float64, idx []int, v []float64) float64 {
	acc := base
	for _, i := range idx {
		acc -= v[i]
	}
	return acc
}

// GrowVec returns an all-zero bitset able to hold n bits, reusing v's
// backing array when it is large enough.
func GrowVec(v Vec, n int) Vec {
	w := Words(n)
	if cap(v) < w {
		return make(Vec, w)
	}
	v = v[:w]
	v.Zero()
	return v
}
