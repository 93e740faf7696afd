package lagrangian

import (
	"math"

	"ucp/internal/matrix"
)

// Penalties is the outcome of the lagrangian and dual penalty tests of
// §3.6 against a known feasible cost zBest.
type Penalties struct {
	FixIn  []int // columns proven to be in every solution cheaper than zBest
	FixOut []int // columns proven to be in no solution cheaper than zBest
	// NoBetter is set when some column was proven both in and out:
	// then no solution cheaper than zBest exists at all, i.e. the best
	// known solution is optimal.
	NoBetter bool
}

// LagrangianPenalties applies conditions (3) and (4): branching on p_j
// and pruning one side with the lagrangian bound z*_LP ± c̃_j.  With
// integer costs the bound may be rounded up before comparing.
//
//	c̃_j ≤ 0 and ⌈z_LP − c̃_j⌉ ≥ zBest  ⇒  p_j = 1    (3)
//	c̃_j > 0 and ⌈z_LP + c̃_j⌉ ≥ zBest  ⇒  p_j = 0    (4)
func LagrangianPenalties(ctilde []float64, zLP float64, zBest int) *Penalties {
	pen := &Penalties{}
	for j, ct := range ctilde {
		if ct <= 0 {
			if math.Ceil(zLP-ct-1e-9) >= float64(zBest) {
				pen.FixIn = append(pen.FixIn, j)
			}
		} else if math.Ceil(zLP+ct-1e-9) >= float64(zBest) {
			pen.FixOut = append(pen.FixOut, j)
		}
	}
	return pen
}

// DualPenalties applies conditions (5) and (6): the dual problem is
// re-solved by dual ascent with column j's cost raised to infinity
// (pruning p_j = 0) or lowered to zero (pruning p_j = 1).  This
// generalises the limit bound theorem; it is slower than the
// lagrangian penalties, so the caller is expected to gate it on the
// column count (Params.DualPen).
func DualPenalties(p *matrix.Problem, warm []float64, zBest int) *Penalties {
	pen := &Penalties{}
	active := p.ActiveCols()
	const big = 1 << 30
	for _, j := range active {
		orig := p.Cost[j]

		// (5): forbid column j; if even the dual bound of that
		// subproblem reaches zBest, j must be taken.
		p.Cost[j] = big
		_, w0 := DualAscent(p, warm, nil)
		p.Cost[j] = orig
		if math.Ceil(w0-1e-9) >= float64(zBest) {
			pen.FixIn = append(pen.FixIn, j)
		}

		// (6): force column j (cost 0 plus the constant c_j); if the
		// bound reaches zBest, j can be excluded.
		p.Cost[j] = 0
		_, w1 := DualAscent(p, warm, nil)
		p.Cost[j] = orig
		if math.Ceil(w1+float64(orig)-1e-9) >= float64(zBest) {
			pen.FixOut = append(pen.FixOut, j)
		}
	}
	return pen
}

// Merge combines two penalty sets, detecting contradictions (a column
// fixed both in and out proves that no solution beats zBest).
func (a *Penalties) Merge(b *Penalties) *Penalties {
	out := &Penalties{NoBetter: a.NoBetter || b.NoBetter}
	in := make(map[int]bool)
	for _, j := range a.FixIn {
		in[j] = true
	}
	for _, j := range b.FixIn {
		in[j] = true
	}
	outSet := make(map[int]bool)
	for _, j := range a.FixOut {
		outSet[j] = true
	}
	for _, j := range b.FixOut {
		outSet[j] = true
	}
	for j := range in {
		if outSet[j] {
			out.NoBetter = true
		}
		out.FixIn = append(out.FixIn, j)
	}
	for j := range outSet {
		out.FixOut = append(out.FixOut, j)
	}
	sortInts(out.FixIn)
	sortInts(out.FixOut)
	return out
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// LimitBound applies the classical limit bound theorem (Theorem 2)
// directly: given an independent row set with bound lbMIS, any column
// covering none of those rows whose cost pushes the bound to zBest can
// be removed.  Provided for the bound-comparison experiments; the dual
// penalties subsume it.
func LimitBound(p *matrix.Problem, misRows []int, lbMIS int, zBest int) []int {
	inMIS := make(map[int]bool)
	for _, i := range misRows {
		inMIS[i] = true
	}
	coversMIS := make([]bool, p.NCol)
	for _, i := range misRows {
		for _, j := range p.Rows[i] {
			coversMIS[j] = true
		}
	}
	var removable []int
	for _, j := range p.ActiveCols() {
		if !coversMIS[j] && lbMIS+p.Cost[j] >= zBest {
			removable = append(removable, j)
		}
	}
	return removable
}
