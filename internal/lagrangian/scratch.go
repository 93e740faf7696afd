package lagrangian

import (
	"math"

	"ucp/internal/bitmat"
	"ucp/internal/matrix"
)

// Scratch owns every buffer the subgradient engine, the greedy primal
// heuristic and the dual ascent touch, so a caller that runs many
// phases (the fixing loop, the restart portfolio) allocates once and
// reuses.  Buffers grow to high-water marks and are never shrunk; the
// zero value is ready to use.
//
// Ownership rules (see DESIGN.md §9):
//   - a Scratch is single-owner state: one goroutine at a time, one
//     Subgradient call at a time;
//   - nothing in a Scratch survives as part of a Result — every Result
//     field is freshly copied — so reusing a Scratch (or pooling it
//     across goroutines) cannot change any output;
//   - every buffer is fully re-initialised for the problem at hand on
//     each call, so stale contents from a previous (differently sized)
//     problem are harmless.
type Scratch struct {
	// Subgradient engine state.  The float caches are the incremental
	// core: ctilde mirrors c − A'λ, e mirrors the per-row dual partials
	// 1 − Σμ, m and g mirror the inner dual solution and its
	// subgradient c − A'm.  cnt[i] counts the c̃ ≤ 0 columns of row i,
	// so the primal subgradient s_i = 1 − cnt_i needs no matrix pass.
	lambda, mu, ctilde, e, m, g []float64
	cbar, s, trueCosts          []float64
	cnt                         []int32
	// Dirty sets for the incremental updates: columns whose c̃ must be
	// regathered after a λ step, rows whose e must be regathered after
	// a μ step, columns whose g must be regathered after an m flip.
	// chRows/chCols list the multipliers a step actually changed, so
	// the engine can size the touched volume before deciding between
	// the selective refresh and a full (bit-identical) rebuild.
	dirtyCols, dirtyRows, gDirty bitmat.Vec
	chRows, chCols               []int32
	// negCt mirrors the sign of every cached c̃_j (bit j set ⇔ c̃_j ≤ 0)
	// so both λ-refresh paths maintain cnt by sign flips alone.
	negCt bitmat.Vec

	gr greedyRun
	da daScratch
}

// greedyRun is the per-build state of the greedy kernel.
type greedyRun struct {
	covered   []bool
	sol       []int
	n         []int32
	w         []float64
	w0        []float64
	rowWeight []float64
	nCovered  int
	cand      []int32
	pos       []int32
	// stamp/stampEpoch tell a column's first touch in the current
	// build from a later one, so the count-derived start (greedySparse
	// with rowCnt) initialises only the columns it actually meets.
	stamp      []uint32
	stampEpoch uint32
	bestBuf    []int
	ws         matrix.Workspace
}

// daScratch is the dual-ascent working set.
type daScratch struct {
	cbar, m, seed, colSum []float64
	order                 []int32
	keys                  []int64
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// attach sizes the phase-wide state for p: the row cost minima c̄ and
// the greedy's scarcity weights.
func (sc *Scratch) attach(p *matrix.Problem) {
	sc.cbar = growF64(sc.cbar, len(p.Rows))
	for i, r := range p.Rows {
		cb := math.Inf(1)
		for _, j := range r {
			if float64(p.Cost[j]) < cb {
				cb = float64(p.Cost[j])
			}
		}
		sc.cbar[i] = cb
	}
	sc.prepGreedyWeights(p)
}
