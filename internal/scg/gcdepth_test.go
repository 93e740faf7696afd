package scg

import (
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/budget"
	"ucp/internal/matrix"
)

// cappedDepthInstance is a cyclic covering matrix padded with 100
// superset rows, so the implicit phase has real row dominance to do:
// its finished core (300 rows) is strictly smaller than the input
// (400 rows).  The ZDD fixpoint strands ~15k nodes of dead
// intermediates; the live family stays well under 10k.
func cappedDepthInstance(t *testing.T) *matrix.Problem {
	t.Helper()
	base := benchmarks.CyclicCovering(9, 300, 120, 3)
	rows := append([][]int(nil), base.Rows...)
	for i := 0; i < 100; i++ {
		r := append([]int(nil), base.Rows[i*3%len(base.Rows)]...)
		r = append(r, (r[len(r)-1]+7)%base.NCol)
		rows = append(rows, r)
	}
	p, err := matrix.New(rows, base.NCol, base.Cost)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// The node cap under test: far below the ~15k nodes the phase ever
// allocates, comfortably above its live working set.
const cappedDepthNodeCap = 10_000

// TestNodeCapGCReachesSmallerCore is the budget-depth contract of the
// collector: under a node cap that the allocation history blows
// through but the live working set fits, the GC'd implicit phase now
// finishes — producing a core strictly smaller than the input — where
// the pre-GC engine (collections disabled) tripped the cap on dead
// nodes and aborted to the explicit fallback with no core at all.
func TestNodeCapGCReachesSmallerCore(t *testing.T) {
	p := cappedDepthInstance(t)

	ir := ImplicitReduceBudgetWorkers(p, 1, 1, cappedDepthNodeCap, nil, 1)
	if ir.Aborted {
		t.Fatalf("GC'd phase aborted under cap %d", cappedDepthNodeCap)
	}
	if ir.Collections == 0 {
		t.Fatal("phase finished without collecting: cap not exercised, tighten the test")
	}
	if len(ir.Core.Rows) >= len(p.Rows) {
		t.Fatalf("core not smaller than input: %d vs %d rows", len(ir.Core.Rows), len(p.Rows))
	}

	restore := SetZDDGC(false)
	pre := ImplicitReduceBudgetWorkers(p, 1, 1, cappedDepthNodeCap, nil, 1)
	restore()
	if !pre.Aborted {
		t.Fatalf("pre-GC engine finished under cap %d: cap too loose to show the depth gain", cappedDepthNodeCap)
	}

	// Sanity: the GC'd core agrees with the uncapped ZDD fixpoint.
	restoreDense := SetDenseImplicit(false)
	full := ImplicitReduceBudgetWorkers(p, 1, 1, 0, nil, 1)
	restoreDense()
	if full.Aborted || len(full.Core.Rows) != len(ir.Core.Rows) {
		t.Fatalf("capped core has %d rows, uncapped fixpoint %d", len(ir.Core.Rows), len(full.Core.Rows))
	}
}

// TestNodeCapGCSolveEndToEnd: the same depth gain observed through
// Solve — with collections the capped solve keeps the implicit phase
// (no degradation), without them it falls back; both still return the
// same final cover.
func TestNodeCapGCSolveEndToEnd(t *testing.T) {
	p := cappedDepthInstance(t)
	opt := Options{Seed: 3, Budget: budget.Budget{NodeCap: cappedDepthNodeCap}}

	withGC := Solve(p, opt)
	if withGC.Stats.ImplicitAborted {
		t.Fatal("implicit phase degraded despite collections")
	}
	if withGC.Stats.ZDDCollections == 0 {
		t.Fatal("solve finished without collecting: cap not exercised")
	}

	restore := SetZDDGC(false)
	preGC := Solve(p, opt)
	restore()
	if !preGC.Stats.ImplicitAborted {
		t.Fatal("pre-GC solve kept the implicit phase: cap too loose")
	}
	if withGC.Cost != preGC.Cost {
		t.Fatalf("cover cost changed with GC: %d vs %d", withGC.Cost, preGC.Cost)
	}
	if !p.IsCover(withGC.Solution) {
		t.Fatal("GC'd solve returned a non-cover")
	}
}
