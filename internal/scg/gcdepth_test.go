package scg

import (
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/matrix"
)

// cappedDepthInstance is a cyclic covering matrix padded with 100
// superset rows, so the implicit phase has real row dominance to do:
// its finished core (300 rows) is strictly smaller than the input
// (400 rows).  The uncapped ZDD fixpoint peaks at ~5k stored nodes,
// while the live family stays under 500.
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

// The node cap under test, on the exam covering (plaCovering): below
// the ~6.3k nodes its uncapped phase stores, above its live working
// set.  The garbage it has to reclaim is the dead intermediates of the
// reduction passes — the bulk load strands none.  The contract holds
// for caps of about 2.0k–6.3k.
const cappedDepthNodeCap = 4_000

// TestNodeCapGCReachesSmallerCore is the budget-depth contract of the
// collector: under a node cap that the allocation history blows
// through but the live working set fits, the GC'd implicit phase now
// finishes — producing a core strictly smaller than the input — where
// the pre-GC engine (collections disabled) tripped the cap on dead
// nodes and aborted to the explicit fallback with no core at all.
func TestNodeCapGCReachesSmallerCore(t *testing.T) {
	p := plaCovering(t, "exam")

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
	full := ImplicitReduceBudgetWorkers(p, 1, 1, 0, nil, 1)
	if full.Aborted || len(full.Core.Rows) != len(ir.Core.Rows) {
		t.Fatalf("capped core has %d rows, uncapped fixpoint %d", len(ir.Core.Rows), len(full.Core.Rows))
	}
}
