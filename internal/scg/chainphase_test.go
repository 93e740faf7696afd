package scg

import (
	"reflect"
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/matrix"
	"ucp/internal/primes"
)

// plaCovering builds the UCP covering matrix of a paper-replica PLA
// instance through the real front end (prime generation + covering
// construction).  Two-level cover sets are the workload whose literal
// chains the chain-reduced ZDD engine compresses; the synthetic
// random-degree matrices of the other tests barely chain at all.
func plaCovering(t testing.TB, name string) *matrix.Problem {
	t.Helper()
	for _, in := range benchmarks.DifficultCyclic() {
		if in.Name != name {
			continue
		}
		f := in.PLA()
		prs, _ := primes.GenerateAutoBudget(f.F, f.D, nil)
		p, _, err := primes.BuildCovering(f.F, f.D, prs, primes.UnitCost)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	t.Fatalf("unknown paper instance %q", name)
	return nil
}

// implicitCores compares two implicit-phase results semantically: the
// same essential columns and the same decoded core rows.
func sameCore(a, b *ImplicitResult) bool {
	return reflect.DeepEqual(a.Essential, b.Essential) &&
		reflect.DeepEqual(a.Core.Rows, b.Core.Rows) &&
		a.Infeasible == b.Infeasible
}

// TestChainReducesLiveNodes is the nodes-per-instance acceptance bar
// of the chain representation: on the paper's covering families, at
// an equal NodeCap, the chain engine finishes the implicit phase with
// at least 2x fewer live nodes than the plain engine — the same
// budget holds a strictly larger implicit frontier.  The reduced
// cores must of course be identical.
func TestChainReducesLiveNodes(t *testing.T) {
	const cap = 500_000
	p := plaCovering(t, "max1024")

	chain := ImplicitReduceBudgetWorkers(p, 1, 1, cap, nil, 1)
	restore := SetZDDChain(false)
	plain := ImplicitReduceBudgetWorkers(p, 1, 1, cap, nil, 1)
	restore()

	if chain.Aborted || plain.Aborted {
		t.Fatalf("phase aborted under a loose cap: chain=%v plain=%v", chain.Aborted, plain.Aborted)
	}
	if !sameCore(chain, plain) {
		t.Fatal("chain and plain engines reduced to different cores")
	}
	if chain.LiveNodes <= 2 || plain.LiveNodes < 2*chain.LiveNodes {
		t.Fatalf("live-node reduction below 2x: chain %d vs plain %d", chain.LiveNodes, plain.LiveNodes)
	}
	// The engine's own profile tells the same story: the surviving
	// family would cost >= 2x the nodes without chain absorption.
	if chain.PlainNodes < 2*chain.LiveNodes {
		t.Fatalf("plain-equivalent profile below 2x: %d chain nodes, %d plain-equivalent",
			chain.LiveNodes, chain.PlainNodes)
	}

	// The synthetic random-degree gcdepth matrix chains far less (its
	// rows are random triples, not cover tails); the representation
	// must still strictly help, never hurt.
	g := cappedDepthInstance(t)
	gc := ImplicitReduceBudgetWorkers(g, 1, 1, cap, nil, 1)
	restore = SetZDDChain(false)
	gp := ImplicitReduceBudgetWorkers(g, 1, 1, cap, nil, 1)
	restore()
	if !sameCore(gc, gp) {
		t.Fatal("engines disagree on the gcdepth core")
	}
	if gc.LiveNodes >= gp.LiveNodes {
		t.Fatalf("chain engine not smaller on gcdepth: %d vs %d live nodes", gc.LiveNodes, gp.LiveNodes)
	}
}

// TestChainRaisesImplicitCeiling is the completion-rate acceptance
// bar: a NodeCap that forces the plain engine to degrade to the
// explicit fallback (its live working set crowds the cap even after
// collections) now completes implicitly on the chain engine, with the
// same core an uncapped run produces.  The cap sits between the two
// engines' minimal completing caps on the exam covering (measured
// 2304 chain vs 2936 plain; both deterministic).
func TestChainRaisesImplicitCeiling(t *testing.T) {
	const cap = 2620
	p := plaCovering(t, "exam")

	chain := ImplicitReduceBudgetWorkers(p, 1, 1, cap, nil, 1)
	if chain.Aborted {
		t.Fatalf("chain engine aborted under cap %d", cap)
	}
	if chain.Collections == 0 {
		t.Fatal("cap never pressured the chain engine: tighten the test")
	}
	// Loose-cap reference: the same ZDD engine, far from its cap.
	ref := ImplicitReduceBudgetWorkers(p, 1, 1, 500_000, nil, 1)
	if !sameCore(chain, ref) {
		t.Fatal("capped chain run reduced to a different core than the uncapped run")
	}

	restore := SetZDDChain(false)
	plain := ImplicitReduceBudgetWorkers(p, 1, 1, cap, nil, 1)
	restore()
	if !plain.Aborted {
		t.Fatalf("plain engine completed under cap %d: cap too loose to show the ceiling gain", cap)
	}
}
