package scg

import (
	"reflect"
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/matrix"
	"ucp/internal/primes"
)

// widePart returns the largest connected part of a wide random PLA's
// covering, compacted the way the solve pipeline hands it to the
// implicit phase: 14 778 rows, far too many for the dense shortcut, so
// the phase runs on the ZDD engine even without a node cap.
func widePart(t testing.TB) *matrix.Problem {
	t.Helper()
	f := benchmarks.RandomPLA(15839, 16, 2, 100, 0.35, 0)
	prs, _ := primes.GenerateAutoBudget(f.F, f.D, nil)
	p, _, err := primes.BuildCovering(f.F, f.D, prs, primes.UnitCost)
	if err != nil {
		t.Fatal(err)
	}
	var part *matrix.Problem
	for _, c := range matrix.Components(p) {
		if part == nil || len(c.Problem.Rows) > len(part.Rows) {
			part = c.Problem
		}
	}
	part, _ = part.CompactSparse()
	if len(part.Rows) != 14778 || matrix.DenseEligible(part) {
		t.Fatalf("wide part: %d rows, dense-eligible %v; want 14778 rows on the ZDD engine",
			len(part.Rows), matrix.DenseEligible(part))
	}
	return part
}

// TestWidePartCompletesUnderCap: the load builds the wide part's
// family (3 116 nodes) without stranding one, so a cap well above the
// family's size admits the whole phase, and the capped run reduces to
// the uncapped run's result.
func TestWidePartCompletesUnderCap(t *testing.T) {
	p := widePart(t)
	full := ImplicitReduceBudgetWorkers(p, 1, 1, 0, nil, 1)
	capped := ImplicitReduceBudgetWorkers(p, 1, 1, 20_000, nil, 1)
	if full.Aborted || full.Dense {
		t.Fatalf("uncapped run: aborted %v, dense %v; want a completed ZDD phase", full.Aborted, full.Dense)
	}
	if capped.Aborted {
		t.Fatalf("phase aborted under cap 20000 (peak %d nodes)", capped.ZDDNodes)
	}
	if !reflect.DeepEqual(capped.Essential, full.Essential) || !reflect.DeepEqual(capped.Core.Rows, full.Core.Rows) {
		t.Fatal("capped run reduced to a different result than the uncapped run")
	}
}

// TestLoadOverrunAbortsWithoutCollecting: when the family itself does
// not fit under the cap, the phase aborts at the load rather than
// collecting and retrying — the store held nothing but the load's own
// partial build, so a retry would only rebuild it.
func TestLoadOverrunAbortsWithoutCollecting(t *testing.T) {
	ir := ImplicitReduceBudgetWorkers(widePart(t), 1, 1, 1_000, nil, 1)
	if !ir.Aborted {
		t.Fatal("phase completed under cap 1000")
	}
	if ir.Collections != 0 {
		t.Fatalf("load overrun ran %d collections before aborting", ir.Collections)
	}
}
