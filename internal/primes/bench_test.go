package primes

import (
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/matrix"
	"ucp/internal/pla"
)

// The prime-generation substrate benches compare the two front ends on
// a 16-input 2-output instance dense enough (100 cubes, half the
// literals don't-care) that the iterated-consensus work set grows into
// the thousands.  The dense sweep's cost is fixed by the care set; the
// semi-naive closure's follows the pairs it has not tried yet and the
// containment scans their candidates need, so here the sweep still
// wins (~3x), while on wide sparse instances consensus wins instead.
// The auto variants time GenerateAutoBudget, which runs consensus
// under a cap of the sweep's estimated word-op count and falls back to
// the sweep only when the cap trips: on rand16 the cap trips (auto
// pays the capped pass on top of the sweep), on rand20 consensus
// finishes under it.
func BenchmarkPrimeGen(b *testing.B) {
	f := benchmarks.RandomPLA(11, 16, 2, 100, 0.5, 2)
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := GenerateDenseBudget(f.F, f.D, nil); !ok {
				b.Fatal("dense sweep did not complete")
			}
		}
	})
	b.Run("consensus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := GenerateBudget(f.F, f.D, nil); !ok {
				b.Fatal("consensus did not complete")
			}
		}
	})
	wide := benchmarks.RandomPLA(7, 20, 3, 80, 0.3, 1)
	for _, in := range []struct {
		name string
		f    *pla.File
		want Engine
	}{{"rand16", f, EngineDense}, {"rand20", wide, EngineCappedConsensus}} {
		b.Run("auto/"+in.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok, eng := GenerateAutoEngine(in.f.F, in.f.D, nil); !ok || eng != in.want {
					b.Fatalf("engine %s (complete=%v), want %s", eng, ok, in.want)
				}
			}
		})
	}
}

// BenchmarkBuildCovering compares the per-prime covering scatter
// against the map-based reference oracle on a 20-input 3-output
// instance (158 primes, ~25k covering rows).  The split sub-bench
// builds the same covering as a split, writing only the rows its
// essential primes leave: rows/op counts every ON-minterm row and
// written/op the rows written, both exact.
func BenchmarkBuildCovering(b *testing.B) {
	f := benchmarks.RandomPLA(7, 20, 3, 80, 0.3, 1)
	prs, ok := GenerateDenseBudget(f.F, f.D, nil)
	if !ok {
		b.Fatal("prime generation did not complete")
	}
	b.Run("stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := BuildCovering(f.F, f.D, prs, UnitCost); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("split", func(b *testing.B) {
		var s *matrix.Split
		for i := 0; i < b.N; i++ {
			var err error
			if s, err = BuildSplit(f.F, f.D, prs, UnitCost); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(s.NRows), "rows/op")
		b.ReportMetric(float64(len(s.Rest)), "written/op")
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := buildCoveringReference(f.F, f.D, prs, UnitCost); err != nil {
				b.Fatal(err)
			}
		}
	})
}
