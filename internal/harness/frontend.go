package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"ucp/internal/benchmarks"
	"ucp/internal/budget"
	"ucp/internal/primes"
)

// FrontEndRow is one instance of the prime-generation front-end study:
// the dense bit-slice sweep against iterated consensus on the same
// random function, and the work-capped dispatcher that chooses between
// them.
type FrontEndRow struct {
	Name    string
	Inputs  int
	Outputs int
	Cubes   int

	DensePrimes   int
	DenseTime     time.Duration
	DenseComplete bool

	ConsensusPrimes   int
	ConsensusTime     time.Duration
	ConsensusComplete bool // false: cut off by the per-run cap

	AutoTime   time.Duration
	AutoEngine primes.Engine
}

// frontEndCorpus sweeps the regime boundary between the two front
// ends: a narrow sparse function where iterated consensus wins, the
// dense mid-width regime where its quadratic work-set scans explode,
// and a wide sparse function only the streaming pipeline reaches at
// all (consensus still finishes — the lattice is big but the work set
// stays small).
var frontEndCorpus = []struct {
	inputs, outputs, cubes int
	density                float64
	seed                   int64
}{
	{12, 2, 40, 0.3, 5},
	{16, 2, 60, 0.5, 11},
	{16, 2, 100, 0.5, 11},
	{20, 3, 80, 0.3, 7},
}

// frontEndRuns is how many times the study times each engine on each
// instance; the row keeps the fastest run.
const frontEndRuns = 3

// bestOf times fn up to frontEndRuns times, each after a collection so
// no run pays for the previous one's garbage, and returns the fastest.
// fn reports whether another run is worth making.
func bestOf(fn func() bool) time.Duration {
	var best time.Duration
	for r := 0; r < frontEndRuns; r++ {
		runtime.GC()
		t0 := time.Now()
		again := fn()
		if d := time.Since(t0); r == 0 || d < best {
			best = d
		}
		if !again {
			break
		}
	}
	return best
}

// FrontEndStudy times both front ends and the dispatcher on the
// corpus, best of frontEndRuns each.  The dense sweep and the
// dispatcher run unbounded (the sweep's cost is fixed by the care set,
// and the dispatcher caps its consensus pass by work); each plain
// consensus run is capped at cap wall clock, reports a partial work set
// when it trips, and is then not repeated.
func FrontEndStudy(cap time.Duration) []FrontEndRow {
	var out []FrontEndRow
	for _, c := range frontEndCorpus {
		f := benchmarks.RandomPLA(c.seed, c.inputs, c.outputs, c.cubes, c.density, 2)
		row := FrontEndRow{
			Name:   fmt.Sprintf("rand%d-%dx%d", c.inputs, c.cubes, c.outputs),
			Inputs: c.inputs, Outputs: c.outputs, Cubes: c.cubes,
		}
		row.DenseTime = bestOf(func() bool {
			dp, ok := primes.GenerateDenseBudget(f.F, f.D, nil)
			row.DensePrimes, row.DenseComplete = dp.Len(), ok
			return true
		})
		row.ConsensusTime = bestOf(func() bool {
			ctx, cancel := context.WithTimeout(context.Background(), cap)
			defer cancel()
			cp, ok := primes.GenerateBudget(f.F, f.D, budget.Budget{Context: ctx}.Tracker())
			row.ConsensusPrimes, row.ConsensusComplete = cp.Len(), ok
			return ok
		})
		row.AutoTime = bestOf(func() bool {
			_, _, row.AutoEngine = primes.GenerateAutoEngine(f.F, f.D, nil)
			return true
		})
		out = append(out, row)
	}
	return out
}

// WriteFrontEnd prints the front-end study.
func WriteFrontEnd(w io.Writer, cap time.Duration, rows []FrontEndRow) {
	fmt.Fprintf(w, "%-14s %4s %4s %6s %8s %10s %10s %8s %10s %s\n",
		"instance", "in", "out", "cubes", "primes", "dense(s)", "cons(s)", "ratio", "auto(s)", "engine")
	for _, r := range rows {
		cons := fmt.Sprintf("%10.3f", r.ConsensusTime.Seconds())
		ratio := fmt.Sprintf("%7.1fx", float64(r.ConsensusTime)/float64(r.DenseTime))
		if !r.ConsensusComplete {
			cons = fmt.Sprintf(">%9.3f", cap.Seconds())
			ratio = fmt.Sprintf(">%6.1fx", float64(cap)/float64(r.DenseTime))
		}
		fmt.Fprintf(w, "%-14s %4d %4d %6d %8d %10.3f %s %s %10.3f %s\n",
			r.Name, r.Inputs, r.Outputs, r.Cubes, r.DensePrimes,
			r.DenseTime.Seconds(), cons, ratio, r.AutoTime.Seconds(), r.AutoEngine)
	}
	fmt.Fprintf(w, "(best of %d runs each; consensus capped at %v per run; primes column is the dense count, identical whenever both complete; auto is GenerateAutoBudget)\n", frontEndRuns, cap)
}
