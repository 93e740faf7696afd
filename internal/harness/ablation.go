package harness

import (
	"fmt"
	"io"
	"time"

	"ucp/internal/benchmarks"
	"ucp/internal/lagrangian"
	"ucp/internal/matrix"
	"ucp/internal/scg"
)

// ablationInstances is the instance set the ablation sweeps run on:
// the instances whose optimum the single-run heuristic does not
// trivially certify, so configuration changes show up as cost and
// certification differences rather than ties.
func ablationInstances() []benchmarks.Instance {
	var out []benchmarks.Instance
	for _, in := range append(benchmarks.DifficultCyclic(), benchmarks.Challenging()...) {
		switch in.Name {
		case "exam", "max1024", "test4", "ex1010", "test3":
			out = append(out, in)
		}
	}
	return out
}

// AblationResult is one configuration of an ablation sweep: total
// solution cost over the ablation set, how many instances were proved
// optimal, and the total time.
type AblationResult struct {
	Label   string
	Total   int
	Optimal int
	Time    time.Duration
}

func runAblation(label string, opt func(benchmarks.Instance) scg.Options) AblationResult {
	res := AblationResult{Label: label}
	t0 := time.Now()
	for _, in := range ablationInstances() {
		prob := Covering(in)
		r := scg.Solve(prob, scgOpts(opt(in)))
		res.Total += r.Cost
		if r.ProvedOptimal {
			res.Optimal++
		}
	}
	res.Time = time.Since(t0)
	return res
}

// AblationAlpha sweeps the σ_j = c̃_j − α·μ_j rating weight around the
// paper's α = 2.
func AblationAlpha() []AblationResult {
	var out []AblationResult
	for _, alpha := range []float64{0.5, 1, 2, 4, 8} {
		a := alpha
		out = append(out, runAblation(fmt.Sprintf("alpha=%g", a),
			func(in benchmarks.Instance) scg.Options {
				return scg.Options{Seed: in.Seed, Params: lagrangian.Params{Alpha: a}}
			}))
	}
	return out
}

// AblationPenalties compares the full fixing machinery against runs
// without penalty fixing, without promising-column fixing, and with
// neither (σ-rating only).
func AblationPenalties() []AblationResult {
	return []AblationResult{
		runAblation("full", func(in benchmarks.Instance) scg.Options {
			return scg.Options{Seed: in.Seed}
		}),
		runAblation("no-penalties", func(in benchmarks.Instance) scg.Options {
			return scg.Options{Seed: in.Seed, DisablePenalties: true}
		}),
		runAblation("no-promising", func(in benchmarks.Instance) scg.Options {
			return scg.Options{Seed: in.Seed, DisablePromising: true}
		}),
		runAblation("sigma-only", func(in benchmarks.Instance) scg.Options {
			return scg.Options{Seed: in.Seed, DisablePenalties: true, DisablePromising: true}
		}),
	}
}

// ReductionResult is one side of the implicit-vs-explicit reduction
// ablation: the cyclic-core rows it reached, summed over the ablation
// set, and the time it took.
type ReductionResult struct {
	Label    string
	CoreRows int
	Time     time.Duration
}

// AblationImplicit compares, on the same coverings, the paper's
// implicit reduction phase (scg.ImplicitReduceBudgetWorkers at the
// paper's 5000-row, 10000-column early exit, then the explicit
// fixpoint on its core) against the explicit fixpoint alone, which is
// the reduction the solver runs.  Both sides run sequentially and
// reach cores of the same size.
func AblationImplicit() []ReductionResult {
	phase := ReductionResult{Label: "implicit+explicit"}
	explicit := ReductionResult{Label: "explicit-only"}
	for _, in := range ablationInstances() {
		prob := Covering(in)
		t0 := time.Now()
		ir := scg.ImplicitReduceBudgetWorkers(prob, 5000, 10000, 0, nil, 1)
		phase.CoreRows += len(matrix.ReduceBudgetWorkers(ir.Core, nil, 1).Core.Rows)
		phase.Time += time.Since(t0)
		t0 = time.Now()
		explicit.CoreRows += len(matrix.ReduceBudgetWorkers(prob, nil, 1).Core.Rows)
		explicit.Time += time.Since(t0)
	}
	return []ReductionResult{phase, explicit}
}

// AblationRestarts sweeps the stochastic multi-run parameter NumIter.
func AblationRestarts() []AblationResult {
	var out []AblationResult
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		out = append(out, runAblation(fmt.Sprintf("NumIter=%d", n),
			func(in benchmarks.Instance) scg.Options {
				return scg.Options{Seed: in.Seed, NumIter: n}
			}))
	}
	return out
}

// GammaResult compares one greedy rating function across the ablation
// set: total cover cost when the subgradient's primal heuristic is
// restricted to that variant (measured standalone, on the true costs).
type GammaResult struct {
	Variant lagrangian.GammaVariant
	Label   string
	Total   int
}

// AblationGamma measures the four rating functions of §3.5 in
// isolation: each builds one greedy cover per instance from the true
// costs.
func AblationGamma() []GammaResult {
	labels := []string{"c/n", "c/lg(n+1)", "c/(n·lg(n+1))", "row-importance"}
	var out []GammaResult
	for v := lagrangian.GammaPerRow; v <= lagrangian.GammaRowImportance; v++ {
		g := GammaResult{Variant: v, Label: labels[v]}
		for _, in := range ablationInstances() {
			prob := Covering(in)
			q, _ := prob.Compact()
			sol := lagrangian.GreedyLagrangian(q, lagrangian.FloatCosts(q), v)
			g.Total += q.CostOf(sol)
		}
		out = append(out, g)
	}
	return out
}

// WarmStartResult compares multiplier initialisations for the
// subgradient ascent (§3.3: "a good estimate λ₀ is provided by the
// dual problem").
type WarmStartResult struct {
	Label   string
	TotalLB float64 // sum of lagrangian bounds over the set
	Iters   int     // total subgradient iterations used
}

// AblationWarmStart contrasts the dual-ascent λ₀ (the paper's choice)
// with an all-zero start under a tight iteration budget.
func AblationWarmStart() []WarmStartResult {
	budget := lagrangian.Params{MaxIters: 60}
	var warm, cold WarmStartResult
	warm.Label, cold.Label = "dual-ascent start", "zero start"
	for _, in := range ablationInstances() {
		prob := Covering(in)
		red := matrix.ReduceBudgetWorkers(prob, nil, 1)
		core, _ := red.Core.Compact()
		if len(core.Rows) == 0 {
			continue
		}
		w := lagrangian.Subgradient(core, budget, nil, 0, nil, nil)
		warm.TotalLB += w.LB
		warm.Iters += w.Iters
		zero := &lagrangian.Multipliers{
			Lambda: make([]float64, len(core.Rows)),
			Mu:     make([]float64, core.NCol),
		}
		c := lagrangian.Subgradient(core, budget, zero, 0, nil, nil)
		cold.TotalLB += c.LB
		cold.Iters += c.Iters
	}
	return []WarmStartResult{warm, cold}
}

// WriteAblation prints an ablation sweep.
func WriteAblation(w io.Writer, name string, rows []AblationResult) {
	fmt.Fprintf(w, "%s:\n", name)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s total=%4d optimal=%d/%d t=%.2fs\n",
			r.Label, r.Total, r.Optimal, len(ablationInstances()), r.Time.Seconds())
	}
}

// AblationSolverWarmStart compares the full solver with and without
// inheriting multipliers across fixing phases (§3.2).
func AblationSolverWarmStart() []AblationResult {
	return []AblationResult{
		runAblation("warm-start", func(in benchmarks.Instance) scg.Options {
			return scg.Options{Seed: in.Seed}
		}),
		runAblation("cold-restart", func(in benchmarks.Instance) scg.Options {
			return scg.Options{Seed: in.Seed, DisableWarmStart: true}
		}),
	}
}
