// Command ucpbench regenerates the paper's evaluation: Figure 1, the
// easy-cyclic aggregate, Tables 1–4, the Proposition 1 bound study and
// the ablation sweeps, on the seeded replica instances.
//
// Usage:
//
//	ucpbench -experiment all
//	ucpbench -experiment table1
//	ucpbench -experiment table3 -nodes 500000 -numiter 4
//
// Experiments: figure1, easy, table1, table2, table3, table4, bounds,
// frontend, ablations, all.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"ucp"
	"ucp/internal/harness"
	"ucp/internal/interrupt"
	"ucp/internal/prof"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "figure1|easy|table1|table2|table3|table4|bounds|frontend|ablations|all")
		frontCap   = flag.Duration("frontend-cap", 5*time.Second, "per-instance consensus cap in the front-end study")
		nodes      = flag.Int64("nodes", 50_000, "node budget for the exact comparator (0 = unlimited)")
		numIter    = flag.Int("numiter", 2, "ZDD_SCG constructive runs for tables 3 and 4")
		samples    = flag.Int("samples", 20, "instances in the bound study")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the whole run, e.g. 5m (0 = unlimited); remaining experiments are skipped once it expires")
		useCache   = flag.Bool("cache", false, "share a cross-solve cache across experiments (ablation sweeps and Tables 3-4 revisit problems)")
		cacheSize  = flag.Int("cache-size", ucp.DefaultCacheSize, "session cache capacity in entries (with -cache)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()
	w := os.Stdout

	if *useCache {
		c := ucp.NewCache(*cacheSize, ucp.DefaultCacheMinWork)
		harness.UseCache(c)
		defer func() {
			cs := c.Stats()
			fmt.Fprintf(w, "session cache: %d entries, %d hits / %d misses, %d dedups, %d stores, %d evictions\n",
				cs.Entries, cs.Hits, cs.Misses, cs.Dedups, cs.Stores, cs.Evictions)
		}()
	}

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucpbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	// The deadline (and Ctrl-C) is checked between experiments: each
	// experiment that starts runs to completion, so every printed table
	// is whole and the run degrades by dropping trailing experiments.
	// A second Ctrl-C flushes the profiles and exits immediately.
	ctx, stop := interrupt.Handle(context.Background(), func() { stopProf() }, os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	run := func(name string) {
		switch name {
		case "figure1":
			fmt.Fprintln(w, "== Figure 1: independent-set vs dual-ascent vs linear bounds ==")
			harness.WriteFigure1(w, harness.Figure1())
		case "easy":
			fmt.Fprintln(w, "== Experiment 1: 49 easy cyclic instances ==")
			harness.WriteEasy(w, harness.EasyCyclic())
		case "table1":
			fmt.Fprintln(w, "== Table 1: difficult cyclic, ZDD_SCG vs Espresso ==")
			harness.WriteHeuristic(w, harness.Table1())
		case "table2":
			fmt.Fprintln(w, "== Table 2: challenging, ZDD_SCG vs Espresso ==")
			harness.WriteHeuristic(w, harness.Table2())
		case "table3":
			fmt.Fprintln(w, "== Table 3: difficult cyclic, ZDD_SCG vs exact ==")
			harness.WriteExact(w, harness.Table3(*numIter, *nodes))
		case "table4":
			fmt.Fprintln(w, "== Table 4: challenging, ZDD_SCG vs exact ==")
			harness.WriteExact(w, harness.Table4(*numIter, *nodes))
		case "bounds":
			fmt.Fprintln(w, "== Proposition 1: bound dominance on random instances ==")
			harness.WriteBounds(w, harness.BoundsStudy(*samples))
		case "frontend":
			fmt.Fprintln(w, "== Front-end study: dense bit-slice sweep vs iterated consensus ==")
			harness.WriteFrontEnd(w, *frontCap, harness.FrontEndStudy(*frontCap))
		case "ablations":
			fmt.Fprintln(w, "== Ablations (DESIGN.md section 5) ==")
			harness.WriteAblation(w, "alpha sweep (sigma = ctilde - alpha*mu)", harness.AblationAlpha())
			harness.WriteAblation(w, "penalty / promising fixing", harness.AblationPenalties())
			fmt.Fprintln(w, "implicit (ZDD) vs explicit reductions:")
			for _, r := range harness.AblationImplicit() {
				fmt.Fprintf(w, "  %-20s corerows=%d t=%.3fs\n", r.Label, r.CoreRows, r.Time.Seconds())
			}
			harness.WriteAblation(w, "multiplier warm start across fixing phases", harness.AblationSolverWarmStart())
			harness.WriteAblation(w, "stochastic restarts", harness.AblationRestarts())
			fmt.Fprintln(w, "greedy rating functions (standalone, true costs):")
			for _, g := range harness.AblationGamma() {
				fmt.Fprintf(w, "  %-16s total=%d\n", g.Label, g.Total)
			}
			fmt.Fprintln(w, "subgradient warm start (60-iteration budget):")
			for _, r := range harness.AblationWarmStart() {
				fmt.Fprintf(w, "  %-18s totalLB=%.2f iters=%d\n", r.Label, r.TotalLB, r.Iters)
			}
		default:
			fmt.Fprintf(os.Stderr, "ucpbench: unknown experiment %q\n", name)
			stopProf() // os.Exit skips the deferred flush
			os.Exit(2)
		}
		fmt.Fprintln(w)
	}

	if *experiment == "all" {
		for _, name := range []string{"figure1", "bounds", "frontend", "easy", "table1", "table2", "table3", "table4", "ablations"} {
			if err := ctx.Err(); err != nil {
				fmt.Fprintf(w, "ucpbench: budget exhausted (%v); skipping %s and later experiments — results above are partial\n", err, name)
				return
			}
			run(name)
		}
		return
	}
	if err := ctx.Err(); err != nil {
		fmt.Fprintf(w, "ucpbench: budget exhausted (%v) before the experiment started\n", err)
		return
	}
	run(*experiment)
}
