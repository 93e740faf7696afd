// Pure set covering at an operations-research scale: a randomly
// generated facility-location style instance far from any logic
// origin, showing that the covering core of the library stands on its
// own.  Compares greedy, ZDD_SCG and the exact solver, and shows the
// effect of the stochastic restarts.
//
//	go run ./examples/setcover
package main

import (
	"fmt"
	"math/rand"

	"ucp"
)

func main() {
	// 120 demand points (rows), 60 candidate facilities (columns);
	// each facility serves a random 8% of the points at a cost between
	// 1 and 5.
	const (
		points     = 120
		facilities = 60
		density    = 0.08
		seed       = 2026
	)
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int, points)
	for i := range rows {
		for j := 0; j < facilities; j++ {
			if rng.Float64() < density {
				rows[i] = append(rows[i], j)
			}
		}
		if len(rows[i]) == 0 {
			rows[i] = append(rows[i], rng.Intn(facilities))
		}
	}
	costs := make([]int, facilities)
	for j := range costs {
		costs[j] = 1 + rng.Intn(5)
	}
	p, err := ucp.NewProblem(rows, facilities, costs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("instance: %d demand points, %d facilities\n\n", points, facilities)

	g, _, err := ucp.SolveGreedy(p, ucp.Budget{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("greedy            cost %3d with %d facilities\n", p.CostOf(g), len(g))

	one := ucp.SolveSCG(p, ucp.SCGOptions{Seed: 1})
	fmt.Printf("ZDD_SCG (1 run)   cost %3d (LB %.2f, optimal=%v)\n", one.Cost, one.LB, one.ProvedOptimal)

	multi := ucp.SolveSCG(p, ucp.SCGOptions{Seed: 1, NumIter: 6})
	fmt.Printf("ZDD_SCG (6 runs)  cost %3d (LB %.2f, optimal=%v)\n", multi.Cost, multi.LB, multi.ProvedOptimal)

	exact := ucp.SolveExact(p, ucp.ExactOptions{InitialUB: multi.Cost})
	fmt.Printf("exact             cost %3d (%d nodes)\n", exact.Cost, exact.Nodes)

	b := ucp.LowerBounds(p)
	fmt.Printf("\nbound chain: MIS=%d ≤ DA=%.2f ≤ Lagr=%.2f ≤ LP=%.2f ≤ opt=%d\n",
		b.MIS, b.DualAscent, b.Lagrangian, b.LinearRelaxation, exact.Cost)
}
