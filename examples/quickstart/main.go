// Quickstart: build a unate covering problem by hand and solve it with
// ZDD_SCG, the exact solver and the greedy baseline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ucp"
)

func main() {
	// A covering problem: five tasks (rows) and six workers (columns);
	// each worker can handle some tasks at a hiring cost.  We want the
	// cheapest crew covering every task.
	rows := [][]int{
		{0, 1},    // task 0: workers 0 or 1
		{1, 2, 3}, // task 1
		{0, 3},    // task 2
		{2, 4},    // task 3
		{3, 4, 5}, // task 4
	}
	costs := []int{3, 2, 4, 3, 2, 1}
	p, err := ucp.NewProblem(rows, 6, costs)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's lagrangian heuristic: it returns the cover, a lower
	// bound, and whether the bound certifies optimality.
	res := ucp.SolveSCG(p, ucp.SCGOptions{})
	fmt.Printf("ZDD_SCG : workers %v, cost %d", res.Solution, res.Cost)
	if res.ProvedOptimal {
		fmt.Printf(" — proved optimal (LB %.2f)", res.LB)
	}
	fmt.Println()

	// Cross-check with the exact branch-and-bound solver.
	exact := ucp.SolveExact(p, ucp.ExactOptions{})
	fmt.Printf("exact   : workers %v, cost %d (%d nodes)\n",
		exact.Solution, exact.Cost, exact.Nodes)

	// And with the classical greedy heuristic.
	g, _, err := ucp.SolveGreedy(p, ucp.Budget{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("greedy  : workers %v, cost %d\n", g, p.CostOf(g))

	// The four lower bounds of the paper's Proposition 1, in
	// increasing strength: MIS ≤ dual ascent ≤ lagrangian ≤ LP.
	b := ucp.LowerBounds(p)
	fmt.Printf("bounds  : MIS=%d  DA=%.2f  Lagr=%.2f  LP=%.2f\n",
		b.MIS, b.DualAscent, b.Lagrangian, b.LinearRelaxation)
}
