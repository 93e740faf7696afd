// Two-level minimisation end to end: parse a PLA, minimise it with the
// paper's ZDD_SCG pipeline, the exact solver and the Espresso-style
// baseline, and verify all three implement the same function.
//
//	go run ./examples/twolevel
package main

import (
	"fmt"
	"log"
	"strings"

	"ucp"
)

// A 4-input 2-output controller excerpt with don't cares, in Berkeley
// PLA format (type fd: output '1' = ON, '-' = don't care).
const controller = `
.i 4
.o 2
.ilb  start busy irq mode
.ob   grant ack
.p 8
1--0 10
-11- 11
0--1 01
11-- 10
--00 0-
0110 11
1-1- -1
-000 10
.e
`

func main() {
	f, err := ucp.ParsePLA(strings.NewReader(controller))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("input: %d products over %d inputs, %d outputs\n\n",
		f.F.Len(), f.Space.Inputs(), f.Space.Outputs())

	// The paper's pipeline: primes → covering matrix → reductions →
	// lagrangian heuristic.
	sg, err := ucp.MinimizeSCG(f, ucp.SCGOptions{})
	if err != nil {
		log.Fatal(err)
	}
	report(f, "ZDD_SCG", sg)

	ex, err := ucp.MinimizeExact(f, ucp.ExactOptions{})
	if err != nil {
		log.Fatal(err)
	}
	report(f, "exact", ex)

	report(f, "espresso", ucp.MinimizeEspresso(f, ucp.EspressoNormal, ucp.Budget{}))
	report(f, "espresso-strong", ucp.MinimizeEspresso(f, ucp.EspressoStrong, ucp.Budget{}))

	fmt.Println("\nminimised cover (ZDD_SCG):")
	fmt.Print(sg.Cover)
}

func report(f *ucp.PLA, name string, r *ucp.TwoLevelResult) {
	if !ucp.Equivalent(f, r.Cover) {
		log.Fatalf("%s produced a wrong cover", name)
	}
	note := ""
	if r.ProvedOptimal {
		note = " (proved optimal)"
	}
	fmt.Printf("%-16s %d products%s\n", name, r.Products, note)
}
