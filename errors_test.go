package ucp

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// The error taxonomy contract: every failure of the public API is
// classifiable with errors.Is against the exported sentinels, so a
// server can map it to a status code without string matching.

func TestMalformedInputSentinel(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"matrix bad p line", func() error {
			_, err := ReadProblem(strings.NewReader("p x y\n"))
			return err
		}},
		{"matrix missing p line", func() error {
			_, err := ReadProblem(strings.NewReader("r 0 1\n"))
			return err
		}},
		{"matrix row count mismatch", func() error {
			_, err := ReadProblem(strings.NewReader("p 2 2\nr 0\n"))
			return err
		}},
		{"orlib negative dims", func() error {
			_, err := ReadORLibProblem(strings.NewReader("-1 -1\n"))
			return err
		}},
		{"pla bad output field", func() error {
			_, err := ParsePLA(strings.NewReader(".i 2\n.o 1\n11 z\n"))
			return err
		}},
		{"NewProblem column out of range", func() error {
			_, err := NewProblem([][]int{{5}}, 2, nil)
			return err
		}},
		{"NewProblem negative cost", func() error {
			_, err := NewProblem([][]int{{0}}, 1, []int{-1})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err()
			if err == nil {
				t.Fatal("input unexpectedly accepted")
			}
			if !errors.Is(err, ErrMalformedInput) {
				t.Fatalf("error %v does not wrap ErrMalformedInput", err)
			}
			if errors.Is(err, ErrInfeasible) || errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("error %v matches more than one sentinel", err)
			}
		})
	}
}

func TestCoveringLimitSentinel(t *testing.T) {
	n := MaxCoveringInputs + 1
	src := ".i " + strconv.Itoa(n) + "\n.o 1\n" + strings.Repeat("-", n) + " 1\n.e\n"
	f, err := ParsePLA(strings.NewReader(src))
	if err != nil {
		t.Fatalf("a wide PLA is well-formed, parse failed: %v", err)
	}
	_, _, cerr := BuildCovering(f, UnitCost)
	if !errors.Is(cerr, ErrCoveringLimit) {
		t.Fatalf("BuildCovering over %d inputs: %v, want ErrCoveringLimit", n, cerr)
	}
	if errors.Is(cerr, ErrMalformedInput) {
		t.Fatalf("size limit misclassified as malformed input: %v", cerr)
	}
	if _, merr := MinimizeSCG(f, SCGOptions{}); !errors.Is(merr, ErrCoveringLimit) {
		t.Fatalf("MinimizeSCG over %d inputs: %v, want ErrCoveringLimit", n, merr)
	}
}

func TestInfeasibleSentinel(t *testing.T) {
	p, err := NewProblem([][]int{{0}, {}}, 1, nil)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	_, _, gerr := SolveGreedy(p, Budget{})
	if !errors.Is(gerr, ErrInfeasible) {
		t.Fatalf("greedy on uncoverable row: %v, want ErrInfeasible", gerr)
	}
	if errors.Is(gerr, ErrMalformedInput) {
		t.Fatalf("infeasibility misclassified as malformed input: %v", gerr)
	}
}

func TestBudgetExceededSentinel(t *testing.T) {
	for _, r := range []StopReason{StopDeadline, StopCancelled, StopSearchCap, StopIterCap} {
		if err := r.Err(); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("StopReason(%v).Err() = %v, does not wrap ErrBudgetExceeded", r, err)
		}
	}
	if err := StopNone.Err(); err != nil {
		t.Fatalf("StopNone.Err() = %v, want nil", err)
	}
}
