package budget

import (
	"context"
	"testing"
	"time"
)

func TestZeroBudgetNeverInterrupts(t *testing.T) {
	var tr *Tracker = Budget{}.Tracker()
	if tr != nil {
		t.Fatal("an unlimited budget should produce a nil tracker")
	}
	// Every method must be nil-receiver safe.
	if tr.Interrupted() || tr.AddIters(1000) || tr.AddSearchNodes(1000) {
		t.Fatal("nil tracker interrupted")
	}
	if tr.Reason() != None || tr.Iters() != 0 || tr.SearchNodes() != 0 {
		t.Fatal("nil tracker reported consumption")
	}
}

func TestSearchCapLatches(t *testing.T) {
	tr := Budget{SearchCap: 3}.Tracker()
	for i := 0; i < 3; i++ {
		if tr.AddSearchNodes(1) {
			t.Fatalf("interrupted after %d of 3 nodes", i+1)
		}
	}
	if !tr.AddSearchNodes(1) {
		t.Fatal("4th node should exhaust a cap of 3")
	}
	if tr.Reason() != SearchCap {
		t.Fatalf("Reason = %v, want SearchCap", tr.Reason())
	}
	// Latched: later checks keep reporting the first reason.
	if !tr.Interrupted() || tr.Reason() != SearchCap {
		t.Fatal("verdict did not latch")
	}
	if tr.SearchNodes() != 4 {
		t.Fatalf("SearchNodes = %d, want 4", tr.SearchNodes())
	}
}

func TestIterCapLatches(t *testing.T) {
	tr := Budget{IterCap: 2}.Tracker()
	if tr.AddIters(2) {
		t.Fatal("2 iterations should fit a cap of 2")
	}
	if !tr.AddIters(1) {
		t.Fatal("3rd iteration should exhaust a cap of 2")
	}
	if tr.Reason() != IterCap || tr.Iters() != 3 {
		t.Fatalf("Reason=%v Iters=%d, want IterCap/3", tr.Reason(), tr.Iters())
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr := Budget{Context: ctx}.Tracker()
	if tr.Interrupted() {
		t.Fatal("interrupted before cancellation")
	}
	cancel()
	if !tr.Interrupted() {
		t.Fatal("not interrupted after cancellation")
	}
	if tr.Reason() != Cancelled {
		t.Fatalf("Reason = %v, want Cancelled", tr.Reason())
	}
}

func TestExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	tr := Budget{Context: ctx}.Tracker()
	if !tr.Interrupted() || tr.Reason() != Deadline {
		t.Fatalf("Interrupted=%v Reason=%v, want Deadline", tr.Interrupted(), tr.Reason())
	}
}

func TestFirstReasonWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr := Budget{Context: ctx, SearchCap: 1}.Tracker()
	tr.AddSearchNodes(5) // latches SearchCap
	cancel()
	if tr.Reason() != SearchCap {
		t.Fatalf("Reason = %v, want the first latched reason SearchCap", tr.Reason())
	}
}

func TestReasonStrings(t *testing.T) {
	for r, want := range map[Reason]string{
		None:      "none",
		Deadline:  "deadline",
		Cancelled: "cancelled",
		SearchCap: "search-node cap",
		IterCap:   "subgradient-iteration cap",
	} {
		if got := r.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(r), got, want)
		}
	}
	if Reason(99).String() != "unknown" {
		t.Fatal("out-of-range reason should stringify as unknown")
	}
}
