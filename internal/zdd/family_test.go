package zdd

import (
	"math/rand"
	"testing"
)

// unionFold is Family's oracle: the family built one Union(Set(row))
// at a time, stopping at the first row Set rejects.
func unionFold(m *Manager, rows [][]int) (Node, error) {
	f := Empty
	for _, r := range rows {
		s, err := m.Set(r)
		if err != nil {
			return Empty, err
		}
		f = m.Union(f, s)
	}
	return f, nil
}

// TestFamilyMatchesUnionFold runs the differential check on seeded
// random covering-like row lists, on both engines: Family returns the
// fold's node, strands no garbage in a fresh manager (every stored
// node is live), and rebuilding an existing family allocates nothing.
func TestFamilyMatchesUnionFold(t *testing.T) {
	for _, eng := range []struct {
		name string
		mk   func() *Manager
	}{{"chain", New}, {"plain", NewPlain}} {
		t.Run(eng.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 40; trial++ {
				rows := make([][]int, rng.Intn(300))
				universe := 1 + rng.Intn(60)
				for i := range rows {
					rows[i] = make([]int, rng.Intn(9))
					for k := range rows[i] {
						rows[i][k] = rng.Intn(universe)
					}
				}
				m := eng.mk()
				f, err := m.Family(rows)
				if err != nil {
					t.Fatal(err)
				}
				m.AddRoot(&f)
				if live, stored := m.LiveNodeCount(), m.NodeCount(); live != stored {
					t.Fatalf("trial %d: Family left %d dead nodes", trial, stored-live)
				}
				want, _ := unionFold(m, rows)
				if f != want {
					t.Fatalf("trial %d: Family node %d, fold node %d", trial, f, want)
				}
				stored := m.NodeCount()
				if again, _ := m.Family(rows); again != f || m.NodeCount() != stored {
					t.Fatalf("trial %d: rebuilding the family allocated %d nodes", trial, m.NodeCount()-stored)
				}
			}
		})
	}
}

// TestFamilyEdgeCases pins the terminal results and Set's validation.
func TestFamilyEdgeCases(t *testing.T) {
	m := New()
	if f, err := m.Family(nil); err != nil || f != Empty {
		t.Fatalf("no rows: %d, %v; want Empty", f, err)
	}
	if f, err := m.Family([][]int{{}, {}}); err != nil || f != Base {
		t.Fatalf("only empty rows: %d, %v; want Base", f, err)
	}
	stored := m.NodeCount()
	_, err := m.Family([][]int{{1, 2}, {3, -2, -5}, {-1}})
	if err == nil || err.Error() != "zdd: negative element -5" {
		t.Fatalf("negative element: got %v, want Set's error for the first bad row", err)
	}
	if m.NodeCount() != stored {
		t.Fatal("a rejected Family allocated nodes")
	}
}

// TestFamilyNodeLimit: under a node limit the build panics with
// ErrNodeLimit like any other operation, and the manager stays usable
// — a Collect reclaims the partial build and the registered families
// survive.
func TestFamilyNodeLimit(t *testing.T) {
	m := New()
	keep, _ := m.Set([]int{1, 2})
	m.AddRoot(&keep)
	rows := make([][]int, 50)
	for i := range rows {
		rows[i] = []int{i, i + 50, i + 100}
	}
	m.SetNodeLimit(m.NodeCount() + 20)
	func() {
		defer func() {
			if recover() != ErrNodeLimit {
				t.Fatal("expected ErrNodeLimit")
			}
		}()
		m.Family(rows)
		t.Fatal("limit never tripped")
	}()
	if m.Collect() == 0 {
		t.Fatal("the partial build left nothing to reclaim")
	}
	if !m.Member(keep, []int{1, 2}) || m.Count(keep) != 1 {
		t.Fatal("root family damaged")
	}
	m.SetNodeLimit(0)
	f, err := m.Family(rows)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := unionFold(m, rows); f != want || m.Count(f) != 50 {
		t.Fatalf("after Collect: Family node %d (%d sets), fold node %d", f, m.Count(f), want)
	}
}
