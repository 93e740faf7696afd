package matrix

import (
	"cmp"
	"slices"
)

// Delta is the input of an incremental reduction: a parent problem, a
// child, and the row correspondence between them.  ReplayReduce uses
// it to carry the parent's recorded reduction facts over to the child.
// Column ids are taken to mean the same column in parent and child.
type Delta struct {
	// Parent and Child are the two instances.
	Parent *Problem
	Child  *Problem
	// RowMap[i] is the parent row child row i descends from, or -1 for
	// a row with no parent.  The correspondence is a hint: ReplayReduce
	// re-verifies every fact it carries, so a wrong entry costs speed,
	// never correctness.
	RowMap []int
}

// rowContentHash folds a row's column ids into a 64-bit hash for
// DeltaBetween's content matching: one multiply per id (FNV-1a over
// whole ids), then a splitmix finaliser.  The matcher compares row
// contents before it matches, so a collision can cost a match, never
// make a wrong one.
func rowContentHash(r []int) uint64 {
	h := uint64(len(r))*0x9e3779b97f4a7c15 + 1
	for _, j := range r {
		h = (h ^ uint64(j)) * 0x100000001b3
	}
	return mixDelta(h)
}

func mixDelta(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// DeltaBetween matches the rows of two independently built problems by
// content, greedily and monotonically: each child row takes the
// earliest unmatched parent row with identical content that keeps the
// matched parent indices strictly increasing; every other child row
// maps to -1.  The universes may differ in size, and costs are not
// compared (block reuse checks the costs a block references).
//
// Parent rows sit in one slice sorted by (content hash, row index), so
// each hash's run lists its rows in ascending order, and the run's
// first entry counts how much of the run earlier matches consumed: a
// constant number of allocations whatever the row count.
func DeltaBetween(parent, child *Problem) *Delta {
	type slot struct {
		h    uint64
		row  int32
		used int32 // at a run's first entry: entries consumed
	}
	slots := make([]slot, len(parent.Rows))
	for i, r := range parent.Rows {
		slots[i] = slot{h: rowContentHash(r), row: int32(i)}
	}
	slices.SortFunc(slots, func(a, b slot) int {
		if c := cmp.Compare(a.h, b.h); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	m := make([]int, len(child.Rows))
	last := -1
	for i, r := range child.Rows {
		m[i] = -1
		h := rowContentHash(r)
		s, ok := slices.BinarySearchFunc(slots, h, func(e slot, h uint64) int { return cmp.Compare(e.h, h) })
		if !ok {
			continue
		}
		for k := s + int(slots[s].used); k < len(slots) && slots[k].h == h; k++ {
			if pi := int(slots[k].row); pi > last && slices.Equal(parent.Rows[pi], r) {
				m[i], last = pi, pi
				slots[s].used = int32(k + 1 - s)
				break
			}
		}
	}
	return &Delta{Parent: parent, Child: child, RowMap: m}
}
