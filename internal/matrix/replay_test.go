package matrix

import (
	"math/rand"
	"slices"
	"testing"
)

// editScript applies up to 8 edits decoded from raw bytes to p: added
// rows (fresh and near-duplicate), dropped rows, added columns and
// emptied columns.  The decoding is fully deterministic in (p, raw)
// and every operand is clamped into range, so any byte string is a
// valid script — the shape the fuzzer needs.  The returned delta's
// RowMap is the edit's own provenance: every surviving row maps to the
// parent row it came from, including rows whose content an added or
// emptied column changed, which a content match leaves unmatched.
func editScript(p *Problem, raw []byte) *Delta {
	rows := slices.Clone(p.Rows)
	ncol, cost := p.NCol, slices.Clone(p.Cost)
	rowMap := make([]int, len(rows))
	for i := range rowMap {
		rowMap[i] = i
	}
	rnd := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		if n <= 0 {
			return 0
		}
		rnd = mixDelta(rnd + 0xbf58476d1ce4e5b9)
		return int(rnd % uint64(n))
	}
	addRow := func(r []int) {
		r = slices.Clone(r)
		slices.Sort(r)
		rows = append(rows, slices.Compact(r))
		rowMap = append(rowMap, -1)
	}
	ops := 0
	for k := 0; k < len(raw) && ops < 8; k++ {
		b := raw[k]
		rnd ^= uint64(b) * 0x94d049bb133111eb
		switch b % 5 {
		case 0: // fresh random row
			n := 1 + next(4)
			row := make([]int, 0, n)
			for t := 0; t < n; t++ {
				row = append(row, next(ncol))
			}
			addRow(row)
		case 1: // superset of an existing row (the near-duplicate case)
			if len(rows) == 0 {
				continue
			}
			src := rows[next(len(rows))]
			addRow(append(slices.Clone(src), next(ncol)))
		case 2: // drop a row
			if len(rows) <= 1 {
				continue
			}
			i := next(len(rows))
			rows, rowMap = slices.Delete(rows, i, i+1), slices.Delete(rowMap, i, i+1)
		case 3: // fresh column covering a few rows
			var cover []int
			for t := 0; t <= next(3); t++ {
				if len(rows) > 0 {
					cover = append(cover, next(len(rows)))
				}
			}
			cost = append(cost, 1+next(3))
			for _, i := range cover {
				if r := rows[i]; len(r) == 0 || r[len(r)-1] != ncol {
					rows[i] = append(slices.Clip(r), ncol)
				}
			}
			ncol++
		case 4: // empty a column
			j := next(ncol)
			for i, r := range rows {
				if slices.Contains(r, j) {
					rows[i] = slices.DeleteFunc(slices.Clone(r), func(x int) bool { return x == j })
				}
			}
		}
		ops++
	}
	return &Delta{Parent: p, Child: &Problem{Rows: rows, NCol: ncol, Cost: cost}, RowMap: rowMap}
}

// replayDeltas are the two correspondences a replay is checked over:
// the content match DeltaBetween computes, and the edit's provenance.
func replayDeltas(d *Delta) map[string]*Delta {
	return map[string]*Delta{"matched": DeltaBetween(d.Parent, d.Child), "provenance": d}
}

// checkReplay reduces d's child cold and by replay and asserts the two
// tracked reductions are bit-identical; it returns the replay's trace
// so chains can continue.
func checkReplay(t *testing.T, label string, d *Delta, trace *ReduceTrace, workers int) *ReduceTrace {
	t.Helper()
	want, _ := ReduceTrackedTrace(d.Child, nil, workers)
	got, newTrace := ReplayReduce(d, trace, nil, workers)
	sameTracked(t, label, got, want)
	return newTrace
}

func TestDeltaBetween(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 80; trial++ {
		p := randReduceProblem(rng, 30, 25, 3, false)
		raw := make([]byte, 1+rng.Intn(10))
		rng.Read(raw)
		child := editScript(p, raw).Child
		got := DeltaBetween(p, child)
		// The reconstruction must be a valid monotone content match:
		// every matched pair identical, parent indices increasing.
		last := -1
		for i, pi := range got.RowMap {
			if pi < 0 {
				continue
			}
			if pi <= last {
				t.Fatalf("trial %d: match not monotone at child row %d", trial, i)
			}
			if !slices.Equal(p.Rows[pi], child.Rows[i]) {
				t.Fatalf("trial %d: mismatched rows %v vs %v", trial, p.Rows[pi], child.Rows[i])
			}
			last = pi
		}
		// And it must be good enough to power an exact replay.
		_, trace := ReduceTrackedTrace(p, nil, 1)
		want, _ := ReduceTrackedTrace(child, nil, 1)
		res, _ := ReplayReduce(got, trace, nil, 1)
		sameTracked(t, "deltabetween-replay", res, want)
	}
	// Duplicate rows match in order, and a row whose only twin an
	// earlier match passed stays unmatched.
	p := MustNew([][]int{{0, 1}, {2}, {0, 1}, {1, 2}}, 3, nil)
	q := MustNew([][]int{{1, 2}, {0, 1}, {0, 1}, {2}}, 3, nil)
	if got, want := DeltaBetween(p, q).RowMap, []int{3, -1, -1, -1}; !slices.Equal(got, want) {
		t.Fatalf("RowMap = %v, want %v", got, want)
	}
	q = MustNew([][]int{{0, 1}, {0, 1}, {1, 2}, {0}}, 3, nil)
	if got, want := DeltaBetween(p, q).RowMap, []int{0, 2, 3, -1}; !slices.Equal(got, want) {
		t.Fatalf("RowMap = %v, want %v", got, want)
	}
}

// TestDeltaBetweenAllocs: the matcher allocates its sorted slot slice,
// the row map and the delta, whatever the row count.
func TestDeltaBetweenAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	p := randReduceProblem(rng, 400, 60, 3, false)
	d := editScript(p, []byte{0, 1, 2, 3, 4, 0, 1})
	if n := testing.AllocsPerRun(20, func() { DeltaBetween(p, d.Child) }); n > 3 {
		t.Fatalf("DeltaBetween made %v allocations, want at most 3", n)
	}
}

// TestReplayReduceMatchesCold is the replay bit-exactness contract:
// for random instances, random edit scripts and several worker counts,
// replaying the parent's trace over the delta must reproduce the cold
// reduction of the child exactly — core rows, provenance, essentials
// and flags — and the emitted child trace must keep the property along
// a chain of further edits.
func TestReplayReduceMatchesCold(t *testing.T) {
	defer SetParMinShard(4)()
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 120; trial++ {
		p := randReduceProblem(rng, 35, 30, 3, false)
		_, trace := ReduceTrackedTrace(p, nil, 1+trial%3)
		cur := p
		for gen := 0; gen < 3; gen++ {
			raw := make([]byte, 1+rng.Intn(8))
			rng.Read(raw)
			d := editScript(cur, raw)
			workers := []int{1, 2, 4}[trial%3]
			traces := map[string]*ReduceTrace{}
			for name, dd := range replayDeltas(d) {
				traces[name] = checkReplay(t, "chain "+name, dd, trace, workers)
			}
			// Either trace describes the child; alternate which one
			// seeds the next generation.
			trace = traces[[]string{"matched", "provenance"}[(trial+gen)%2]]
			cur = d.Child
		}
	}
}

// TestReplayReduceStaleTrace: replay must stay exact when the trace is
// outright wrong for the child — here, a trace from an unrelated
// instance.  Every fact fails verification (or verifies by luck, which
// is just as sound) and the fixpoint re-derives the rest.
func TestReplayReduceStaleTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 60; trial++ {
		p := randReduceProblem(rng, 30, 25, 3, false)
		q := randReduceProblem(rng, 30, 25, 3, false)
		_, alien := ReduceTrackedTrace(q, nil, 1)
		raw := make([]byte, 1+rng.Intn(6))
		rng.Read(raw)
		d := editScript(p, raw)
		// Clamp the alien facts into p's index space so they are
		// plausible-but-wrong rather than discarded on bounds.
		for i := range alien.RowKills {
			alien.RowKills[i][0] %= int32(len(p.Rows))
			alien.RowKills[i][1] %= int32(len(p.Rows))
		}
		want, _ := ReduceTrackedTrace(d.Child, nil, 1)
		for name, dd := range replayDeltas(d) {
			got, _ := ReplayReduce(dd, alien, nil, 1)
			sameTracked(t, "stale "+name, got, want)
		}
	}
}

// FuzzDeltaReplay drives the replay equivalence from raw fuzz input: a
// seed picks the base instance, the script bytes pick the edits, and
// the replayed reduction must equal the cold one bit for bit under
// both the content match and the edit's provenance.
func FuzzDeltaReplay(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4})
	f.Add(int64(7), []byte{4, 4, 4})
	f.Add(int64(42), []byte{1, 1, 0, 2, 3, 1})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		rng := rand.New(rand.NewSource(seed))
		p := randReduceProblem(rng, 25, 25, 3, false)
		_, trace := ReduceTrackedTrace(p, nil, 1)
		d := editScript(p, raw)
		for _, workers := range []int{1, 4} {
			want, _ := ReduceTrackedTrace(d.Child, nil, workers)
			for name, dd := range replayDeltas(d) {
				got, _ := ReplayReduce(dd, trace, nil, workers)
				sameTracked(t, "fuzz "+name, got, want)
			}
		}
	})
}
