package shard

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"ucp/internal/benchmarks"
	"ucp/internal/matrix"
	"ucp/internal/scg"
)

// stripSchedulingStats zeroes the fields exempt from the bit-identity
// contract: timings and the shard scheduling counters.
func stripSchedulingStats(st scg.Stats) scg.Stats {
	st.CyclicCoreTime = 0
	st.TotalTime = 0
	st.ShardComponents = 0
	st.ShardSpilled = 0
	st.ShardRespilled = 0
	st.ShardPeakBytes = 0
	st.ShardDegraded = 0
	return st
}

func requireIdentical(t *testing.T, direct, sharded *scg.Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(direct.Solution, sharded.Solution) {
		t.Fatalf("%s: solution %v != %v", label, sharded.Solution, direct.Solution)
	}
	if direct.Cost != sharded.Cost || direct.LB != sharded.LB || direct.ProvedOptimal != sharded.ProvedOptimal {
		t.Fatalf("%s: cost/LB/proved (%d %v %v) != (%d %v %v)", label,
			sharded.Cost, sharded.LB, sharded.ProvedOptimal, direct.Cost, direct.LB, direct.ProvedOptimal)
	}
	if ds, ss := stripSchedulingStats(direct.Stats), stripSchedulingStats(sharded.Stats); ds != ss {
		t.Fatalf("%s: stats diverged\ndirect  %+v\nsharded %+v", label, ds, ss)
	}
}

// testProblems is a spread of instance shapes: multi-component,
// connected, with empty (uncoverable) rows, and single-row edge cases.
// Under the spilling budgets of TestShardedMatchesDirect, most of
// emptyrows' empty-row components spill, and wide's empty rows split
// the write-combining slab into windows its 40-column frames outgrow.
func testProblems(t *testing.T) map[string]*matrix.Problem {
	t.Helper()
	spec := func(s benchmarks.ComponentSpec) *matrix.Problem {
		p, err := benchmarks.ComponentCovering(s)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return map[string]*matrix.Problem{
		"multi":     spec(benchmarks.ComponentSpec{Seed: 11, Components: 9, RowsPerComp: 14, ColsPerComp: 10, RowDegree: 3, MaxCost: 7}),
		"uneven":    spec(benchmarks.ComponentSpec{Seed: 12, Components: 4, RowsPerComp: 30, ColsPerComp: 12, RowDegree: 4, MaxCost: 5}),
		"wide":      withEmptyRows(spec(benchmarks.ComponentSpec{Seed: 13, Components: 6, RowsPerComp: 16, ColsPerComp: 200, RowDegree: 40, MaxCost: 9}), 1),
		"emptyrows": withEmptyRows(spec(benchmarks.ComponentSpec{Seed: 14, Components: 12, RowsPerComp: 24, ColsPerComp: 10, RowDegree: 3, MaxCost: 4}), 4),
		"connected": benchmarks.RandomCovering(3, 40, 25, 0.15, 6),
		"cyclic":    benchmarks.CyclicCovering(4, 30, 20, 3),
		"singleton": matrix.MustNew([][]int{{0}}, 1, nil),
		"empty":     matrix.MustNew(nil, 3, nil),
	}
}

// withEmptyRows inserts an empty (uncoverable) row after every k-th
// row of p.
func withEmptyRows(p *matrix.Problem, k int) *matrix.Problem {
	var rows [][]int
	for i, r := range p.Rows {
		rows = append(rows, r)
		if i%k == 0 {
			rows = append(rows, nil)
		}
	}
	return matrix.MustNew(rows, p.NCol, p.Cost)
}

// TestShardedMatchesDirect is the differential acceptance test: the
// sharded solve is bit-identical to scg.Solve across Workers 1/2/4/8,
// fully in RAM, with spilling forced by a tiny budget (partitioned or
// not), and at a budget where resident rows make pass C's
// write-combining slab yield, which must keep the tracked peak under
// the budget.
func TestShardedMatchesDirect(t *testing.T) {
	const yieldBudget = 40 << 10
	probs := testProblems(t)
	for _, workers := range []int{1, 2, 4, 8} {
		yields := 0
		for name, p := range probs {
			for _, tc := range []struct {
				budget      int64
				noPartition bool
			}{{1 << 30, false}, {16 << 10, false}, {16 << 10, true}, {yieldBudget, false}} {
				opt := scg.Options{Seed: 7, NumIter: 3, Workers: workers, DisablePartition: tc.noPartition}
				direct := scg.Solve(p, opt)
				opt.MemBudget = tc.budget
				wc := &combiner{}
				res, err := solve(FromProblem(p), opt, wc)
				label := fmt.Sprintf("%s workers=%d budget=%d nopart=%v", name, workers, tc.budget, tc.noPartition)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				requireIdentical(t, direct, res, label)
				if res.Stats.ShardComponents == 0 && len(p.Rows) > 0 {
					t.Fatalf("%s: no components reported", label)
				}
				if tc.budget == yieldBudget {
					yields += wc.yields
					if res.Stats.ShardPeakBytes > tc.budget {
						t.Fatalf("%s: tracked peak %d over budget", label, res.Stats.ShardPeakBytes)
					}
				}
			}
		}
		if yields == 0 {
			t.Fatalf("workers=%d: no write-combining slab yielded at the %d-byte budget", workers, yieldBudget)
		}
	}
}

// TestShardedInfeasible: an uncoverable row surfaces as a nil solution
// at the same canonical fold position as the direct solve.
func TestShardedInfeasible(t *testing.T) {
	p := matrix.MustNew([][]int{{0, 1}, {}, {2}}, 3, nil)
	opt := scg.Options{Seed: 1, MemBudget: 1 << 20}
	direct := scg.Solve(p, scg.Options{Seed: 1})
	res, err := SolveProblem(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Solution != nil || res.Solution != nil {
		t.Fatalf("expected infeasible: direct %v sharded %v", direct.Solution, res.Solution)
	}
	requireIdentical(t, direct, res, "infeasible")
}

// TestShardedSources: the ORLib and matrix-text streaming sources
// produce the same result as the in-memory source.
func TestShardedSources(t *testing.T) {
	spec := benchmarks.ComponentSpec{Seed: 21, Components: 5, RowsPerComp: 12, ColsPerComp: 9, RowDegree: 3, MaxCost: 4}
	p, err := benchmarks.ComponentCovering(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := scg.Options{Seed: 9, MemBudget: 8 << 10}
	want, err := SolveProblem(p, opt)
	if err != nil {
		t.Fatal(err)
	}

	var orl bytes.Buffer
	if err := spec.WriteORLib(&orl); err != nil {
		t.Fatal(err)
	}
	got, err := Solve(ORLib(&orl), opt)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got, "orlib source")

	var mtx bytes.Buffer
	if err := spec.WriteMatrix(&mtx); err != nil {
		t.Fatal(err)
	}
	got, err = Solve(MatrixText(&mtx), opt)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got, "matrix source")
}

// TestShardedUnderBudget is the out-of-core acceptance test: an
// instance whose decoded size is more than 4× the memory budget solves
// to a verified feasible cover while the tracked peak stays under the
// budget.
func TestShardedUnderBudget(t *testing.T) {
	spec := benchmarks.ComponentSpec{Seed: 31, Components: 80, RowsPerComp: 300, ColsPerComp: 40, RowDegree: 4, MaxCost: 6}
	p, err := benchmarks.ComponentCovering(spec)
	if err != nil {
		t.Fatal(err)
	}
	decoded := decSize(len(p.Rows), p.NNZ())
	memBudget := int64(256 << 10)
	if decoded < 4*memBudget {
		t.Fatalf("instance too small for the test: %d decoded bytes vs %d budget", decoded, memBudget)
	}
	opt := scg.Options{Seed: 5, MemBudget: memBudget, Workers: 4}
	res, err := SolveProblem(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution == nil {
		t.Fatal("no cover found")
	}
	if err := verifyCover(p, res.Solution); err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShardPeakBytes > memBudget {
		t.Fatalf("peak tracked bytes %d exceed budget %d", res.Stats.ShardPeakBytes, memBudget)
	}
	if res.Stats.ShardSpilled == 0 {
		t.Fatal("expected spilled components at this budget")
	}
	if res.Stats.ShardComponents != spec.Components {
		t.Fatalf("components %d, want %d", res.Stats.ShardComponents, spec.Components)
	}
	// And it is still the bit-identical answer.
	direct := scg.Solve(p, scg.Options{Seed: 5, Workers: 4})
	requireIdentical(t, direct, res, "under-budget")
}

func verifyCover(p *matrix.Problem, sol []int) error {
	in := make(map[int]bool, len(sol))
	for _, j := range sol {
		in[j] = true
	}
	for i, r := range p.Rows {
		ok := false
		for _, j := range r {
			if in[j] {
				ok = true
				break
			}
		}
		if !ok {
			return &rowUncovered{i}
		}
	}
	return nil
}

type rowUncovered struct{ row int }

func (e *rowUncovered) Error() string { return "row not covered" }

// TestShardedDeadlineDegrades: with an already-expired deadline every
// component completes greedily (the bottom rung of the ladder) and the
// result is still a feasible cover.
func TestShardedDeadlineDegrades(t *testing.T) {
	p, err := benchmarks.ComponentCovering(benchmarks.ComponentSpec{
		Seed: 41, Components: 6, RowsPerComp: 25, ColsPerComp: 10, RowDegree: 3, MaxCost: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the deadline has already passed when the solve starts
	opt := scg.Options{Seed: 2, MemBudget: 1 << 20}
	opt.Budget.Context = ctx
	res, err := SolveProblem(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution == nil {
		t.Fatal("degraded solve must still produce a feasible cover")
	}
	if err := verifyCover(p, res.Solution); err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("interrupted flag not set")
	}
	if res.Stats.ShardDegraded == 0 {
		t.Fatal("expected greedy-degraded components")
	}
}

// TestEvictionRespill drives the scheduler's eviction path directly: a
// spilled high-priority component admitted while a decoded-but-
// unstarted one holds the budget must re-spill the latter.
func TestEvictionRespill(t *testing.T) {
	g := &gauge{}
	spill := newSpillFile(t.TempDir())
	defer spill.close()

	mk := func(id int, rows [][]int, state int) *comp {
		nnz := 0
		var fb int64
		for _, r := range rows {
			nnz += len(r)
			fb += frameSize(r)
		}
		c := &comp{id: id, rows: len(rows), nnz: nnz, frameBytes: fb, decBytes: decSize(len(rows), nnz), state: state}
		if state == stResident {
			c.data = rows
		}
		return c
	}
	big := mk(0, [][]int{{0, 1, 2}, {1, 2, 3}, {0, 3}}, stSpilled)
	small := mk(1, [][]int{{4, 5}}, stResident)
	// Write big's frames where its extent says they are.
	off, err := spill.alloc(big.frameBytes)
	if err != nil {
		t.Fatal(err)
	}
	big.off = off
	var enc []byte
	for _, r := range [][]int{{0, 1, 2}, {1, 2, 3}, {0, 3}} {
		enc = appendFrame(enc, r)
	}
	if err := spill.writeAt(enc, off); err != nil {
		t.Fatal(err)
	}

	s := &sched{order: []*comp{big, small}, g: g, spill: spill}
	s.cond = sync.NewCond(&s.mu)
	s.decodedNow = small.decBytes
	s.decodeCap = big.decBytes + small.decBytes/2 // room for big only after evicting small

	s.mu.Lock()
	if !s.evictLocked() {
		t.Fatal("eviction did not fire")
	}
	s.mu.Unlock()
	if small.state != stSpilled || small.data != nil {
		t.Fatal("evicted component not re-spilled")
	}
	if s.respilled != 1 {
		t.Fatalf("respilled = %d, want 1", s.respilled)
	}
	// The evicted component must round-trip back off disk.
	rows, err := s.loadComp(small)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, [][]int{{4, 5}}) {
		t.Fatalf("re-loaded rows = %v", rows)
	}
	rows, err = s.loadComp(big)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, [][]int{{0, 1, 2}, {1, 2, 3}, {0, 3}}) {
		t.Fatalf("big rows = %v", rows)
	}
}

// TestPassCWriteCombines pins pass C's spill writes: on a round-robin
// instance that spills most components, frames reach the spill file a
// window at a time, far fewer writes than spilled rows, and every
// extent ends exactly full.
func TestPassCWriteCombines(t *testing.T) {
	spec := benchmarks.ComponentSpec{Seed: 11, Components: 60, RowsPerComp: 200, ColsPerComp: 40, RowDegree: 4, MaxCost: 5}
	p, err := benchmarks.ComponentCovering(spec)
	if err != nil {
		t.Fatal(err)
	}
	wc := &combiner{}
	res, err := solve(FromProblem(p), scg.Options{Seed: 5, NumIter: 1, Workers: 1, MemBudget: 256 << 10}, wc)
	if err != nil {
		t.Fatal(err)
	}
	if 2*res.Stats.ShardSpilled < spec.Components {
		t.Fatalf("only %d of %d components spilled", res.Stats.ShardSpilled, spec.Components)
	}
	spilledRows := 0
	for _, c := range wc.comps {
		spilledRows += c.rows
		if c.wr != c.frameBytes {
			t.Fatalf("component %d: %d of %d extent bytes written", c.id, c.wr, c.frameBytes)
		}
	}
	if 20*wc.writes >= spilledRows {
		t.Fatalf("pass C made %d writes for %d spilled rows", wc.writes, spilledRows)
	}
}

// TestLoadCompCorruptExtent: an extent that ends short, or whose frames
// overrun or fall short of the component's nonzeros, comes back from
// loadComp as a corrupt-frame error, never a panic or a short
// component.
func TestLoadCompCorruptExtent(t *testing.T) {
	spill := newSpillFile(t.TempDir())
	defer spill.close()
	var enc []byte
	for _, r := range [][]int{{0, 1, 2}, {1, 2, 3}, {0, 3}} {
		enc = appendFrame(enc, r)
	}
	off, err := spill.alloc(int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	if err := spill.writeAt(enc, off); err != nil {
		t.Fatal(err)
	}
	s := &sched{spill: spill}
	n := int64(len(enc))
	for name, c := range map[string]comp{
		"ends short":       {rows: 4, nnz: 8, frameBytes: n},
		"past end of file": {rows: 4, nnz: 8, frameBytes: n + 16},
		"cut mid-frame":    {rows: 3, nnz: 8, frameBytes: n - 1},
		"overruns nnz":     {rows: 3, nnz: 5, frameBytes: n},
		"short of nnz":     {rows: 3, nnz: 9, frameBytes: n},
	} {
		c.off = off
		if rows, err := s.loadComp(&c); !errors.Is(err, errCorruptFrame) {
			t.Fatalf("%s: got rows %v, err %v; want a corrupt-frame error", name, rows, err)
		}
	}
}

// TestFrameRoundTrip: the binary frame encoding decodes to exactly the
// input across random rows, including empty ones, in place and from a
// region read through windows small enough that frames and varints
// straddle the fills.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var enc []byte
	var rows [][]int
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(12)
		row := make([]int, 0, n)
		c := 0
		for k := 0; k < n; k++ {
			c += 1 + rng.Intn(1<<uint(rng.Intn(20)))
			row = append(row, c)
		}
		rows = append(rows, row)
		enc = appendFrame(enc, row)
		if int64(len(enc)) != sumFrameSizes(rows) {
			t.Fatalf("frameSize disagrees with appendFrame at trial %d", trial)
		}
	}
	file := append(append([]byte("pre"), enc...), "post"...)
	for _, win := range []int{0, binary.MaxVarintLen64, 11, 64, frameWindow} {
		fr := frameReader{p: enc}
		if win > 0 {
			fr = regionFrames(bytes.NewReader(file), 3, int64(len(enc)), make([]byte, min(win, len(enc))))
		}
		for i, want := range rows {
			got, err := fr.next(nil)
			if err != nil {
				t.Fatalf("window %d, frame %d: %v", win, i, err)
			}
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("window %d, frame %d: %v != %v", win, i, got, want)
			}
		}
		if got, err := fr.next(nil); err != io.EOF {
			t.Fatalf("window %d: after the last frame got %v, %v; want io.EOF", win, got, err)
		}
	}
}

// FuzzFrameDecode: arbitrary bytes never panic the frame decoder and
// fail only as corrupt frames, in place or through a region window;
// and a frame followed by arbitrary bytes decodes to its columns,
// consuming exactly its own length.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{0, 1, 2}, []byte{}, uint8(0))
	f.Add([]byte{}, []byte{3, 1, 2, 3}, uint8(1))
	f.Add([]byte{200, 7, 255}, []byte{2, 0x80}, uint8(4))
	f.Add([]byte{1}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, uint8(0))
	f.Add([]byte{9, 9}, []byte{0x80, 0x80, 0x80, 0x80, 0x01, 5}, uint8(2))
	f.Fuzz(func(t *testing.T, gaps, tail []byte, win uint8) {
		// A window of 0 decodes in place; otherwise it spans 11 to 25
		// bytes, or the whole region when that is shorter.
		open := func(data []byte) frameReader {
			if win%16 == 0 {
				return frameReader{p: data}
			}
			w := min(binary.MaxVarintLen64+int(win%16), len(data))
			return regionFrames(bytes.NewReader(data), 0, int64(len(data)), make([]byte, w))
		}
		fr := open(tail)
		for {
			_, err := fr.next(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, errCorruptFrame) {
					t.Fatalf("arbitrary bytes failed with %v, not a corrupt frame", err)
				}
				break
			}
		}

		cols := make([]int, len(gaps))
		c := -1
		for k, g := range gaps {
			c += 1 + int(g)<<(g%24)
			cols[k] = c
		}
		frame := appendFrame(nil, cols)
		fr = open(append(frame, tail...))
		got, err := fr.next(nil)
		if err != nil {
			t.Fatalf("frame of %v: %v", cols, err)
		}
		if !slices.Equal(got, cols) {
			t.Fatalf("decoded %v, want %v", got, cols)
		}
		if left := int64(len(fr.p)) + fr.end - fr.off; left != int64(len(tail)) {
			t.Fatalf("the frame consumed %d bytes, want %d", int64(len(frame)+len(tail))-left, len(frame))
		}
	})
}

// TestFrameCountPastBytes: a frame whose column count exceeds the bytes
// left is corrupt, and rejected before the decoder grows anything for
// it: here 65 536 one-byte columns follow a count of 2⁴⁰, and decoding
// them first would allocate half a megabyte.
func TestFrameCountPastBytes(t *testing.T) {
	data := binary.AppendUvarint(nil, 1<<40)
	data = append(data, make([]byte, 1<<16)...)
	win := make([]byte, frameWindow)
	for _, inPlace := range []bool{true, false} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr := frameReader{p: data}
		if !inPlace {
			fr = regionFrames(bytes.NewReader(data), 0, int64(len(data)), win)
		}
		_, err := fr.next(nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, errCorruptFrame) {
			t.Fatalf("in place %v: got %v, want a corrupt frame", inPlace, err)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown >= 64<<10 {
			t.Fatalf("in place %v: rejecting the frame allocated %d bytes", inPlace, grown)
		}
	}
}

// TestRowLogConsumedScan: every scan replays the whole log, resident
// and spilled segments alike, until a consuming scan releases the
// resident ones; a scan after that fails instead of skipping their
// rows.
func TestRowLogConsumedScan(t *testing.T) {
	g := &gauge{}
	spill := newSpillFile(t.TempDir())
	defer spill.close()
	l := newRowLog(spill, g, 2*minSegSize, minSegSize)
	var want [][]int
	for i := 0; i < 20000; i++ {
		row := []int{i, i + 1 + i%7, i + 300}
		want = append(want, row)
		if err := l.append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.finish(); err != nil {
		t.Fatal(err)
	}
	spilled := 0
	for _, seg := range l.segs {
		if seg.mem == nil {
			spilled++
		}
	}
	if spilled == 0 || spilled == len(l.segs) {
		t.Fatalf("%d of %d segments spilled; want some of each", spilled, len(l.segs))
	}
	for _, consume := range []bool{false, true} {
		var got [][]int
		err := l.scan(consume, func(cols []int) error {
			got = append(got, append([]int(nil), cols...))
			return nil
		})
		if err != nil {
			t.Fatalf("consume=%v: %v", consume, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("consume=%v: scan replayed %d rows, want the %d appended", consume, len(got), len(want))
		}
	}
	if l.resident != 0 || g.current() != 0 {
		t.Fatalf("after the consuming scan: %d resident, %d tracked bytes", l.resident, g.current())
	}
	if err := l.scan(true, func([]int) error { return nil }); !errors.Is(err, errConsumed) {
		t.Fatalf("second consuming scan returned %v, want errConsumed", err)
	}
}

func sumFrameSizes(rows [][]int) int64 {
	var n int64
	for _, r := range rows {
		n += frameSize(r)
	}
	return n
}

// TestShardedMalformedSources: parse failures stream back as errors
// with line numbers, not panics or partial results.
func TestShardedMalformedSources(t *testing.T) {
	if _, err := Solve(ORLib(bytes.NewReader([]byte("2 2\n1 1\n1 9\n"))), scg.Options{MemBudget: 1 << 20}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, err := Solve(MatrixText(bytes.NewReader([]byte("p 2 2\nr 0\n"))), scg.Options{MemBudget: 1 << 20}); err == nil {
		t.Fatal("row count mismatch accepted")
	}
	if _, err := Solve(MatrixText(bytes.NewReader([]byte("p 1 2\nr 7\n"))), scg.Options{MemBudget: 1 << 20}); err == nil {
		t.Fatal("column outside universe accepted")
	}
}

// FuzzShardedMatchesDirect: over random component shapes with injected
// empty rows, budgets from 1 KiB to 1 MiB, Workers 1-4 and
// DisablePartition, the sharded solve stays bit-identical to scg.Solve.
func FuzzShardedMatchesDirect(f *testing.F) {
	f.Add(int64(11), uint8(9), uint8(14), uint8(10), uint8(3), uint8(7), uint8(0), uint32(15<<10), uint8(0), false)
	f.Add(int64(14), uint8(12), uint8(24), uint8(10), uint8(3), uint8(4), uint8(4), uint32(23<<10), uint8(1), false)
	f.Add(int64(13), uint8(6), uint8(16), uint8(15), uint8(7), uint8(9), uint8(1), uint32(39<<10), uint8(3), false)
	f.Add(int64(12), uint8(4), uint8(30), uint8(12), uint8(4), uint8(5), uint8(2), uint32(3<<10), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, comps, rows, cols, degree, maxCost, emptyEvery uint8, budget uint32, workers uint8, noPartition bool) {
		spec := benchmarks.ComponentSpec{
			Seed:        seed,
			Components:  1 + int(comps%16),
			RowsPerComp: 1 + int(rows%32),
			ColsPerComp: 1 + int(cols%16),
			MaxCost:     int(maxCost % 10),
		}
		spec.RowDegree = 1 + int(degree)%spec.ColsPerComp
		p, err := benchmarks.ComponentCovering(spec)
		if err != nil {
			t.Fatal(err)
		}
		if emptyEvery%8 != 0 {
			p = withEmptyRows(p, int(emptyEvery%8))
		}
		opt := scg.Options{Seed: seed, NumIter: 2, Workers: 1 + int(workers%4), DisablePartition: noPartition}
		direct := scg.Solve(p, opt)
		opt.MemBudget = 1<<10 + int64(budget)%(1<<20-1<<10+1)
		res, err := SolveProblem(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, direct, res, fmt.Sprintf("%+v empty every %d, budget %d", spec, emptyEvery%8, opt.MemBudget))
	})
}
