// Package shard is the out-of-core component-sharded driver for the
// ZDD_SCG solver: it streams a set-covering instance once (never
// materialising the file), partitions it into connected components
// with a union-find over columns, and solves the components
// largest-first on a worker pool under a global byte budget, spilling
// decoded-but-not-yet-scheduled components to disk and re-admitting
// them on demand.  Each component runs the exact per-part pipeline of
// internal/scg (SolvePart at the canonical part index), and the
// per-component results fold through scg.MergeParts — so a sharded
// solve is bit-identical to the direct scg.Solve of the same instance
// by construction (see DESIGN.md §17).
//
// The byte budget governs the driver's own tracked state: decoded
// component row data, resident row-log segments, the column union-find
// and the cost vector.  It does not bound the transient working memory
// of the per-component solves; a single component larger than the
// whole budget is admitted alone, exceeding the budget by exactly its
// size.
package shard

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"ucp/internal/budget"
	"ucp/internal/matrix"
	"ucp/internal/scg"
)

// ErrInput tags every parse or validation failure of the streamed
// source, so callers can tell malformed instances apart from
// environmental failures (spill-file IO), which pass through
// unwrapped.
var ErrInput = errors.New("shard: malformed input")

func inputErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrInput, err)
}

// comp is one connected component's lifecycle record.
type comp struct {
	id         int   // canonical part index (ascending smallest row)
	rows, nnz  int   //
	frameBytes int64 // encoded size in the spill file / row log
	decBytes   int64 // tracked bytes of the decoded form

	state int // stSpilled | stResident | stRunning | stDone
	off   int64
	wr    int64   // demux write cursor into the spill extent
	data  [][]int // decoded rows, in input row order
}

const (
	stSpilled = iota
	stResident
	stRunning
	stDone
)

// compOverhead is the accounted fixed cost of one comp record.
const compOverhead = 96

// decSize estimates the tracked bytes of a decoded component: slice
// headers plus 8 bytes per nonzero.
func decSize(rows, nnz int) int64 { return int64(rows)*24 + int64(nnz)*8 }

// frameSize is len(appendFrame(nil, cols)) without encoding.
func frameSize(cols []int) int64 {
	n := uvarintLen(uint64(len(cols)))
	prev := 0
	for i, c := range cols {
		if i == 0 {
			n += uvarintLen(uint64(c))
		} else {
			n += uvarintLen(uint64(c - prev))
		}
		prev = c
	}
	return int64(n)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Solve streams the instance from src and solves it under
// opt.MemBudget tracked bytes (≤ 0: unlimited).  The result is
// bit-identical to scg.Solve on the materialised instance, with the
// Stats.Shard* counters filled in.  Errors are parse/validation
// failures of the source or spill-file IO failures.
func Solve(src Source, opt scg.Options) (*scg.Result, error) {
	t0 := time.Now()
	hdr, rr, err := src.Open()
	if err != nil {
		return nil, inputErr(err)
	}
	ncols := hdr.Cols
	if ncols < 0 {
		return nil, inputErr(fmt.Errorf("negative column count %d", ncols))
	}
	cost := hdr.Cost
	if cost == nil {
		cost = make([]int, ncols)
		for j := range cost {
			cost[j] = 1
		}
	}
	if len(cost) != ncols {
		return nil, inputErr(fmt.Errorf("%d costs for %d columns", len(cost), ncols))
	}
	for j, c := range cost {
		if c < 0 {
			return nil, inputErr(fmt.Errorf("column %d has negative cost %d", j, c))
		}
	}
	memBudget := opt.MemBudget
	if memBudget <= 0 {
		memBudget = 1 << 62
	}

	g := &gauge{}
	g.add(8 * int64(ncols)) // cost vector
	g.add(4 * int64(ncols)) // union-find parents
	spill := newSpillFile(opt.SpillDir)
	defer spill.close()

	resCap := (memBudget - g.current()) / 2
	if resCap < 0 {
		resCap = 0
	}
	log := newRowLog(spill, g, resCap, segSizeFor(memBudget))
	pt := newPartitioner(ncols)

	// ----- pass A: stream, normalize, log, union -----
	var scratch []int
	for {
		row, err := rr.Next(scratch)
		if err != nil {
			if err == io.EOF {
				break
			}
			return nil, inputErr(err)
		}
		scratch = row
		norm, err := normalize(row, ncols)
		if err != nil {
			return nil, inputErr(err)
		}
		if !opt.DisablePartition {
			pt.addRow(norm)
		}
		if err := log.append(norm); err != nil {
			return nil, err
		}
	}
	if err := log.finish(); err != nil {
		return nil, err
	}

	// ----- pass B: canonical component assignment and sizes -----
	var comps []*comp
	rootComp := map[int32]*comp{}
	var emptySeq []*comp
	newComp := func() *comp {
		c := &comp{id: len(comps)}
		comps = append(comps, c)
		g.add(compOverhead)
		return c
	}
	assign := func(cols []int) *comp {
		if opt.DisablePartition {
			if len(comps) == 0 {
				return newComp()
			}
			return comps[0]
		}
		if len(cols) == 0 {
			// An uncoverable row is its own singleton component at its
			// canonical position, like matrix.Components reports it.
			c := newComp()
			emptySeq = append(emptySeq, c)
			return c
		}
		root := pt.find(int32(cols[0]))
		c, ok := rootComp[root]
		if !ok {
			c = newComp()
			rootComp[root] = c
		}
		return c
	}
	err = log.scan(false, func(cols []int) error {
		c := assign(cols)
		c.rows++
		c.nnz += len(cols)
		c.frameBytes += frameSize(cols)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(comps) == 0 {
		// A rowless instance still runs one (empty) part, exactly like
		// scg.Solve's connected path on the empty problem.
		newComp()
	}
	for _, c := range comps {
		c.decBytes = decSize(c.rows, c.nnz)
	}

	// ----- residency: largest components stay decoded, the rest get a
	// contiguous extent in the spill file -----
	order := append([]*comp(nil), comps...)
	sort.Slice(order, func(a, b int) bool {
		if order[a].decBytes != order[b].decBytes {
			return order[a].decBytes > order[b].decBytes
		}
		return order[a].id < order[b].id
	})
	decodeCap := memBudget - g.current()
	if decodeCap < 0 {
		decodeCap = 0
	}
	var residentBytes, spillBytes int64
	spilled := 0
	for _, c := range order {
		if residentBytes+c.decBytes <= decodeCap {
			c.state = stResident
			residentBytes += c.decBytes
		} else {
			c.state = stSpilled
			spillBytes += c.frameBytes
			spilled++
		}
	}
	if spillBytes > 0 {
		off, err := spill.alloc(spillBytes)
		if err != nil {
			return nil, err
		}
		for _, c := range order {
			if c.state == stSpilled {
				c.off = off
				off += c.frameBytes
			}
		}
	}

	// ----- pass C: demux rows to decoded residents / spill extents,
	// draining the row log as it goes -----
	emptyIdx := 0
	var frame []byte
	nextRow := func(cols []int) *comp {
		if opt.DisablePartition {
			return comps[0]
		}
		if len(cols) == 0 {
			c := emptySeq[emptyIdx]
			emptyIdx++
			return c
		}
		return rootComp[pt.find(int32(cols[0]))]
	}
	err = log.scan(true, func(cols []int) error {
		c := nextRow(cols)
		if c.state == stResident {
			g.add(decSize(1, len(cols)))
			c.data = append(c.data, append([]int(nil), cols...))
			return nil
		}
		frame = appendFrame(frame[:0], cols)
		if err := spill.writeAt(frame, c.off+c.wr); err != nil {
			return err
		}
		c.wr += int64(len(frame))
		return nil
	})
	if err != nil {
		return nil, err
	}
	pt = nil
	g.add(-4 * int64(ncols)) // union-find released

	// ----- solve the components largest-first -----
	tr := opt.Budget.Tracker()
	prs, sc, err := runScheduler(order, len(comps), cost, ncols, opt, tr, g, spill, memBudget)
	if err != nil {
		return nil, err
	}
	res := scg.MergeParts(prs)
	res.Stats.ShardComponents = len(comps)
	res.Stats.ShardSpilled = spilled
	res.Stats.ShardRespilled = sc.respilled
	res.Stats.ShardDegraded = sc.degraded
	res.Stats.ShardPeakBytes = g.peakBytes()
	if r := tr.Reason(); r != budget.None {
		res.Interrupted = true
		res.StopReason = r
	}
	res.Stats.TotalTime = time.Since(t0)
	return res, nil
}

// SolveProblem runs the sharded driver over an already-materialised
// problem.
func SolveProblem(p *matrix.Problem, opt scg.Options) (*scg.Result, error) {
	return Solve(FromProblem(p), opt)
}

// normalize sorts and deduplicates a row in place and validates the
// column range, mirroring matrix.New.
func normalize(row []int, ncols int) ([]int, error) {
	sort.Ints(row)
	out := row[:0]
	for k, j := range row {
		if j < 0 || j >= ncols {
			return nil, fmt.Errorf("row references column %d outside universe %d", j, ncols)
		}
		if k > 0 && row[k-1] == j {
			continue
		}
		out = append(out, j)
	}
	return out, nil
}
