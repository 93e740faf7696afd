package shard

import (
	"bufio"
	"io"
	"runtime"
	"sort"
	"sync"

	"ucp/internal/budget"
	"ucp/internal/greedy"
	"ucp/internal/matrix"
	"ucp/internal/scg"
)

// sched runs the per-component solves largest-first on a worker pool,
// admitting spilled components under the byte budget and evicting
// decoded-but-not-yet-started ones (smallest first) when a
// higher-priority component needs the room.
type sched struct {
	mu   sync.Mutex
	cond *sync.Cond

	order      []*comp // schedule: decBytes desc, canonical id asc
	next       int
	decodedNow int64 // decoded component bytes currently held
	decodeCap  int64 // budget available to decoded components
	err        error

	g     *gauge
	spill *spillFile

	respilled int
	degraded  int
}

// runScheduler solves every component and returns the per-part
// results in canonical order.
func runScheduler(order []*comp, ncomps int, cost []int, ncols int, opt scg.Options, tr *budget.Tracker, g *gauge, spill *spillFile, memBudget int64) ([]*scg.PartResult, *sched, error) {
	s := &sched{order: order, g: g, spill: spill}
	s.cond = sync.NewCond(&s.mu)
	if ncomps == 0 {
		return nil, s, nil
	}
	for _, c := range order {
		if c.state == stResident {
			s.decodedNow += c.decBytes
		}
	}
	s.decodeCap = memBudget - (g.current() - s.decodedNow)
	if s.decodeCap < 0 {
		s.decodeCap = 0
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outer := workers
	if outer > ncomps {
		outer = ncomps
	}
	inner := workers / outer
	if inner < 1 {
		inner = 1
	}
	innerOpt := opt
	innerOpt.Workers = inner
	innerOpt.OnImprove = nil
	innerOpt.Cache = nil
	innerOpt.MemBudget = 0
	innerOpt.SpillDir = ""

	prs := make([]*scg.PartResult, ncomps)
	var wg sync.WaitGroup
	for w := 0; w < outer; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker(prs, ncomps, cost, ncols, innerOpt, tr)
		}()
	}
	wg.Wait()
	if s.err != nil {
		return nil, s, s.err
	}
	return prs, s, nil
}

func (s *sched) worker(prs []*scg.PartResult, ncomps int, cost []int, ncols int, opt scg.Options, tr *budget.Tracker) {
	for {
		s.mu.Lock()
		if s.err != nil || s.next >= len(s.order) {
			s.mu.Unlock()
			return
		}
		c := s.order[s.next]
		s.next++
		if c.state == stSpilled {
			// Admit under the budget: evict decoded-but-unstarted
			// components (they are all lower priority than c), then wait
			// for running ones to release.  A component larger than the
			// whole budget is admitted alone.
			for s.decodedNow > 0 && s.decodedNow+c.decBytes > s.decodeCap {
				if !s.evictLocked() {
					s.cond.Wait()
					if s.err != nil {
						s.mu.Unlock()
						return
					}
				}
			}
			s.decodedNow += c.decBytes
			s.g.add(c.decBytes)
			c.state = stRunning
			s.mu.Unlock()
			data, err := s.loadComp(c)
			if err != nil {
				s.fail(err)
				return
			}
			c.data = data
		} else {
			c.state = stRunning
			s.mu.Unlock()
		}

		pr, degraded := solveComp(c, ncomps, cost, ncols, opt, tr)

		s.mu.Lock()
		prs[c.id] = pr
		c.state = stDone
		c.data = nil
		s.decodedNow -= c.decBytes
		s.g.add(-c.decBytes)
		if degraded {
			s.degraded++
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

func (s *sched) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// evictLocked re-spills the lowest-priority decoded-but-unstarted
// component.  Called with s.mu held; does spill IO under the lock.
func (s *sched) evictLocked() bool {
	for i := len(s.order) - 1; i >= s.next; i-- {
		c := s.order[i]
		if c.state != stResident {
			continue
		}
		off, err := s.spill.alloc(c.frameBytes)
		if err != nil {
			s.err = err
			return false
		}
		if err := s.writeFrames(c.data, off); err != nil {
			s.err = err
			return false
		}
		c.off = off
		c.state = stSpilled
		c.data = nil
		s.decodedNow -= c.decBytes
		s.g.add(-c.decBytes)
		s.respilled++
		return true
	}
	return false
}

// writeFrames encodes rows and writes them contiguously at off.
func (s *sched) writeFrames(rows [][]int, off int64) error {
	buf := make([]byte, 0, 64<<10)
	cur := off
	for _, r := range rows {
		buf = appendFrame(buf, r)
		if len(buf) >= 64<<10 {
			if err := s.spill.writeAt(buf, cur); err != nil {
				return err
			}
			cur += int64(len(buf))
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		return s.spill.writeAt(buf, cur)
	}
	return nil
}

// loadComp reads a spilled component's extent back into decoded rows.
func (s *sched) loadComp(c *comp) ([][]int, error) {
	br := bufio.NewReaderSize(io.NewSectionReader(s.spill.file(), c.off, c.frameBytes), 64<<10)
	rows := make([][]int, 0, c.rows)
	for len(rows) < c.rows {
		cols, err := readFrame(br, nil)
		if err != nil {
			return nil, err
		}
		rows = append(rows, append([]int(nil), cols...))
	}
	return rows, nil
}

// solveComp runs one component through the identical per-part pipeline
// scg.Solve uses, scg.SolvePart at the canonical part index (which
// compacts the component's columns exactly when the instance has more
// than one).  A component dispatched after the budget already ran out
// degrades straight to the greedy bottom rung of the deadline ladder
// instead of grinding through the reduced pipeline.
func solveComp(c *comp, ncomps int, cost []int, ncols int, opt scg.Options, tr *budget.Tracker) (*scg.PartResult, bool) {
	prob := &matrix.Problem{Rows: c.data, NCol: ncols, Cost: cost}
	if tr.Interrupted() {
		return greedyPart(prob, tr), true
	}
	return scg.SolvePart(prob, c.id, ncomps, opt, tr), false
}

// greedyPart completes a late component with the Chvátal greedy (which
// under an exhausted budget itself degrades to cheapest-column
// completion), yielding a feasible cover with a trivial lower bound.
func greedyPart(prob *matrix.Problem, tr *budget.Tracker) *scg.PartResult {
	sub, ids := prob.CompactSparse()
	sol, _, err := greedy.Solve(sub, tr)
	if err != nil {
		return &scg.PartResult{} // uncoverable row: Solution stays nil
	}
	mapped := make([]int, len(sol))
	for k, j := range sol {
		mapped[k] = ids[j]
	}
	sort.Ints(mapped)
	return &scg.PartResult{Solution: mapped, Cost: prob.CostOf(mapped)}
}
