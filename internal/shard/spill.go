package shard

import (
	"fmt"
	"os"
	"sync"
)

// spillFile is the driver's single scratch file: an append-allocated
// region store, created lazily on the first spill and unlinked
// immediately so it can never outlive the process.  Regions are
// allocated once and accessed with positioned reads/writes, so
// concurrent workers never share a file offset.
type spillFile struct {
	dir string

	mu  sync.Mutex
	f   *os.File
	end int64
}

func newSpillFile(dir string) *spillFile { return &spillFile{dir: dir} }

// alloc reserves n bytes and returns the region's offset.
func (s *spillFile) alloc(n int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		f, err := os.CreateTemp(s.dir, "ucp-shard-*.spill")
		if err != nil {
			return 0, fmt.Errorf("shard: creating spill file: %w", err)
		}
		// Unlink right away: the data is reachable only through the open
		// descriptor and vanishes with the process.
		os.Remove(f.Name())
		s.f = f
	}
	off := s.end
	s.end += n
	return off, nil
}

func (s *spillFile) writeAt(p []byte, off int64) error {
	if _, err := s.f.WriteAt(p, off); err != nil {
		return fmt.Errorf("shard: spill write: %w", err)
	}
	return nil
}

// file exposes the backing descriptor for positioned reads.
// Only valid after an alloc created it.
func (s *spillFile) file() *os.File {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f
}

func (s *spillFile) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// combiner write-combines pass C's spilled frames.  A slab charged to
// the gauge is cut into one equal window per spilled component; a
// window goes to its component's extent in one write when it fills, so
// rows dealt round-robin across components cost one write per window,
// not one per row.  Frames keep their input order within each extent.
type combiner struct {
	spill *spillFile
	g     *gauge
	comps []*comp // spilled components, each owning one window
	slab  int64   // bytes charged for the current cut

	writes, yields int // observed by the tests
}

// cut charges a new slab of at most avail bytes and hands out the
// windows.  Fewer bytes than windows means no slab: every frame is then
// written alone.
func (w *combiner) cut(avail int64) {
	n := int64(len(w.comps))
	if n == 0 || avail < n {
		return
	}
	size := avail / n
	w.slab = size * n
	w.g.add(w.slab)
	buf := make([]byte, w.slab)
	for k, c := range w.comps {
		lo := int64(k) * size
		c.win = buf[lo:lo:(lo + size)]
	}
}

// write appends one frame to c's window, flushing the window first if
// the frame does not fit; a frame wider than the window is written
// alone.
func (w *combiner) write(c *comp, frame []byte) error {
	if len(c.win)+len(frame) > cap(c.win) {
		if err := w.flush(c); err != nil {
			return err
		}
		if len(frame) > cap(c.win) {
			return w.put(c, frame)
		}
	}
	c.win = append(c.win, frame...)
	return nil
}

func (w *combiner) flush(c *comp) error {
	if len(c.win) == 0 {
		return nil
	}
	err := w.put(c, c.win)
	c.win = c.win[:0]
	return err
}

func (w *combiner) put(c *comp, p []byte) error {
	w.writes++
	if err := w.spill.writeAt(p, c.off+c.wr); err != nil {
		return err
	}
	c.wr += int64(len(p))
	return nil
}

// yield makes room for charge more tracked bytes: if they would push
// the gauge past memBudget, every window is flushed and the slab is
// re-cut from the headroom left, down to none.  A re-cut takes at most
// half the old slab, so the rows that follow find slack again and a
// run of resident rows costs a logarithmic number of yields, not one
// per row.
func (w *combiner) yield(charge, memBudget int64) error {
	if w.slab == 0 || w.g.current()+charge <= memBudget {
		return nil
	}
	w.yields++
	old := w.slab
	if err := w.release(); err != nil {
		return err
	}
	w.cut(min(memBudget-w.g.current()-charge, old/2))
	return nil
}

// release flushes every window and returns the slab to the gauge.
func (w *combiner) release() error {
	for _, c := range w.comps {
		if err := w.flush(c); err != nil {
			return err
		}
		c.win = nil
	}
	w.g.add(-w.slab)
	w.slab = 0
	return nil
}

// gauge tracks the driver's accounted bytes — decoded component data,
// resident row-log segments, the write-combining slab, and the fixed
// per-solve overhead — and
// remembers the high-water mark reported as Stats.ShardPeakBytes.
type gauge struct {
	mu   sync.Mutex
	used int64
	peak int64
}

func (g *gauge) add(n int64) {
	g.mu.Lock()
	g.used += n
	if g.used > g.peak {
		g.peak = g.used
	}
	g.mu.Unlock()
}

func (g *gauge) current() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.used
}

func (g *gauge) peakBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}
