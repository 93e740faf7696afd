package shard

import (
	"errors"
	"io"
)

// Row-log segment granularity: frames accumulate in a resident buffer,
// and sealed segments beyond the resident cap go to the spill file.
// Frames never straddle segments.  The buffer scales with the memory
// budget (an eighth, clamped) so a small budget is not consumed by the
// log's own buffering.
const (
	minSegSize = 16 << 10
	maxSegSize = 1 << 20
)

// segSizeFor picks the active-buffer size for a byte budget.
func segSizeFor(memBudget int64) int64 {
	s := memBudget / 8
	if s < minSegSize {
		return minSegSize
	}
	if s > maxSegSize {
		return maxSegSize
	}
	return s
}

// rowLog is the append-only log of encoded row frames built while the
// source streams: pass A appends every row, passes B and C scan it
// back (pass C consuming, so resident bytes drain as decoded
// components grow).  Resident segments and the active buffer are
// accounted in the gauge; spilled segments cost only disk.
type rowLog struct {
	spill   *spillFile
	g       *gauge
	resCap  int64 // resident sealed bytes beyond which segments spill
	segSize int64

	segs     []logSeg
	cur      []byte
	curCap   int64
	resident int64
	sealed   bool
}

type logSeg struct {
	mem []byte // nil when the segment lives in the spill file
	off int64
	n   int64
}

func newRowLog(spill *spillFile, g *gauge, resCap, segSize int64) *rowLog {
	l := &rowLog{spill: spill, g: g, resCap: resCap, segSize: segSize, cur: make([]byte, 0, segSize)}
	l.curCap = segSize
	g.add(segSize)
	return l
}

// append encodes one normalized row onto the log.
func (l *rowLog) append(cols []int) error {
	l.cur = appendFrame(l.cur, cols)
	if c := int64(cap(l.cur)); c != l.curCap {
		l.g.add(c - l.curCap)
		l.curCap = c
	}
	if int64(len(l.cur)) >= l.segSize {
		return l.rotate()
	}
	return nil
}

// rotate seals the active buffer into a segment.
func (l *rowLog) rotate() error {
	if len(l.cur) == 0 {
		return nil
	}
	n := int64(len(l.cur))
	if l.resident+n > l.resCap {
		off, err := l.spill.alloc(n)
		if err != nil {
			return err
		}
		if err := l.spill.writeAt(l.cur, off); err != nil {
			return err
		}
		l.segs = append(l.segs, logSeg{off: off, n: n})
	} else {
		seg := make([]byte, n)
		copy(seg, l.cur)
		l.segs = append(l.segs, logSeg{mem: seg, n: n})
		l.resident += n
		l.g.add(n)
	}
	l.cur = l.cur[:0]
	return nil
}

// finish seals the tail and releases the active buffer; the log is
// read-only from here on.
func (l *rowLog) finish() error {
	if err := l.rotate(); err != nil {
		return err
	}
	l.cur = nil
	l.g.add(-l.curCap)
	l.curCap = 0
	l.sealed = true
	return nil
}

// errConsumed reports a scan that reaches a resident segment a
// consuming scan already released.
var errConsumed = errors.New("shard: row-log segment read after a consuming scan")

// scan replays every frame in append order.  With consume set, each
// resident segment is released as soon as it has been fully read, so
// the caller can grow decoded state while the log shrinks; a later
// scan then fails with errConsumed.  Resident segments decode in place,
// spilled ones through one frameWindow-byte window.
func (l *rowLog) scan(consume bool, fn func(cols []int) error) error {
	var buf []int
	var win []byte
	for i := range l.segs {
		seg := &l.segs[i]
		if seg.n < 0 {
			return errConsumed
		}
		fr := frameReader{p: seg.mem}
		if seg.mem == nil {
			if win == nil {
				win = make([]byte, frameWindow)
			}
			fr = regionFrames(l.spill.file(), seg.off, seg.n, win)
		}
		for {
			cols, err := fr.next(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			buf = cols
			if err := fn(cols); err != nil {
				return err
			}
		}
		if consume && seg.mem != nil {
			l.resident -= seg.n
			l.g.add(-seg.n)
			seg.mem = nil
			seg.n = -1 // poison: a consumed segment cannot be re-read
		}
	}
	return nil
}
