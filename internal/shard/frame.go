package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Row frames are the sharded driver's at-rest encoding: a normalized
// (sorted, duplicate-free) row becomes
//
//	uvarint(k)  uvarint(col₀)  uvarint(col₁-col₀) ... uvarint(colₖ₋₁-colₖ₋₂)
//
// — the column count, the first column absolute, then the strictly
// positive gaps.  Frames are self-delimiting, so a log of them needs
// no index, and delta coding keeps a typical sparse row at one to two
// bytes per column.

// appendFrame encodes cols (sorted ascending, no duplicates) onto dst.
func appendFrame(dst []byte, cols []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cols)))
	prev := 0
	for i, c := range cols {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(c))
		} else {
			dst = binary.AppendUvarint(dst, uint64(c-prev))
		}
		prev = c
	}
	return dst
}

// errCorruptFrame tags frames, and spill extents, that do not decode
// to what was written.
var errCorruptFrame = errors.New("shard: corrupt row frame")

// frameWindow caps the buffer a spill-file region is decoded through:
// the 64 KiB a bufio reader holds, which the budget does not track.
const frameWindow = 64 << 10

// frameReader decodes a run of frames from byte slices.  A run in
// memory (a resident log segment) is decoded in place.  A region of
// the spill file is read through win by positioned reads; a frame, or
// a varint, may straddle two fills, so the window never grows with the
// frame.
type frameReader struct {
	r        io.ReaderAt // nil when p holds the whole run
	off, end int64       // the region's bytes not yet read into win
	win      []byte      // at least binary.MaxVarintLen64 bytes, or the whole region
	p        []byte      // read, not yet decoded
}

// regionFrames decodes the n bytes at off in r through win.
func regionFrames(r io.ReaderAt, off, n int64, win []byte) frameReader {
	return frameReader{r: r, off: off, end: off + n, win: win}
}

// fill moves the undecoded bytes to the front of the window and reads
// as many of the region's next bytes as fit behind them.  A region the
// file ends inside is corrupt.
func (fr *frameReader) fill() error {
	n := copy(fr.win, fr.p)
	want := int(min(int64(len(fr.win)-n), fr.end-fr.off))
	got, err := fr.r.ReadAt(fr.win[n:n+want], fr.off)
	fr.off += int64(got)
	fr.p = fr.win[:n+got]
	if got < want {
		if err == io.EOF {
			return fmt.Errorf("%w: the spill file ends %d bytes into a %d-byte read", errCorruptFrame, got, want)
		}
		return fmt.Errorf("shard: spill read: %w", err)
	}
	return nil
}

// next decodes the next frame into buf[:0], or returns io.EOF at the
// end of the run.  A frame cut short, a varint past 64 bits, or a
// count above the bytes left (each column takes at least one) is
// corrupt, and the count is checked before anything grows for it.
func (fr *frameReader) next(buf []int) ([]int, error) {
	if len(fr.p) < binary.MaxVarintLen64 && fr.off < fr.end {
		if err := fr.fill(); err != nil {
			return nil, err
		}
	}
	if len(fr.p) == 0 {
		return nil, io.EOF
	}
	k, n := binary.Uvarint(fr.p)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad column count", errCorruptFrame)
	}
	fr.p = fr.p[n:]
	if left := uint64(len(fr.p)) + uint64(fr.end-fr.off); k > left {
		return nil, fmt.Errorf("%w: %d columns in %d bytes", errCorruptFrame, k, left)
	}
	cols, prev := buf[:0], 0
	for {
		var ok bool
		cols, prev, n, ok = uvarints(fr.p, cols, prev, int(k)-len(cols))
		fr.p = fr.p[n:]
		switch {
		case !ok:
			return nil, fmt.Errorf("%w: column gap overflows", errCorruptFrame)
		case len(cols) == int(k):
			return cols, nil
		case fr.off == fr.end:
			return nil, fmt.Errorf("%w: truncated after %d of %d columns", errCorruptFrame, len(cols), k)
		}
		if err := fr.fill(); err != nil {
			return nil, err
		}
	}
}

// uvarints appends to cols the running sums, from prev, of up to k
// uvarints at the start of p.  It returns the columns, the last sum,
// the bytes read, and false where a varint overflows 64 bits; short of
// that it stops early only where p ends inside a varint.
func uvarints(p []byte, cols []int, prev, k int) ([]int, int, int, bool) {
	i := 0
	for ; k > 0; k-- {
		if i < len(p) && p[i] < 0x80 {
			prev += int(p[i])
			i++
		} else {
			d, m := binary.Uvarint(p[i:])
			if m <= 0 {
				return cols, prev, i, m == 0
			}
			prev += int(d)
			i += m
		}
		cols = append(cols, prev)
	}
	return cols, prev, i, true
}
