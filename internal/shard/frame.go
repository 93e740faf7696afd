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

// readFrame decodes one frame from br into buf[:0].  io.EOF (clean,
// at a frame boundary) is passed through; any other failure comes back
// wrapped in errCorruptFrame.
func readFrame(br io.ByteReader, buf []int) ([]int, error) {
	k, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: %w", errCorruptFrame, err)
	}
	cols := buf[:0]
	prev := 0
	for i := uint64(0); i < k; i++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: truncated: %w", errCorruptFrame, err)
		}
		if i == 0 {
			prev = int(d)
		} else {
			prev += int(d)
		}
		cols = append(cols, prev)
	}
	return cols, nil
}
