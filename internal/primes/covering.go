package primes

import (
	"fmt"
	"math/bits"
	"slices"

	"ucp/internal/cube"
	"ucp/internal/matrix"
)

// BuildCovering constructs the unate covering problem for the function
// (f care ON-set, d don't-care set) over the given prime cover: one
// row per ON-minterm not excused by d, one column per prime.  It
// returns the problem plus the row identities (for reporting).
//
// The construction streams, one output at a time.  The required
// minterms are collected into one reusable 2^n-bit set (F cubes set
// bits, D cubes clear them, both via packed (value, mask) submask
// enumeration with a word-fill fast path over the low six inputs), and
// rows are numbered in ascending minterm order: with per-word prefix
// popcounts, minterm (w, b) is row prefix[w] + popcount(need[w] &
// (1<<b − 1)).  The incidences are scattered per prime rather than
// tested per minterm: a prime visits its required minterms word by
// word — the pattern of its low six inputs ANDed with need[w] — over
// either its own 2^(high don't-cares) words or the output's nonzero
// need words, whichever list is shorter, so a prime never costs more
// than the output has rows.  A counting pass sizes every row, prefix
// sums turn the counts into end offsets in one flat arena, and a
// filling pass over the primes in descending column order writes each
// row back to front, so its column ids come out ascending.  No
// per-minterm cube is allocated and no map is built; the row order
// (output-major, minterm-ascending) and contents are bit-identical to
// the ones the original map-and-cube-containment construction
// produced.
//
// Functions with more than MaxCoveringInputs inputs fail with an error
// matching ErrCoveringLimit.
func BuildCovering(f, d *cube.Cover, prs *cube.Cover, cm CostModel) (*matrix.Problem, []RowID, error) {
	s := f.S
	n := s.Inputs()
	if n > MaxCoveringInputs {
		return nil, nil, fmt.Errorf("%w: %d inputs exceed %d", ErrCoveringLimit, n, MaxCoveringInputs)
	}
	nOut := s.Outputs()
	if nOut == 0 {
		nOut = 1
	}

	// Pack the primes once, bucketed per output (ascending column id):
	// the word pattern of the low six inputs, and the fixed values and
	// don't-care mask of the higher ones.
	type packedPrime struct {
		col            int
		wpat           uint64
		high, highMask uint64
	}
	byOut := make([][]packedPrime, nOut)
	for j, pc := range prs.Cubes {
		value, mask, ok := s.PackInput(pc)
		if !ok {
			continue // empty input part: covers no minterm
		}
		p := packedPrime{col: j, wpat: lowPattern(value, mask), high: value &^ 63, highMask: mask &^ 63}
		if s.Outputs() == 0 {
			byOut[0] = append(byOut[0], p)
			continue
		}
		outs, _ := s.PackOutputs(pc)
		for outs != 0 {
			o := bits.TrailingZeros64(outs)
			outs &^= 1 << o
			byOut[o] = append(byOut[o], p)
		}
	}

	words := (1<<uint(n) + 63) / 64
	need := make([]uint64, words)
	prefix := make([]int, words) // per nonzero word: the row of its first required minterm
	var nz []int                 // nonzero words of need, ascending

	// paint sets (on=true) or clears (on=false) the minterms of c in
	// the bit set, one word pattern per enumerated high submask.
	paint := func(c cube.Cube, o int, on bool) {
		if s.Outputs() > 0 && !s.Output(c, o) {
			return
		}
		value, mask, ok := s.PackInput(c)
		if !ok {
			return // empty part: no minterms
		}
		wpat := lowPattern(value, mask)
		maskHigh := mask &^ 63
		valueHigh := value &^ 63
		for sub := maskHigh; ; sub = (sub - 1) & maskHigh {
			w := (valueHigh | sub) >> 6
			if on {
				need[w] |= wpat
			} else {
				need[w] &^= wpat
			}
			if sub == 0 {
				break
			}
		}
	}

	// scatter calls visit(r) for every row of the current output whose
	// minterm lies in prime p, r counted from the output's first row.
	scatter := func(p packedPrime, visit func(r int)) {
		hits := func(w int) {
			bw := need[w]
			for h := bw & p.wpat; h != 0; h &= h - 1 {
				b := bits.TrailingZeros64(h)
				visit(prefix[w] + bits.OnesCount64(bw&(1<<b-1)))
			}
		}
		if h := bits.OnesCount64(p.highMask); h < bits.Len(uint(len(nz))) {
			// 2^h ≤ len(nz): enumerate the prime's own words.
			for sub := p.highMask; ; sub = (sub - 1) & p.highMask {
				hits(int((p.high | sub) >> 6))
				if sub == 0 {
					break
				}
			}
			return
		}
		for _, w := range nz {
			if (uint64(w)<<6^p.high)&^p.highMask == 0 {
				hits(w)
			}
		}
	}

	var (
		ids   []RowID
		start []int // per row: its entry count, then its offset in cols
		cols  []int // shared arena; rows are carved out after it is final
	)
	for o := 0; o < nOut; o++ {
		clear(need)
		for _, c := range f.Cubes {
			paint(c, o, true)
		}
		if d != nil {
			for _, c := range d.Cubes {
				paint(c, o, false)
			}
		}
		base := len(ids)
		nz = nz[:0]
		for w, bw := range need {
			if bw == 0 {
				continue
			}
			nz = append(nz, w)
			prefix[w] = len(ids) - base
			for ; bw != 0; bw &= bw - 1 {
				b := bits.TrailingZeros64(bw)
				ids = append(ids, RowID{Minterm: uint64(w)<<6 | uint64(b), Output: o})
			}
		}
		start = append(start, make([]int, len(ids)-base)...)
		row := start[base:]
		ps := byOut[o]
		for _, p := range ps {
			scatter(p, func(r int) { row[r]++ })
		}
		// Counts become end offsets; filling back to front from the
		// last prime leaves each row ascending and its cursor at its
		// start.
		end := len(cols)
		for r, k := range row {
			end += k
			row[r] = end
		}
		cols = slices.Grow(cols, end-len(cols))[:end]
		for k := len(ps) - 1; k >= 0; k-- {
			col := ps[k].col
			scatter(ps[k], func(r int) {
				row[r]--
				cols[row[r]] = col
			})
		}
	}
	rows := make([][]int, len(ids))
	for r, lo := range start {
		hi := len(cols)
		if r+1 < len(start) {
			hi = start[r+1]
		}
		rows[r] = cols[lo:hi:hi]
	}

	cost := make([]int, prs.Len())
	for j, pc := range prs.Cubes {
		switch cm {
		case LiteralCost:
			cost[j] = 1 + s.Inputs() - s.InputWeight(pc)
		default:
			cost[j] = 1
		}
	}
	p, err := matrix.FromSortedRows(rows, prs.Len(), cost)
	if err != nil {
		return nil, nil, err
	}
	return p, ids, nil
}

// lowPattern folds the low six input variables of a packed cube into
// one word: bit b is set when a minterm whose low six bits are b agrees
// with the cube on those inputs.
func lowPattern(value, mask uint64) uint64 {
	maskLow := mask & 63
	var wpat uint64
	for sub := maskLow; ; sub = (sub - 1) & maskLow {
		wpat |= 1 << (value&63 | sub)
		if sub == 0 {
			return wpat
		}
	}
}
