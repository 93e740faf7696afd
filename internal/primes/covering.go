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
	b, err := newCoverer(f, d, prs)
	if err != nil {
		return nil, nil, err
	}
	var ids []RowID
	for o := range b.byOut {
		b.paint(o)
		n := b.index()
		for _, w := range b.nz {
			for bw := b.need[w]; bw != 0; bw &= bw - 1 {
				ids = append(ids, RowID{Minterm: uint64(w)<<6 | uint64(bits.TrailingZeros64(bw)), Output: o})
			}
		}
		b.fill(b.byOut[o], n)
	}
	p, err := matrix.FromSortedRows(b.rows(), prs.Len(), columnCosts(prs, cm))
	if err != nil {
		return nil, nil, err
	}
	return p, ids, nil
}

// BuildSplit is BuildCovering split into parts reduced by their
// singleton essentials (matrix.Split), without writing the rows the
// essential primes cover.  Its counting pass records each row's first
// prime and unites every later one with it: a row one prime reaches
// names an essential, and the union-find names the parts.  A second
// sweep repaints each output, clears the minterms of its essential
// primes (one &^= per word) and fills what is left from the others.
func BuildSplit(f, d *cube.Cover, prs *cube.Cover, cm CostModel) (*matrix.Split, error) {
	b, err := newCoverer(f, d, prs)
	if err != nil {
		return nil, err
	}
	sets := matrix.NewColumnSets(prs.Len())
	isEss := make([]bool, prs.Len())
	var first []int32 // per row: its smallest column plus one, 0 while none
	var multi []bool  // per row of the output: a second column reached it
	var ess []int
	for o := range b.byOut {
		b.paint(o)
		n := b.index()
		first = append(first, make([]int32, n)...)
		row := first[len(first)-n:]
		multi = append(multi[:0], make([]bool, n)...)
		for _, p := range b.byOut[o] {
			col := p.col
			b.scatter(p, func(r int) {
				if row[r] == 0 {
					row[r] = int32(col) + 1
					return
				}
				multi[r] = true
				sets.Union(int(row[r])-1, col)
			})
		}
		for r, j := range row {
			if j > 0 && !multi[r] && !isEss[j-1] {
				isEss[j-1] = true
				ess = append(ess, int(j)-1)
			}
		}
	}
	slices.Sort(ess)
	var rest []packedPrime
	for o, ps := range b.byOut {
		b.paint(o)
		rest = rest[:0]
		for _, p := range ps {
			if isEss[p.col] {
				b.set(p, false)
			} else {
				rest = append(rest, p)
			}
		}
		b.fill(rest, b.index())
	}
	return matrix.NewSplit(sets, first, ess, b.rows(), columnCosts(prs, cm)), nil
}

// packedPrime is a prime packed for the covering sweeps: its column,
// the word pattern of its low six inputs, and the fixed values and
// don't-care mask of the higher ones.
type packedPrime struct {
	col            int
	wpat           uint64
	high, highMask uint64
}

// coverer holds the state of the covering sweeps, which visit one
// output at a time: the primes per output, the output's required
// minterms and its row numbering, and the rows written so far.
type coverer struct {
	s      *cube.Space
	f, d   *cube.Cover
	byOut  [][]packedPrime // per output: its primes, ascending column id
	need   []uint64        // the output's required minterms
	prefix []int           // per nonzero word of need: the row of its first required minterm
	nz     []int           // nonzero words of need, ascending
	start  []int           // per written row: its entry count, then its offset in cols
	cols   []int           // shared arena; rows are carved out after it is final
}

func newCoverer(f, d, prs *cube.Cover) (*coverer, error) {
	s := f.S
	n := s.Inputs()
	if n > MaxCoveringInputs {
		return nil, fmt.Errorf("%w: %d inputs exceed %d", ErrCoveringLimit, n, MaxCoveringInputs)
	}
	words := (1<<uint(n) + 63) / 64
	b := &coverer{s: s, f: f, d: d, byOut: make([][]packedPrime, max(s.Outputs(), 1)),
		need: make([]uint64, words), prefix: make([]int, words)}
	// Pack the primes once, bucketed per output (ascending column id).
	for j, pc := range prs.Cubes {
		p, ok := b.pack(pc, j)
		outs, _ := s.PackOutputs(pc)
		if s.Outputs() == 0 {
			outs = 1
		}
		for ; ok && outs != 0; outs &= outs - 1 {
			o := bits.TrailingZeros64(outs)
			b.byOut[o] = append(b.byOut[o], p)
		}
	}
	return b, nil
}

// pack packs cube c as column col; ok is false for an empty input
// part, which covers no minterm.
func (b *coverer) pack(c cube.Cube, col int) (p packedPrime, ok bool) {
	value, mask, ok := b.s.PackInput(c)
	return packedPrime{col: col, wpat: lowPattern(value, mask), high: value &^ 63, highMask: mask &^ 63}, ok
}

// paint sets need to the required minterms of output o: F cubes set
// their minterms, then D cubes clear theirs.
func (b *coverer) paint(o int) {
	clear(b.need)
	for k, cv := range [2]*cube.Cover{b.f, b.d} {
		for i := 0; cv != nil && i < cv.Len(); i++ {
			c := cv.Cubes[i]
			if b.s.Outputs() > 0 && !b.s.Output(c, o) {
				continue
			}
			if p, ok := b.pack(c, -1); ok {
				b.set(p, k == 0)
			}
		}
	}
}

// set sets (on) or clears the minterms of p in need, one word pattern
// per enumerated high submask.
func (b *coverer) set(p packedPrime, on bool) {
	for sub := p.highMask; ; sub = (sub - 1) & p.highMask {
		w := (p.high | sub) >> 6
		if on {
			b.need[w] |= p.wpat
		} else {
			b.need[w] &^= p.wpat
		}
		if sub == 0 {
			return
		}
	}
}

// index lists need's nonzero words and numbers their rows from 0 in
// ascending minterm order, returning the row count.
func (b *coverer) index() int {
	b.nz = b.nz[:0]
	n := 0
	for w, bw := range b.need {
		if bw != 0 {
			b.nz = append(b.nz, w)
			b.prefix[w] = n
			n += bits.OnesCount64(bw)
		}
	}
	return n
}

// scatter calls visit(r) for every row of the current output whose
// minterm lies in prime p, r counted from the output's first row.
func (b *coverer) scatter(p packedPrime, visit func(r int)) {
	hits := func(w int) {
		bw := b.need[w]
		for h := bw & p.wpat; h != 0; h &= h - 1 {
			bit := bits.TrailingZeros64(h)
			visit(b.prefix[w] + bits.OnesCount64(bw&(1<<bit-1)))
		}
	}
	if h := bits.OnesCount64(p.highMask); h < bits.Len(uint(len(b.nz))) {
		// 2^h ≤ len(nz): enumerate the prime's own words.
		for sub := p.highMask; ; sub = (sub - 1) & p.highMask {
			hits(int((p.high | sub) >> 6))
			if sub == 0 {
				break
			}
		}
		return
	}
	for _, w := range b.nz {
		if (uint64(w)<<6^p.high)&^p.highMask == 0 {
			hits(w)
		}
	}
}

// fill writes the current output's n rows from its primes ps: a
// counting pass sizes every row, prefix sums turn the counts into end
// offsets in the arena, and a filling pass over the primes in
// descending column order writes each row back to front, so its
// column ids come out ascending and its cursor ends at its start.
func (b *coverer) fill(ps []packedPrime, n int) {
	base := len(b.start)
	b.start = append(b.start, make([]int, n)...)
	row := b.start[base:]
	for _, p := range ps {
		b.scatter(p, func(r int) { row[r]++ })
	}
	end := len(b.cols)
	for r, k := range row {
		end += k
		row[r] = end
	}
	b.cols = slices.Grow(b.cols, end-len(b.cols))[:end]
	for k := len(ps) - 1; k >= 0; k-- {
		col := ps[k].col
		b.scatter(ps[k], func(r int) {
			row[r]--
			b.cols[row[r]] = col
		})
	}
}

// rows carves the written rows out of the arena.
func (b *coverer) rows() [][]int {
	rows := make([][]int, len(b.start))
	for r, lo := range b.start {
		hi := len(b.cols)
		if r+1 < len(b.start) {
			hi = b.start[r+1]
		}
		rows[r] = b.cols[lo:hi:hi]
	}
	return rows
}

// columnCosts is the cost of every prime under cm.
func columnCosts(prs *cube.Cover, cm CostModel) []int {
	s := prs.S
	cost := make([]int, prs.Len())
	for j, pc := range prs.Cubes {
		switch cm {
		case LiteralCost:
			cost[j] = 1 + s.Inputs() - s.InputWeight(pc)
		default:
			cost[j] = 1
		}
	}
	return cost
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
