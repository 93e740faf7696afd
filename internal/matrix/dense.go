package matrix

import (
	"sort"
	"sync/atomic"

	"ucp/internal/bitmat"
	"ucp/internal/budget"
)

// Thresholds for choosing the dense bit-matrix reduction engine,
// calibrated with `make bench` on the cyclic-covering substrate
// benches (see DESIGN.md §8).  The dense engine pays a build of
// O(nnz + bits/64) and then does every dominance test in words; the
// sparse engine pays a merge over sorted []int per test.  Dense wins
// whenever the word strips are short relative to the average row, and
// its memory (two orientations) must stay bounded.
const (
	denseMinRows = 4       // below this the build outweighs the passes
	denseMaxRows = 8192    // O(R²·words) row dominance must stay sane
	denseMaxCols = 8192    // same for column dominance
	denseMaxBits = 1 << 23 // ≤ 1 MiB per orientation
	// Dense needs ⌈cols/64⌉ words per subset test where sparse needs
	// ~avgRowLen int compares: require rows·cols ≤ factor·nnz, i.e.
	// cols ≤ factor·avgRowLen, so ultra-sparse wide matrices stay on
	// the sparse path.
	denseDensityFactor = 256
)

// reduceOverride forces an engine in tests: 0 auto, 1 sparse, 2 dense.
var reduceOverride int

// DenseEligible reports whether the dense bit-matrix engine should
// carry this problem's reductions.  The decision counts active columns
// (the dense engine compacts the column universe first), so a problem
// with a huge sparse id space but few live columns still qualifies.
func DenseEligible(p *Problem) bool {
	nr := len(p.Rows)
	if nr < denseMinRows || nr > denseMaxRows {
		return false
	}
	seen := make([]bool, p.NCol)
	nnz, nact := 0, 0
	for _, r := range p.Rows {
		nnz += len(r)
		for _, j := range r {
			if !seen[j] {
				seen[j] = true
				nact++
			}
		}
	}
	if nact == 0 || nact > denseMaxCols {
		return false
	}
	bits := nr * nact
	return bits <= denseMaxBits && bits <= denseDensityFactor*nnz
}

// denseReducer runs the essential / row-dominance / column-dominance
// fixpoint on a bit-matrix with the column universe compacted to the
// active columns.  Every pass mirrors the sparse engine exactly —
// same visit orders, same tie-breaks — so the two engines produce
// identical cores, essentials and row origins (the differential tests
// in dense_test.go hold them to that).
type denseReducer struct {
	bm       *bitmat.Matrix
	colID    []int // compact id -> original column id
	cost     []int // cost per compact id
	rowLen   []int
	colLen   []int
	aliveRow []bool
	nAlive   int
}

func newDenseReducer(p *Problem) *denseReducer {
	active := p.ActiveCols()
	idx := make([]int32, p.NCol)
	for k, j := range active {
		idx[j] = int32(k)
	}
	nr, nc := len(p.Rows), len(active)
	d := &denseReducer{
		bm:       bitmat.New(nr, nc),
		colID:    active,
		cost:     make([]int, nc),
		rowLen:   make([]int, nr),
		colLen:   make([]int, nc),
		aliveRow: make([]bool, nr),
		nAlive:   nr,
	}
	for k, j := range active {
		d.cost[k] = p.Cost[j]
	}
	for i, r := range p.Rows {
		d.aliveRow[i] = true
		d.rowLen[i] = len(r)
		for _, j := range r {
			k := int(idx[j])
			d.bm.SetBit(i, k)
			d.colLen[k]++
		}
	}
	return d
}

func (d *denseReducer) killRow(i int) {
	d.bm.Row(i).Range(func(j int) bool {
		d.colLen[j]--
		return true
	})
	d.bm.KillRow(i)
	d.rowLen[i] = 0
	d.aliveRow[i] = false
	d.nAlive--
}

func (d *denseReducer) killCol(j int) {
	d.bm.Col(j).Range(func(i int) bool {
		d.rowLen[i]--
		return true
	})
	d.bm.KillCol(j)
	d.colLen[j] = 0
}

// decode rebuilds a sparse Problem (original column ids, original row
// order) from the surviving bits, with row provenance.
func (d *denseReducer) decode(p *Problem) (*Problem, []int) {
	core := &Problem{NCol: p.NCol, Cost: append([]int(nil), p.Cost...)}
	var origin []int
	for i := range d.aliveRow {
		if !d.aliveRow[i] {
			continue
		}
		row := make([]int, 0, d.rowLen[i])
		d.bm.Row(i).Range(func(j int) bool {
			row = append(row, d.colID[j])
			return true
		})
		core.Rows = append(core.Rows, row)
		origin = append(origin, i)
	}
	return core, origin
}

// denseReduce is the bit-matrix implementation of reduce's
// fixpoint loop.  It fills res and returns; the caller sorts
// res.Essential.  Both dominance passes gather kill marks against
// immutable pass-start state — the kill sets are order-independent,
// see the sparse dropSupersetRows / dropDominatedCols for the
// argument — so they shard across workers and stay bit-identical to
// the sequential engine for any worker count.  The word-strip folds
// (bitmat.Vec.Fold) serve as the 64-bit occupancy signatures,
// recomputed exactly per pass since the matrix is frozen during each
// gather.
func denseReduce(p *Problem, tr *budget.Tracker, res *Reduction, workers int) {
	d := newDenseReducer(p)
	nr, nc := d.bm.NRows, d.bm.NCols
	ess := make([]bool, nc)
	dead := make([]bool, nc)
	scratch := make([]int, 0, nr)
	order := make([]int, 0, nr)
	active := make([]int, 0, nc)
	rowSig := make([]uint64, nr)
	colSig := make([]uint64, nc)
	kill := make([]bool, nr)

	for {
		if tr.Interrupted() {
			res.Stopped = true
			break
		}
		changed := false

		// Empty rows mean infeasibility.
		for i := 0; i < nr; i++ {
			if d.aliveRow[i] && d.rowLen[i] == 0 {
				res.Infeasible = true
				res.Core, res.RowOrigin = d.decode(p)
				return
			}
		}

		// Essential columns: any row covered by a single column.
		scratch = scratch[:0] // essential compact ids, first-seen order
		for i := 0; i < nr; i++ {
			if d.aliveRow[i] && d.rowLen[i] == 1 {
				j := d.bm.Row(i).First()
				if !ess[j] {
					ess[j] = true
					scratch = append(scratch, j)
					res.Essential = append(res.Essential, d.colID[j])
				}
			}
		}
		if len(scratch) > 0 {
			changed = true
			for _, j := range scratch {
				// Collect then kill: KillRow mutates the column view.
				rows := d.bm.Col(j).Bits(order[:0])
				for _, i := range rows {
					d.killRow(i)
				}
			}
		}

		// Row dominance: keep only inclusion-minimal rows.  Candidates
		// sort by (popcount, index) exactly like the sparse engine; row
		// b dies iff some earlier candidate is a subset of it.
		order = order[:0]
		for i := 0; i < nr; i++ {
			if d.aliveRow[i] {
				order = append(order, i)
			}
		}
		sortByLenThenIdx(order, d.rowLen)
		for _, i := range order {
			rowSig[i] = d.bm.Row(i).Fold()
			kill[i] = false
		}
		var nKill atomic.Int64
		parShard(len(order), workers, func(lo, hi int) {
			kills := 0
			for bi := lo; bi < hi; bi++ {
				b := order[bi]
				rowB, sb := d.bm.Row(b), rowSig[b]
				for _, a := range order[:bi] {
					if rowSig[a]&^sb != 0 {
						continue
					}
					if d.bm.Row(a).SubsetOf(rowB) {
						kill[b] = true
						kills++
						break
					}
				}
			}
			if kills > 0 {
				nKill.Add(int64(kills))
			}
		})
		if nKill.Load() > 0 {
			changed = true
			for _, b := range order {
				if kill[b] {
					d.killRow(b)
				}
			}
		}

		// Column dominance: drop column k when some other column j
		// covers every row k covers at no greater cost.
		active = active[:0]
		for j := 0; j < nc; j++ {
			dead[j] = false
			if d.colLen[j] > 0 {
				active = append(active, j)
				colSig[j] = d.bm.Col(j).Fold()
			}
		}
		var nDead atomic.Int64
		parShard(len(active), workers, func(lo, hi int) {
			kills := 0
			for ki := lo; ki < hi; ki++ {
				k := active[ki]
				colK := d.bm.Col(k)
				sk, costK, lenK := colSig[k], d.cost[k], d.colLen[k]
				for _, j := range active {
					if j == k || d.cost[j] > costK {
						continue
					}
					if sk&^colSig[j] != 0 || lenK > d.colLen[j] {
						continue
					}
					if !colK.SubsetOf(d.bm.Col(j)) {
						continue
					}
					// Equal coverage and cost: keep the smaller id (compact
					// order preserves original id order).
					if lenK == d.colLen[j] && d.cost[j] == costK && j > k {
						continue
					}
					dead[k] = true
					kills++
					break
				}
			}
			if kills > 0 {
				nDead.Add(int64(kills))
			}
		})
		if nDead.Load() > 0 {
			changed = true
			for _, k := range active {
				if dead[k] {
					d.killCol(k)
				}
			}
		}

		if !changed {
			break
		}
	}
	res.Core, res.RowOrigin = d.decode(p)
}

// sortByLenThenIdx sorts row indices by (length ascending, index
// ascending) — the same visit order the sparse engine uses.
func sortByLenThenIdx(order []int, length []int) {
	sort.Slice(order, func(a, b int) bool {
		la, lb := length[order[a]], length[order[b]]
		if la != lb {
			return la < lb
		}
		return order[a] < order[b]
	})
}
