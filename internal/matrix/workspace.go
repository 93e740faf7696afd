package matrix

import (
	"slices"
	"sort"
)

// Workspace holds the scratch buffers of the irredundant-cover
// kernels, so the greedy heuristic — which runs a cleanup after every
// build, hundreds of times per subgradient phase — can reuse them
// instead of re-allocating.  Buffers grow to high-water marks and are
// never shrunk.  A Workspace is single-owner state: it must not be
// shared between goroutines, and the slice IrredundantUniqueWs returns
// is backed by the workspace, valid only until its next use.
type Workspace struct {
	coverCnt []int32
	order    []int32
	keys     []int64
	removed  []bool
	first    []bool
	out      []int
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// removalOrder fills ws.order with 0..len(cols)-1 sorted by (cost
// descending, position ascending) — the paper's drop-most-expensive-
// first order.  The comparator is total, so any correct sort yields
// the same sequence; the fast path packs (cost, position) into one
// int64 key and sorts without a comparator closure, falling back to
// sort.Slice only for costs too large to pack.
func removalOrder(ws *Workspace, cols []int, cost []int) []int32 {
	n := len(cols)
	ws.order = growI32(ws.order, n)
	const maxPack = 1<<31 - 1
	packable := true
	for _, j := range cols {
		if cost[j] > maxPack {
			packable = false
			break
		}
	}
	if !packable { // pathological costs: correctness over allocations
		for k := range ws.order {
			ws.order[k] = int32(k)
		}
		sort.Slice(ws.order, func(a, b int) bool {
			ka, kb := ws.order[a], ws.order[b]
			ca, cb := cost[cols[ka]], cost[cols[kb]]
			if ca != cb {
				return ca > cb
			}
			return ka < kb
		})
		return ws.order
	}
	ws.keys = growI64(ws.keys, n)
	for k, j := range cols {
		ws.keys[k] = (int64(maxPack-cost[j]) << 32) | int64(k)
	}
	slices.Sort(ws.keys)
	for k, key := range ws.keys {
		ws.order[k] = int32(key & 0xffffffff)
	}
	return ws.order
}

// IrredundantUniqueWs is Irredundant against caller-owned scratch, for
// callers that guarantee cols holds no duplicate column — the greedy
// kernel, whose solutions list each column at most once by
// construction (an added column covers all its rows, so it can never
// be a candidate again).  It makes the identical removals in the
// identical order, but every buffer (including the returned slice)
// lives in ws; the result is valid until the next use of ws, and
// callers that keep it must copy.  Skipping the duplicate scan saves
// an O(ncols) clear per call on a path that runs after every greedy
// build.
//
// Column row sets come from the problem's CSC mirror, so the whole
// cleanup touches only the selected columns' entries — O(Σ|col_j|) for
// j in cols — never the full matrix.
func (p *Problem) IrredundantUniqueWs(ws *Workspace, cols []int) []int {
	return p.irredundantWs(ws, cols, false)
}

func (p *Problem) irredundantWs(ws *Workspace, cols []int, dedup bool) []int {
	start, idx := p.CSC()
	ws.removed = growBool(ws.removed, len(cols))
	removed := ws.removed
	for k := range removed {
		removed[k] = false
	}
	ws.coverCnt = growI32(ws.coverCnt, len(p.Rows))
	coverCnt := ws.coverCnt
	for i := range coverCnt {
		coverCnt[i] = 0
	}
	if dedup {
		ws.first = growBool(ws.first, p.NCol)
		first := ws.first
		for j := range first {
			first[j] = false
		}
		for k, j := range cols {
			if first[j] {
				// A duplicate owns no rows (its first occurrence does), so
				// it is trivially redundant: dropping it decrements no
				// counts, which is exactly what visiting it in removal
				// order would do.
				removed[k] = true
				continue
			}
			first[j] = true
			for _, i := range idx[start[j]:start[j+1]] {
				coverCnt[i]++
			}
		}
	} else {
		for _, j := range cols {
			for _, i := range idx[start[j]:start[j+1]] {
				coverCnt[i]++
			}
		}
	}

	// A column is redundant when every row it covers is covered at
	// least twice.  Removing a column only decrements cover counts, so
	// one pass in (cost desc, position asc) order performs exactly the
	// removals of the round-based drop-most-expensive-first loop.
	order := removalOrder(ws, cols, p.Cost)
	for _, k := range order {
		if removed[k] {
			continue
		}
		j := cols[k]
		col := idx[start[j]:start[j+1]]
		red := true
		for _, i := range col {
			if coverCnt[i] == 1 {
				red = false
				break
			}
		}
		if !red {
			continue
		}
		removed[k] = true
		for _, i := range col {
			coverCnt[i]--
		}
	}
	if ws.out == nil {
		ws.out = make([]int, 0, len(cols))
	}
	ws.out = ws.out[:0]
	for k, j := range cols {
		if !removed[k] {
			ws.out = append(ws.out, j)
		}
	}
	return ws.out
}
