// Package canon computes 128-bit fingerprints of covering problems.
//
// Three levels are provided:
//
//   - LabelFingerprint hashes a problem exactly as given: its column
//     count, every cost, and every row in order.  It is the solve
//     caches' key.  The solvers are not label-invariant, so only a
//     verbatim resubmission may be served a stored result; a row or
//     column permutation of a cached problem must miss.
//
//   - Canonicalize builds a full canonical form: a relabelling of the
//     active columns (and an implied sorting of the rows) such that
//     permuted copies of the same instance map to the identical
//     serialized form, byte for byte.  The fingerprint is a 128-bit
//     hash of that serialization, and the column permutation is
//     returned so facts stored in canonical label space can be
//     translated into any requesting instance's own ids.  The
//     branch-and-bound transposition table keys label-free facts on it.
//
//   - SubFingerprint is a cheap O(nnz) structural hash in the
//     instance's own label space, commutative over rows, for the
//     branch-and-bound transposition table: identical sub-cores
//     regenerated across branches and components of one search hash
//     identically, whatever order their rows arrived in.
//
// Canonicalisation runs colour refinement (rows and columns refine
// each other's keys; costs and degrees seed the column classes) and,
// when refinement alone does not separate every column, an
// individualisation search over the first ambiguous class, keeping the
// lexicographically smallest serialization over all branches.  The
// search is capped; an aborted search still yields a deterministic
// form for the given instance, but Exact is cleared and permuted
// copies are then no longer guaranteed to fingerprint identically
// (equality of the serialized forms — what the fingerprint hashes —
// still implies the instances really are permutations of each other).
package canon

import (
	"slices"
	"sort"

	"ucp/internal/matrix"
)

// Fingerprint is a 128-bit hash of a canonical (or structural) form.
// The zero value never results from hashing real content and can be
// used as a sentinel.
type Fingerprint struct {
	Hi, Lo uint64
}

// IsZero reports whether f is the zero sentinel.
func (f Fingerprint) IsZero() bool { return f.Hi == 0 && f.Lo == 0 }

// Derive mixes a salt into the fingerprint, for building cache keys
// that separate solver kinds and option sets sharing one problem.
func (f Fingerprint) Derive(salt uint64) Fingerprint {
	return Fingerprint{
		Hi: mix64(f.Hi ^ salt*0x9e3779b97f4a7c15),
		Lo: mix64(f.Lo + salt*0xc2b2ae3d27d4eb4f),
	}
}

// Canonical is the canonicalisation of one problem.
type Canonical struct {
	// FP is the 128-bit hash of the canonical serialization.
	FP Fingerprint
	// Exact reports that the individualisation search completed within
	// its cap, so permuted copies of the instance produce the same FP.
	// When false the form is still deterministic for this exact
	// instance (identical resubmissions share), but permutation
	// invariance is not guaranteed.
	Exact bool
	// NRows and NCols are the row count and the active-column count.
	NRows, NCols int
	// ColPerm maps canonical column index → original column id, over
	// the active columns only.
	ColPerm []int

	serial []uint64
}

// Serial exposes the canonical serialization for collision
// cross-checks in tests: equal serials mean genuinely isomorphic
// instances, whatever the fingerprints say.
func (c *Canonical) Serial() []uint64 { return c.serial }

// InverseCol builds the original-id → canonical-index map (−1 for
// columns outside ColPerm), for translating solutions into canonical
// label space.
func (c *Canonical) InverseCol(ncol int) []int32 {
	inv := make([]int32, ncol)
	for j := range inv {
		inv[j] = -1
	}
	for k, j := range c.ColPerm {
		inv[j] = int32(k)
	}
	return inv
}

const (
	mulA = 0x9e3779b97f4a7c15
	mulB = 0xc2b2ae3d27d4eb4f
	mulC = 0xbf58476d1ce4e5b9
	mulD = 0x94d049bb133111eb

	rowSalt   = 0xd6e8feb86659fd93
	colSalt   = 0xa0761d6478bd642f
	indivSalt = 0xe7037ed1a0b428db
)

// mix64 is the splitmix64 finalizer: a cheap full-avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= mulC
	x ^= x >> 27
	x *= mulD
	x ^= x >> 31
	return x
}

// DigestWords folds words into a 64-bit digest under a caller salt:
// the building block for cache-key option digests (fold the digest
// into a problem fingerprint with Fingerprint.Derive).
func DigestWords(salt uint64, words ...uint64) uint64 {
	h := mix64(salt ^ mulA)
	for _, w := range words {
		h = mix64(h ^ w*mulB)
	}
	return mix64(h + uint64(len(words))*mulC)
}

// hasher folds a word stream into a 128-bit fingerprint, one word at
// a time, so a caller can hash a structure without serializing it.
type hasher struct{ h1, h2, n uint64 }

func newHasher() hasher {
	return hasher{h1: 0x243f6a8885a308d3, h2: 0x13198a2e03707344}
}

func (h *hasher) word(w uint64) {
	h.h1 = mix64(h.h1 ^ w*mulA)
	h.h2 = mix64(h.h2 + w*mulB)
	h.n++
}

func (h *hasher) sum() Fingerprint {
	return Fingerprint{Hi: mix64(h.h1 ^ h.n), Lo: mix64(h.h2 + h.n*mulC)}
}

// hash128 folds a word stream into a 128-bit fingerprint.
func hash128(words []uint64) Fingerprint {
	h := newHasher()
	for _, w := range words {
		h.word(w)
	}
	return h.sum()
}

// LabelFingerprint hashes p as given, in O(nnz + NCol) and without
// allocating: NCol, the costs with their count, then every row in
// order as its length followed by its column ids.  Equal problems —
// the same rows in the same order over the same costs — share it; any
// relabelling or reordering of rows or columns changes it (barring a
// 128-bit collision).
func LabelFingerprint(p *matrix.Problem) Fingerprint {
	h := newHasher()
	h.word(uint64(p.NCol))
	h.word(uint64(len(p.Cost)))
	for _, c := range p.Cost {
		h.word(uint64(c))
	}
	for _, r := range p.Rows {
		h.word(uint64(len(r)))
		for _, j := range r {
			h.word(uint64(j))
		}
	}
	return h.sum()
}

// canonState carries one canonicalisation.
type canonState struct {
	p       *matrix.Problem
	act     []int     // active column ids, ascending
	pos     []int32   // column id → index in act (−1 inactive)
	colRows [][]int32 // per act index, ascending row indices

	leafCap int
	leaves  int
	exact   bool

	bestSerial []uint64
	bestPerm   []int
}

// Canonicalize computes the canonical form of p.  Inactive columns
// (appearing in no row) carry no structure and are excluded: a cover
// never uses them, so instances differing only there share a form.
func Canonicalize(p *matrix.Problem) *Canonical { return CanonicalizeCapped(p, 0) }

// CanonicalizeCapped is Canonicalize with an explicit cap on the
// individualisation leaves (0 picks the default size-scaled cap).  A
// tight cap bounds the worst case on symmetric instances — the
// branch-and-bound transposition table canonicalises at every node and
// cannot afford a large search — at the price of Exact being cleared
// more often (a miss, never a wrong hit).
func CanonicalizeCapped(p *matrix.Problem, leafCap int) *Canonical {
	cs := &canonState{p: p, exact: true, leafCap: leafCap}
	cs.pos = make([]int32, p.NCol)
	for j := range cs.pos {
		cs.pos[j] = -1
	}
	deg := make([]int, p.NCol)
	for _, r := range p.Rows {
		for _, j := range r {
			deg[j]++
		}
	}
	for j, d := range deg {
		if d > 0 {
			cs.pos[j] = int32(len(cs.act))
			cs.act = append(cs.act, j)
		}
	}
	cs.colRows = make([][]int32, len(cs.act))
	for k, j := range cs.act {
		cs.colRows[k] = make([]int32, 0, deg[j])
	}
	for i, r := range p.Rows {
		for _, j := range r {
			k := cs.pos[j]
			cs.colRows[k] = append(cs.colRows[k], int32(i))
		}
	}

	// The individualisation search serializes one candidate form per
	// leaf; cap the leaves so canonicalising never costs more than a
	// small multiple of reading the instance.  Large instances almost
	// always refine to a discrete partition (varied costs and degrees),
	// so they get a tight cap.
	if cs.leafCap <= 0 {
		switch nnz := p.NNZ(); {
		case nnz <= 512:
			cs.leafCap = 512
		case nnz <= 4096:
			cs.leafCap = 64
		default:
			cs.leafCap = 8
		}
	}

	colKey := make([]uint64, len(cs.act))
	rowKey := make([]uint64, len(p.Rows))
	for k, j := range cs.act {
		colKey[k] = mix64(uint64(p.Cost[j])*mulA ^ uint64(deg[j])*mulB)
	}
	for i, r := range p.Rows {
		rowKey[i] = mix64(uint64(len(r))*mulC + 1)
	}
	cs.search(colKey, rowKey)

	return &Canonical{
		FP:      hash128(cs.bestSerial),
		Exact:   cs.exact,
		NRows:   len(p.Rows),
		NCols:   len(cs.act),
		ColPerm: cs.bestPerm,
		serial:  cs.bestSerial,
	}
}

// Fingerprint128 is Canonicalize reduced to its fingerprint.
func Fingerprint128(p *matrix.Problem) Fingerprint { return Canonicalize(p).FP }

// refine runs colour refinement to a fixed point: row keys fold in
// their columns' keys, column keys fold in their rows' keys (and the
// column's cost and degree through the initial key), and each new key
// mixes over the old one, so classes only ever split — which preserves
// individualisation marks across rounds.
func (cs *canonState) refine(colKey, rowKey []uint64) {
	scratch := make([]uint64, 0, len(colKey)+len(rowKey))
	prev := -1
	for round := 0; round < 64; round++ {
		for i, r := range cs.p.Rows {
			var s uint64
			for _, j := range r {
				s += mix64(colKey[cs.pos[j]] ^ rowSalt)
			}
			rowKey[i] = mix64(rowKey[i] ^ s)
		}
		for k := range cs.act {
			var s uint64
			for _, i := range cs.colRows[k] {
				s += mix64(rowKey[i] ^ colSalt)
			}
			colKey[k] = mix64(colKey[k] ^ s)
		}
		d := countDistinct(colKey, scratch) + countDistinct(rowKey, scratch)
		if d == prev {
			return
		}
		prev = d
	}
}

// countDistinct counts distinct values via a sorted scratch copy.
func countDistinct(keys []uint64, scratch []uint64) int {
	scratch = append(scratch[:0], keys...)
	slices.Sort(scratch)
	n := 0
	for i, v := range scratch {
		if i == 0 || scratch[i-1] != v {
			n++
		}
	}
	return n
}

// search refines, then either serializes (discrete partition) or
// branches over the members of the first ambiguous column class,
// individualising each in turn and keeping the smallest serialization.
// The class is chosen by smallest key — an isomorphism-invariant
// choice — and branching over all of its members keeps the minimum
// invariant too.
func (cs *canonState) search(colKey, rowKey []uint64) {
	cs.refine(colKey, rowKey)

	order := make([]int, len(cs.act))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool {
		ka, kb := colKey[order[a]], colKey[order[b]]
		if ka != kb {
			return ka < kb
		}
		return order[a] < order[b]
	})

	// First ambiguous class in key order.
	groupLo, groupHi := -1, -1
	for k := 0; k < len(order); {
		h := k + 1
		for h < len(order) && colKey[order[h]] == colKey[order[k]] {
			h++
		}
		if h-k > 1 {
			groupLo, groupHi = k, h
			break
		}
		k = h
	}

	if groupLo < 0 {
		// Discrete: one leaf.
		if cs.leaves >= cs.leafCap && cs.bestSerial != nil {
			cs.exact = false
			return
		}
		cs.leaves++
		cs.leaf(order)
		return
	}

	members := order[groupLo:groupHi]
	if cs.leaves+len(members) > cs.leafCap {
		// Partial branch exploration would make the minimum depend on
		// the (arbitrary) member order; take the first branch for a
		// deterministic form and drop the invariance claim.
		cs.exact = false
		members = members[:1]
	}
	for _, m := range members {
		ck := append([]uint64(nil), colKey...)
		rk := append([]uint64(nil), rowKey...)
		ck[m] = mix64(ck[m] ^ indivSalt)
		cs.search(ck, rk)
		if !cs.exact && cs.bestSerial != nil {
			return
		}
	}
}

// leaf serializes the form induced by the discrete column order and
// keeps it when it beats the best so far.
func (cs *canonState) leaf(order []int) {
	newID := make([]int32, cs.p.NCol)
	perm := make([]int, len(order))
	for canonIdx, k := range order {
		j := cs.act[k]
		newID[j] = int32(canonIdx)
		perm[canonIdx] = j
	}
	rows := make([][]int, len(cs.p.Rows))
	flat := make([]int, cs.p.NNZ())
	for i, r := range cs.p.Rows {
		rr := flat[:len(r):len(r)]
		flat = flat[len(r):]
		for t, j := range r {
			rr[t] = int(newID[j])
		}
		sort.Ints(rr)
		rows[i] = rr
	}
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		if len(ra) != len(rb) {
			return len(ra) < len(rb)
		}
		for t := range ra {
			if ra[t] != rb[t] {
				return ra[t] < rb[t]
			}
		}
		return false
	})

	serial := make([]uint64, 0, 2+len(order)+len(rows)+cs.p.NNZ())
	serial = append(serial, uint64(len(rows)), uint64(len(order)))
	for _, j := range perm {
		serial = append(serial, uint64(cs.p.Cost[j]))
	}
	for _, r := range rows {
		serial = append(serial, uint64(len(r)))
		for _, j := range r {
			serial = append(serial, uint64(j))
		}
	}

	if cs.bestSerial == nil || lessWords(serial, cs.bestSerial) {
		cs.bestSerial = serial
		cs.bestPerm = perm
	}
}

// lessWords compares equal-length word slices lexicographically.
func lessWords(a, b []uint64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// SubFingerprint hashes the problem in its own label space: each row
// folds its column ids and their costs, and the row hashes combine
// commutatively, so row order is immaterial but ids are not.  It is
// the transposition-table key inside one branch-and-bound search,
// where all sub-cores share the parent's column universe: identical
// sub-matrices reached along different branches (or through the
// component decomposition) hash identically at O(nnz) cost.
//
// Row hashes combine by addition, so a caller maintaining a running
// sum can update the fingerprint incrementally as rows are removed;
// the branch-and-bound solver recomputes it per node on the (already
// reduced) core, which the reductions have shrunk far below the
// parent.
func SubFingerprint(p *matrix.Problem) Fingerprint {
	var s1, s2 uint64
	for _, r := range p.Rows {
		h := RowHash(r, p.Cost)
		s1 += h
		s2 += mix64(h ^ mulD)
	}
	return Fingerprint{
		Hi: mix64(s1 ^ uint64(len(p.Rows))*mulA),
		Lo: mix64(s2 + uint64(len(p.Rows))*mulB),
	}
}

// RowHash hashes one sorted row (ids plus their costs) for the
// commutative combination used by SubFingerprint.
func RowHash(r []int, cost []int) uint64 {
	h := uint64(0x6c62272e07bb0142)
	for _, j := range r {
		h = mix64(h ^ mix64(uint64(j)*mulA^uint64(cost[j])*mulB))
	}
	return mix64(h ^ uint64(len(r)))
}
