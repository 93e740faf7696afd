// DenseQMC-style bit-slice prime generation (arXiv 2302.10083).
//
// The Quine–McCluskey implicant lattice over n binary inputs — every
// cube in {0,1,-}^n — is represented densely: each input part takes
// two bits (01 = negative literal, 10 = positive literal, 11 = don't
// care), so a cube maps to an integer index and the whole lattice to a
// packed bit array holding one "is an implicant" bit per cube, one
// bit-plane per output.  The array is chunked: the low kLow variables
// address bits *inside* a chunk of 4^kLow bits (where the sweeps are
// word-parallel shifts and masks), the remaining high variables select
// the chunk through a base-3 key (parts 01/10/11 → digits 0/1/2), and
// chunks are materialised on demand in a dictionary so sparse
// functions never touch the full 3^n lattice.  The dictionary is
// bounded: DenseEligible pre-estimates the merge closure and the sweep
// hard-caps it at DenseMaxLatticeWords of chunk memory, falling back
// to iterated consensus rather than letting a wide don't-care input
// materialise an unbounded lattice.
//
// The sweep merges adjacent implicant classes one variable at a time,
// in increasing variable order:
//
//	A[x with var i = DC] = A[x with var i = 0] AND A[x with var i = 1]
//
// Processing variables in a fixed increasing order is the paper's
// remove-duplicates trick in lattice form: a cube whose don't-care set
// is S is computed exactly once — in the pass of max(S), from its two
// children whose don't-care sets are S\{max(S)} and therefore already
// final — so no implicant is ever generated twice and no containment
// scan is needed anywhere.  For variables below kLow the merge is an
// in-chunk shift/AND/OR over every word; for high variables it is a
// whole-chunk AND, which extends all previously computed low-variable
// don't-care combinations in one stroke.
//
// Primality is a second word-parallel sweep.  A cube x with maximal
// output set O(x) = {o : A_o[x]} is a (multi-output) prime iff O(x) is
// non-empty and no single-variable raise p of x has O(p) = O(x); since
// O(p) ⊆ O(x) always holds, the test per variable is the word
// expression OR_o (A_o[x] &^ A_o[p]) == 0.  Primes are emitted once
// each, with their maximal output part, and sorted into the same
// canonical order the iterated-consensus generator produces — the two
// engines yield bit-identical prime sets (see the differential tests
// and FuzzPrimesDense).
package primes

import (
	"math/bits"
	"sort"

	"ucp/internal/budget"
	"ucp/internal/cube"
)

// Dense-sweep eligibility limits.  Beyond them GenerateAutoBudget
// falls back to iterated consensus, which works directly on the cube
// list and needs no minterm enumeration.
const (
	// DenseMaxInputs bounds the lattice dimension (it matches the
	// explicit covering limit: larger functions cannot be minimised by
	// the QM pipeline anyway).
	DenseMaxInputs = MaxCoveringInputs
	// DenseMaxOutputs bounds the number of bit-planes.
	DenseMaxOutputs = 16
	// DenseMaxCare bounds the estimated care-minterm enumeration
	// (Σ per cube of driven-outputs × 2^don't-cares).
	DenseMaxCare = 1 << 24
	// DenseMaxLatticeWords bounds the memory the chunk dictionary may
	// materialise, in uint64 words across all planes (implicant planes
	// plus the primality sweep's covered plane) — 2^24 words is 128 MiB.
	// Care enumeration alone does not bound the merged lattice: a wide
	// don't-care cube touches few care minterms but its merge closure is
	// 3^(high don't-cares) chunks, which grows ×9 per two inputs and
	// would OOM long before any time budget fires.
	DenseMaxLatticeWords = 1 << 24
)

// denseMaxLatticeWords is DenseMaxLatticeWords as a variable so tests
// can shrink the bound to exercise the overflow path.
var denseMaxLatticeWords = uint64(DenseMaxLatticeWords)

// denseKLow is the number of low variables addressed inside a chunk:
// chunks span 4^denseKLow = 4096 bits = 64 words.
const denseKLow = 6

// DenseEligible reports whether the bit-slice sweep can handle the
// function: the space fits the lattice limits, every cube packs to
// (value, mask) form, the care-set enumeration is affordable, and the
// estimated merge closure — Σ per cube of 3^(high don't-cares) chunks,
// clamped at the full high lattice — fits the memory bound.  The
// estimate can undershoot (cross-cube merges reach chunks no single
// cube accounts for); the sweep itself enforces the same bound as a
// hard cap and falls back to consensus when it trips.
func DenseEligible(f, d *cube.Cover) bool {
	_, ok := denseEstimate(f, d)
	return ok
}

// denseEstimate is DenseEligible's single pass over the cubes: ok is
// the eligibility verdict, and chunks the estimated merge closure it
// was judged on (meaningful only when ok).
func denseEstimate(f, d *cube.Cover) (chunks uint64, ok bool) {
	s := f.S
	if s.Inputs() > DenseMaxInputs || s.Outputs() > DenseMaxOutputs {
		return 0, false
	}
	_, k := denseShape(s)
	fullLattice := pow3(s.Inputs() - k)
	var care, lattice uint64
	count := func(cv *cube.Cover) bool {
		if cv == nil {
			return true
		}
		for _, c := range cv.Cubes {
			if s.IsEmpty(c) {
				return false // consensus semantics for degenerate cubes
			}
			_, mask, ok := s.PackInput(c)
			if !ok {
				return false
			}
			outs := 1
			if s.Outputs() > 0 {
				outs = s.OutputCount(c)
			}
			care += uint64(outs) << uint(bits.OnesCount64(mask))
			if care > DenseMaxCare {
				return false
			}
			if lattice += pow3(bits.OnesCount64(mask >> uint(k))); lattice > fullLattice {
				lattice = fullLattice
			}
		}
		return true
	}
	ok = count(f) && count(d) && lattice <= denseMaxChunks(s)
	return lattice, ok
}

// denseWordOps is the sweep's own cost estimate for a lattice of the
// given number of chunks: chunks × planes × words per chunk × inputs,
// one word operation per plane word per variable pass.
func denseWordOps(s *cube.Space, chunks uint64) uint64 {
	planes, k := denseShape(s)
	return chunks * uint64(planes) * uint64(denseChunkWords(k)) * uint64(s.Inputs())
}

// pow3 computes 3^e (e ≤ DenseMaxInputs, so no overflow).
func pow3(e int) uint64 {
	p := uint64(1)
	for ; e > 0; e-- {
		p *= 3
	}
	return p
}

// denseShape returns the sweep's bit-plane count (one per output, at
// least one) and its number of in-chunk variables.
func denseShape(s *cube.Space) (planes, k int) {
	planes, k = s.Outputs(), s.Inputs()
	if planes == 0 {
		planes = 1
	}
	if k > denseKLow {
		k = denseKLow
	}
	return planes, k
}

// denseChunkWords is the number of uint64 words one plane of a chunk
// spans when k variables are addressed inside it.
func denseChunkWords(k int) int {
	if 2*k > 6 {
		return 1 << (2*k - 6)
	}
	return 1
}

// denseMaxChunks is the chunk-count form of the lattice memory bound
// for the given space: DenseMaxLatticeWords divided by the words one
// chunk costs (implicant planes plus the covered plane).
func denseMaxChunks(s *cube.Space) uint64 {
	planes, k := denseShape(s)
	max := denseMaxLatticeWords / (uint64(planes+1) * uint64(denseChunkWords(k)))
	if max < 1 {
		max = 1
	}
	return max
}

// Engine names the prime generator GenerateAutoEngine used.
type Engine string

// The engines GenerateAutoEngine chooses between.
const (
	// EngineConsensus is uncapped iterated consensus, for functions the
	// sweep cannot take (DenseEligible is false).
	EngineConsensus Engine = "consensus"
	// EngineCappedConsensus is iterated consensus that finished within
	// the sweep's estimated word-op count.
	EngineCappedConsensus Engine = "capped-consensus"
	// EngineDense is the bit-slice sweep, run after the capped
	// consensus pass tripped its cap.
	EngineDense Engine = "dense"
)

// GenerateAutoBudget computes the prime implicants with whichever
// engine does less work on this function; see GenerateAutoEngine.
func GenerateAutoBudget(f, d *cube.Cover, tr *budget.Tracker) (*cube.Cover, bool) {
	out, complete, _ := GenerateAutoEngine(f, d, tr)
	return out, complete
}

// GenerateAutoEngine chooses the prime-generation engine by work, not
// by eligibility.  A dense-eligible function first runs iterated
// consensus capped at the sweep's own estimated word-op count
// (denseWordOps over DenseEligible's lattice estimate); only if that
// cap trips does the dense sweep run.  A unit of consensus work — a
// pair tried or a containment probe — costs about 1–2 ns on the
// one-word closure against about 4 ns per sweep word op (measured on a
// 2-vCPU VM), so a tripped cap adds a fraction of the sweep's time,
// while a finished pass can save two orders of magnitude on wide
// sparse functions.  Ineligible functions run consensus uncapped.  The
// choice is counted, never timed, so it is deterministic, and both
// engines return the identical canonical prime set.  An interruption
// during the capped pass returns its partial cover with
// complete=false, GenerateBudget's degradation contract.
func GenerateAutoEngine(f, d *cube.Cover, tr *budget.Tracker) (*cube.Cover, bool, Engine) {
	chunks, ok := denseEstimate(f, d)
	if !ok {
		out, complete := GenerateBudget(f, d, tr)
		return out, complete, EngineConsensus
	}
	if out, complete, capped := generateConsensus(f, d, tr, denseWordOps(f.S, chunks)); !capped {
		return out, complete, EngineCappedConsensus
	}
	out, complete := GenerateDenseBudget(f, d, tr)
	return out, complete, EngineDense
}

// GenerateDense is GenerateDenseBudget without a budget.
func GenerateDense(f, d *cube.Cover) *cube.Cover {
	out, _ := GenerateDenseBudget(f, d, nil)
	return out
}

// GenerateDenseBudget computes all prime implicants with the dense
// bit-slice sweep.  Functions outside the DenseEligible limits are
// routed to the consensus generator, as is a sweep whose chunk
// dictionary outgrows DenseMaxLatticeWords mid-flight (the eligibility
// estimate is not a hard upper bound).  Under an exhausted budget it
// degrades exactly like GenerateBudget's contract: the returned cover
// is a valid implicant set containing F ∪ D (here: F ∪ D itself,
// deduplicated — the lattice holds no usable partial cube list), and
// complete=false.
func GenerateDenseBudget(f, d *cube.Cover, tr *budget.Tracker) (*cube.Cover, bool) {
	if !DenseEligible(f, d) {
		return GenerateBudget(f, d, tr)
	}
	sw := newDenseSweep(f.S, tr)
	if !sw.init(f, d) || !sw.merge() || !sw.cover() {
		if sw.overflow {
			// The realised chunk lattice outgrew the memory bound —
			// cross-cube merges can exceed the per-cube estimate
			// DenseEligible admits on.  Consensus works on the cube list
			// and never enumerates the lattice, so hand it the whole job.
			return GenerateBudget(f, d, tr)
		}
		return denseFallback(f, d), false
	}
	out := sw.emit()
	out.Sort()
	return out, true
}

// denseFallback is the budget-degradation result: F ∪ D deduplicated,
// in canonical order — a valid implicant set over which every
// ON-minterm remains coverable.
func denseFallback(f, d *cube.Cover) *cube.Cover {
	s := f.S
	work := cube.NewCover(s)
	for _, c := range f.Cubes {
		work.Add(s.Copy(c))
	}
	if d != nil {
		for _, c := range d.Cubes {
			work.Add(s.Copy(c))
		}
	}
	work, _, _ = dedupSig(s, work, nil, 0, nil)
	work.Sort()
	return work
}

// denseChunk is one 4^kLow-bit tile of the lattice: planes × cw words
// of implicant bits, plus (during the primality sweep) one plane of
// covered bits.
type denseChunk struct {
	a       []uint64 // planes * cw words; plane p starts at p*cw
	covered []uint64 // cw words, allocated by the cover sweep
}

type denseSweep struct {
	s      *cube.Space
	tr     *budget.Tracker
	n      int // inputs
	k      int // low (in-chunk) variables: min(n, denseKLow)
	planes int // max(1, outputs)
	cw     int // words per plane per chunk
	pow3   []uint64
	chunks map[uint64]*denseChunk
	keys   []uint64 // sorted chunk keys

	// maxChunks caps the dictionary at DenseMaxLatticeWords of chunk
	// memory; a create past it sets overflow and aborts the sweep,
	// which then restarts on the consensus engine.
	maxChunks uint64
	overflow  bool
}

func newDenseSweep(s *cube.Space, tr *budget.Tracker) *denseSweep {
	sw := &denseSweep{s: s, tr: tr, n: s.Inputs()}
	sw.planes, sw.k = denseShape(s)
	sw.cw = denseChunkWords(sw.k)
	sw.pow3 = make([]uint64, sw.n-sw.k+1)
	p := uint64(1)
	for i := range sw.pow3 {
		sw.pow3[i] = p
		p *= 3
	}
	sw.chunks = make(map[uint64]*denseChunk)
	sw.maxChunks = denseMaxChunks(s)
	return sw
}

// chunk returns the chunk for key, materialising it on first touch.
// nil means the dictionary hit the memory cap (sw.overflow is set) and
// the sweep must abort.
func (sw *denseSweep) chunk(key uint64) *denseChunk {
	if c, ok := sw.chunks[key]; ok {
		return c
	}
	if uint64(len(sw.chunks)) >= sw.maxChunks {
		sw.overflow = true
		return nil
	}
	c := &denseChunk{a: make([]uint64, sw.planes*sw.cw)}
	sw.chunks[key] = c
	sw.keys = append(sw.keys, key)
	return c
}

// expandEven spreads bit i of v to bit 2i.
func expandEven(v uint64) uint64 {
	var out uint64
	for v != 0 {
		i := bits.TrailingZeros64(v)
		out |= 1 << (2 * i)
		v &^= 1 << i
	}
	return out
}

// key3 folds the high-variable assignment bits into a base-3 chunk
// key (digit 0 for a zero bit, digit 1 for a one bit).
func (sw *denseSweep) key3(high uint64) uint64 {
	var key uint64
	for high != 0 {
		i := bits.TrailingZeros64(high)
		key += sw.pow3[i]
		high &^= 1 << i
	}
	return key
}

// init marks every care minterm (ON ∪ DC, per output plane) in the
// chunk dictionary.  Returns false when the budget ran out.
func (sw *denseSweep) init(f, d *cube.Cover) bool {
	return sw.mark(f) && sw.mark(d)
}

func (sw *denseSweep) mark(cv *cube.Cover) bool {
	if cv == nil {
		return true
	}
	s, k := sw.s, sw.k
	lowAll := uint64(1)<<uint(k) - 1
	lowBase := (uint64(1)<<uint(2*k) - 1) / 3 // Σ 4^i: every low part = 01
	pat := make([]uint64, sw.cw)
	for _, c := range cv.Cubes {
		if sw.tr.Interrupted() {
			return false
		}
		value, mask, ok := s.PackInput(c)
		if !ok {
			continue // unreachable under DenseEligible
		}
		outs, _ := s.PackOutputs(c)
		if s.Outputs() == 0 {
			outs = 1
		} else if outs == 0 {
			continue
		}
		// Build the low-part bit pattern of the cube once: one bit per
		// low-minterm completion, at in-chunk index lowBase+expand(l).
		for i := range pat {
			pat[i] = 0
		}
		lowVal, lowMask := value&lowAll, mask&lowAll
		minW, maxW := sw.cw, 0
		for sub := lowMask; ; sub = (sub - 1) & lowMask {
			idx := lowBase + expandEven(lowVal|sub)
			w := int(idx >> 6)
			pat[w] |= 1 << (idx & 63)
			if w < minW {
				minW = w
			}
			if w >= maxW {
				maxW = w + 1
			}
			if sub == 0 {
				break
			}
		}
		// Scatter the pattern over every high-variable completion.
		highVal, highMask := value>>uint(k), mask>>uint(k)
		step := 0
		for sub := highMask; ; sub = (sub - 1) & highMask {
			if step++; step&1023 == 0 && sw.tr.Interrupted() {
				return false
			}
			ch := sw.chunk(sw.key3(highVal | sub))
			if ch == nil {
				return false
			}
			rem := outs
			for rem != 0 {
				o := bits.TrailingZeros64(rem)
				rem &^= 1 << o
				plane := ch.a[o*sw.cw : (o+1)*sw.cw]
				for w := minW; w < maxW; w++ {
					plane[w] |= pat[w]
				}
			}
			if sub == 0 {
				break
			}
		}
	}
	return true
}

// In-word digit-1 masks for the three lowest variables (index stride
// 4^i bits): positions whose 2-bit part equals 01.
var denseM1 = [3]uint64{
	0x2222222222222222, // var 0, stride 1
	0x00F000F000F000F0, // var 1, stride 4
	0x00000000FFFF0000, // var 2, stride 16
}

// merge runs the variable-ordered merge sweep: low variables as
// in-chunk word operations over the initial chunks, then high
// variables as whole-chunk ANDs in increasing order (each chunk's
// content is final the moment it is created — the remove-duplicates
// invariant).  Returns false when the budget ran out.
func (sw *denseSweep) merge() bool {
	sort.Slice(sw.keys, func(i, j int) bool { return sw.keys[i] < sw.keys[j] })

	// Low variables: word-parallel inside every chunk.
	for i := 0; i < sw.k; i++ {
		for ci, key := range sw.keys {
			if ci&255 == 0 && sw.tr.Interrupted() {
				return false
			}
			ch := sw.chunks[key]
			if i < 3 {
				s := uint(1) << uint(2*i) // bit stride 4^i
				m1 := denseM1[i]
				for w := range ch.a {
					x := ch.a[w]
					ch.a[w] = x | ((x>>s)&x&m1)<<(2*s)
				}
				continue
			}
			ws := 1 << uint(2*(i-3)) // word stride
			for p := 0; p < sw.planes; p++ {
				plane := ch.a[p*sw.cw : (p+1)*sw.cw]
				for base := 0; base+4*ws <= sw.cw; base += 4 * ws {
					for u := base + ws; u < base+2*ws; u++ {
						plane[u+2*ws] |= plane[u] & plane[u+ws]
					}
				}
			}
		}
	}

	// High variables: whole-chunk ANDs, increasing variable order.
	for j := sw.k; j < sw.n; j++ {
		pw := sw.pow3[j-sw.k]
		// Snapshot: keys created this pass have digit 2 at j and are
		// never sources of pass j.
		snapshot := append([]uint64(nil), sw.keys...)
		for ci, key := range snapshot {
			if ci&255 == 0 && sw.tr.Interrupted() {
				return false
			}
			if (key/pw)%3 != 0 {
				continue
			}
			c0 := sw.chunks[key]
			c1, ok := sw.chunks[key+pw]
			if !ok {
				continue
			}
			any := false
			for w := range c0.a {
				if c0.a[w]&c1.a[w] != 0 {
					any = true
					break
				}
			}
			if !any {
				continue
			}
			t := sw.chunk(key + 2*pw)
			if t == nil {
				return false
			}
			for w := range t.a {
				t.a[w] = c0.a[w] & c1.a[w]
			}
		}
		sort.Slice(sw.keys, func(a, b int) bool { return sw.keys[a] < sw.keys[b] })
	}
	return true
}

// cover runs the primality sweep: for every variable, mark the cubes
// whose single-variable raise keeps the full output set.  Returns
// false when the budget ran out.
func (sw *denseSweep) cover() bool {
	for _, key := range sw.keys {
		sw.chunks[key].covered = make([]uint64, sw.cw)
	}

	// Low variables: in-chunk.
	for i := 0; i < sw.k; i++ {
		for ci, key := range sw.keys {
			if ci&255 == 0 && sw.tr.Interrupted() {
				return false
			}
			ch := sw.chunks[key]
			if i < 3 {
				s := uint(1) << uint(2*i)
				m1 := denseM1[i]
				m2 := m1 << s
				for w := 0; w < sw.cw; w++ {
					var d1, d2 uint64
					for p := 0; p < sw.planes; p++ {
						x := ch.a[p*sw.cw+w]
						d1 |= x &^ (x >> (2 * s))
						d2 |= x &^ (x >> s)
					}
					ch.covered[w] |= (m1 &^ d1) | (m2 &^ d2)
				}
				continue
			}
			ws := 1 << uint(2*(i-3))
			for base := 0; base+4*ws <= sw.cw; base += 4 * ws {
				for u := base + ws; u < base+2*ws; u++ {
					var d1, d2 uint64
					for p := 0; p < sw.planes; p++ {
						off := p * sw.cw
						d1 |= ch.a[off+u] &^ ch.a[off+u+2*ws]    // part 01 vs DC
						d2 |= ch.a[off+u+ws] &^ ch.a[off+u+2*ws] // part 10 vs DC
					}
					ch.covered[u] |= ^d1
					ch.covered[u+ws] |= ^d2
				}
			}
		}
	}

	// High variables: child chunk vs parent chunk.
	for j := sw.k; j < sw.n; j++ {
		pw := sw.pow3[j-sw.k]
		for ci, key := range sw.keys {
			if ci&255 == 0 && sw.tr.Interrupted() {
				return false
			}
			digit := (key / pw) % 3
			if digit == 2 {
				continue
			}
			parent, ok := sw.chunks[key+(2-digit)*pw]
			if !ok {
				continue // the raise is not an implicant for any output
			}
			ch := sw.chunks[key]
			for w := 0; w < sw.cw; w++ {
				var diff uint64
				for p := 0; p < sw.planes; p++ {
					diff |= ch.a[p*sw.cw+w] &^ parent.a[p*sw.cw+w]
				}
				ch.covered[w] |= ^diff
			}
		}
	}
	return true
}

// emit decodes every prime bit into a cube with its maximal output
// part.
func (sw *denseSweep) emit() *cube.Cover {
	s := sw.s
	out := cube.NewCover(s)
	for _, key := range sw.keys {
		ch := sw.chunks[key]
		for w := 0; w < sw.cw; w++ {
			var nz uint64
			for p := 0; p < sw.planes; p++ {
				nz |= ch.a[p*sw.cw+w]
			}
			pb := nz &^ ch.covered[w]
			for pb != 0 {
				b := bits.TrailingZeros64(pb)
				pb &^= 1 << b
				idx := uint64(w)<<6 | uint64(b)
				c := s.NewCube()
				for i := 0; i < sw.k; i++ {
					c_part := cube.Literal((idx >> uint(2*i)) & 3)
					s.SetInput(c, i, c_part)
				}
				for i := sw.k; i < sw.n; i++ {
					d := (key / sw.pow3[i-sw.k]) % 3
					s.SetInput(c, i, cube.Literal(d+1))
				}
				for o := 0; o < s.Outputs(); o++ {
					if ch.a[o*sw.cw+w]>>uint(b)&1 != 0 {
						s.SetOutput(c, o, true)
					}
				}
				out.Add(c)
			}
		}
	}
	return out
}
