package primes

import (
	"slices"

	"ucp/internal/cube"
)

// closeOneWord is the consensus closure for a space whose cubes fit one
// word (2·inputs + outputs ≤ 64): closeCubes on a flat []uint64 work
// set.  It sweeps the same pairs in the same order, forms the same
// candidates, admits them in the same order and charges the same units,
// but the pair's conflict test and consensus are inline word
// expressions (cube.Space.ConsensusInto on one word), a containment
// probe is one c &^ x == 0 with no signature array, and the dedup
// compacts the same slice.  The units of one outer cube's pairs are
// charged together after its row: the count only grows, so a cap trips
// on exactly the inputs it tripped on when charged per pair, and the
// tracker is polled at the first row boundary past every workPollEvery
// units.
func closeOneWord(f, d *cube.Cover, w *workMeter) (*cube.Cover, bool) {
	s := f.S
	in := uint64(1)<<(2*s.Inputs()) - 1 // the input parts' bits
	low := in & 0x5555555555555555      // bit 0 of every input part
	out := (uint64(1)<<s.Outputs() - 1) << (2 * s.Inputs())
	var work []uint64
	for _, cv := range [2]*cube.Cover{f, d} {
		if cv != nil {
			for _, c := range cv.Cubes {
				work = append(work, c[0])
			}
		}
	}
	work, fresh := dedupOneWord(work, 0, w)
	for {
		if w.capped {
			return nil, false
		}
		if w.interrupt || w.tr.Interrupted() {
			break
		}
		n := len(work)
		for i := 0; i < n; i++ {
			a, units := work[i], uint64(0)
			for _, b := range work[max(i+1, fresh):n] {
				units++
				x := a & b
				var c uint64
				if e := ^(x | x>>1) & low; e == 0 {
					// No input part conflicts: the consensus on the output
					// part, empty when neither cube drives an output (or the
					// space has none).
					if c = x&in | (a|b)&out; c&out == 0 {
						continue
					}
				} else if e&(e-1) == 0 && (x&out != 0 || out == 0) {
					c = x | e | e<<1 // the one conflicting input part, raised
				} else {
					continue
				}
				if c&^a == 0 || c&^b == 0 {
					continue // inside a member of the pair: outputs nested
				}
				if k := probeOneWord(c, work); k >= 0 {
					units += uint64(k + 1)
				} else {
					units += uint64(len(work))
					work = append(work, c)
				}
			}
			if w.charge(units) {
				break // an interrupted sweep still merges its admitted cubes
			}
		}
		if w.capped {
			return nil, false
		}
		if len(work) == n {
			if w.interrupt {
				break // the sweep was cut short: closure not proven
			}
			slices.Sort(work)
			return wordCover(s, work), true
		}
		// Drop cubes swallowed by the new ones.
		work, fresh = dedupOneWord(work, n, w)
	}
	slices.Sort(work)
	return wordCover(s, work), false
}

// probeOneWord returns the index of the first cube of cs that contains
// c, or -1.  Four probes per step, branch-free: the top bit of
// (x-1)&^x is set exactly when x == 0, i.e. when the cube contains c.
func probeOneWord(c uint64, cs []uint64) int {
	k := 0
	for ; k+4 <= len(cs); k += 4 {
		x0, x1, x2, x3 := c&^cs[k], c&^cs[k+1], c&^cs[k+2], c&^cs[k+3]
		if ((x0-1)&^x0|(x1-1)&^x1|(x2-1)&^x2|(x3-1)&^x3)>>63 != 0 {
			break
		}
	}
	for ; k < len(cs); k++ {
		if c&^cs[k] == 0 {
			return k
		}
	}
	return -1
}

// dedupOneWord is dedupSig on one-word cubes: it drops every cube that
// another cube contains (of equal cubes the first stays), checking each
// cube against the new cubes cs[old:] alone, charges w as dedupSig
// does, and compacts cs in place.  It returns the kept cubes in their
// order and how many old cubes survived.
func dedupOneWord(cs []uint64, old int, w *workMeter) ([]uint64, int) {
	dropped := make([]bool, len(cs))
	newer := cs[old:]
	for i, a := range cs {
		if w.charge(uint64(len(newer))) {
			break
		}
		for k, b := range newer {
			if j := old + k; a&^b == 0 && j != i && !dropped[j] && (a != b || j < i) {
				dropped[i] = true
				break
			}
		}
	}
	kept, survivors := cs[:0], 0
	for i, a := range cs {
		if !dropped[i] {
			kept = append(kept, a)
			if i < old {
				survivors++
			}
		}
	}
	return kept, survivors
}

// wordCover returns the one-word cubes ws as a cover of s; each cube
// is one element of ws's array.
func wordCover(s *cube.Space, ws []uint64) *cube.Cover {
	out := &cube.Cover{S: s, Cubes: make([]cube.Cube, len(ws))}
	for k := range ws {
		out.Cubes[k] = ws[k : k+1 : k+1]
	}
	return out
}
