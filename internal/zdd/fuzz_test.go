package zdd

import (
	"reflect"
	"testing"
)

// FuzzZDDChain drives a byte-coded operation sequence against the
// chain-reduced manager and the plain reference manager in lockstep.
// After every operation the two engines must agree op-for-op on
// Count, the full enumeration, emptiness and support — any divergence
// is a chain-reduction bug.  Periodic Collects on both sides exercise
// the pool-compacting sweep mid-sequence.
func FuzzZDDChain(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0x15, 0x28, 0x3b, 0x4e, 0x61, 0x74, 0x87, 0x9a})
	f.Add([]byte{0x70, 0x70, 0x05, 0x16, 0x27, 0x38, 0x49, 0x5a, 0x6b, 0x7c, 0x8d, 0x9e, 0xaf})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x42, 0x42, 0x42})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		mc, mp := New(), NewPlain()
		fc, fp := Empty, Empty
		gc, gp := Empty, Empty
		mc.AddRoot(&fc)
		mc.AddRoot(&gc)
		mp.AddRoot(&fp)
		mp.AddRoot(&gp)
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			b := int(data[pos])
			pos++
			return b
		}
		for pos < len(data) {
			op := next()
			switch op % 12 {
			case 0, 1: // build a set from the next few bytes and union it in
				n := 1 + op%5
				elems := make([]int, 0, n)
				for i := 0; i < n; i++ {
					elems = append(elems, next()%48)
				}
				sc, err := mc.Set(elems)
				if err != nil {
					t.Fatal(err)
				}
				sp, _ := mp.Set(elems)
				fc, fp = mc.Union(fc, sc), mp.Union(fp, sp)
			case 2: // swap targets
				fc, gc = gc, fc
				fp, gp = gp, fp
			case 3:
				fc, fp = mc.Intersect(fc, gc), mp.Intersect(fp, gp)
			case 4:
				fc, fp = mc.Diff(fc, gc), mp.Diff(fp, gp)
			case 5:
				v := next() % 48
				fc, fp = mc.Subset0(fc, v), mp.Subset0(fp, v)
			case 6:
				v := next() % 48
				fc, fp = mc.Subset1(fc, v), mp.Subset1(fp, v)
			case 7:
				v := next() % 48
				fc, fp = mc.Remove(fc, v), mp.Remove(fp, v)
			case 8:
				fc, fp = mc.Minimal(fc), mp.Minimal(fp)
			case 9:
				fc, fp = mc.Maximal(fc), mp.Maximal(fp)
			case 10:
				fc, fp = mc.NonSupersets(fc, gc), mp.NonSupersets(fp, gp)
			case 11:
				fc, fp = mc.Singletons(fc), mp.Singletons(fp)
			}
			if op%7 == 0 {
				mc.Collect()
				mp.Collect()
			}
			if cc, cp := mc.Count(fc), mp.Count(fp); cc != cp {
				t.Fatalf("Count diverges after op %d: chain %d, plain %d", op%12, cc, cp)
			}
			if hc, hp := mc.HasEmptySet(fc), mp.HasEmptySet(fp); hc != hp {
				t.Fatalf("HasEmptySet diverges after op %d", op%12)
			}
			if sc, sp := familySets(mc, fc), familySets(mp, fp); !reflect.DeepEqual(sc, sp) {
				t.Fatalf("families diverge after op %d:\nchain %v\nplain %v", op%12, sc, sp)
			}
			if sc, sp := mc.Support(fc), mp.Support(fp); !reflect.DeepEqual(sc, sp) {
				t.Fatalf("Support diverges after op %d: %v vs %v", op%12, sc, sp)
			}
		}
	})
}

// FuzzZDDFamily checks the bulk build against its oracle: on both
// engines, Family must return exactly the node the Union(Set(row))
// fold returns in the same manager, and fail exactly where Set does,
// with Set's error.  The byte stream decodes to rows of 0–6 elements
// over a small universe, so it produces unsorted rows, repeated
// elements, duplicate and empty rows, and (from the top byte values)
// an occasional negative id.
func FuzzZDDFamily(f *testing.F) {
	f.Add([]byte{3, 5, 1, 3, 2, 7, 7, 0, 3, 1, 3, 5})
	f.Add([]byte{4, 9, 8, 9, 1, 4, 1, 8, 9, 9, 2, 20, 21, 2, 20, 22, 1, 23})
	f.Add([]byte{2, 4, 0xfe, 1, 6})
	f.Add([]byte{0, 0, 1, 0, 6, 0, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		var rows [][]int
		for pos := 0; pos < len(data); {
			n := int(data[pos] % 7)
			pos++
			row := []int{}
			for ; n > 0 && pos < len(data); n-- {
				b := int(data[pos])
				pos++
				if b >= 0xfc {
					row = append(row, 0xfb-b) // -1 … -4
				} else {
					row = append(row, b%24)
				}
			}
			rows = append(rows, row)
		}
		for _, eng := range []struct {
			name string
			mk   func() *Manager
		}{{"chain", New}, {"plain", NewPlain}} {
			m := eng.mk()
			got, gotErr := m.Family(rows)
			want, wantErr := unionFold(m, rows)
			if (gotErr == nil) != (wantErr == nil) ||
				(gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s: Family error %v, fold error %v", eng.name, gotErr, wantErr)
			}
			if gotErr == nil && got != want {
				t.Fatalf("%s: Family node %d, fold node %d\nFamily %v\nfold   %v",
					eng.name, got, want, familySets(m, got), familySets(m, want))
			}
		}
	})
}
