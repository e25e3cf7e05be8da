package hemem

import (
	"testing"

	"colloid/internal/access"
	"colloid/internal/pages"
)

// refBins is the structure binSet replaced: one OrderedSet per bin plus
// a page-to-bin map, with classify's move rule. It is the reference
// model for FuzzBinSet.
type refBins struct {
	sets  []*access.OrderedSet
	binOf map[pages.PageID]int
}

func newRefBins(n int) *refBins {
	r := &refBins{binOf: map[pages.PageID]int{}}
	for i := 0; i < n; i++ {
		r.sets = append(r.sets, access.NewOrderedSet())
	}
	return r
}

func (r *refBins) place(id pages.PageID, k int, keep bool) {
	if prev, ok := r.binOf[id]; ok {
		if prev == k {
			return
		}
		r.sets[prev].Remove(id)
	}
	if !keep {
		delete(r.binOf, id)
		return
	}
	r.sets[k].Add(id)
	r.binOf[id] = k
}

func (r *refBins) clear() {
	for _, s := range r.sets {
		s.Clear()
	}
	r.binOf = map[pages.PageID]int{}
}

// FuzzBinSet drives the shared-index bins and five reference sets plus
// a map through the same reclassify/remove/clear stream and requires
// identical per-bin item order and bin lookups after every operation.
// Each op takes two bytes: the operation (low bits) with the target bin
// (high bits), and a page ID.
func FuzzBinSet(f *testing.F) {
	const numBins = 5
	f.Add([]byte{0, 1, 0x10, 1, 0x20, 2, 0x20, 1, 1, 2, 2, 0})
	f.Add([]byte{0x40, 7, 0x40, 8, 0x40, 9, 0x03, 8, 0x10, 7, 0x30, 9, 4, 0, 0x20, 60})
	f.Add([]byte{0x00, 5, 0x05, 5, 0x05, 6, 0x11, 6, 0x21, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		b := newBinSet(numBins)
		ref := newRefBins(numBins)
		for i := 0; i+1 < len(ops); i += 2 {
			op, id := ops[i], pages.PageID(ops[i+1]&0x3f)
			k := int(op>>4) % numBins
			switch op & 0x7 {
			case 0, 1, 2: // reclassify into bin k
				b.place(id, k, true)
				ref.place(id, k, true)
			case 3, 5: // reclassify at count zero
				b.place(id, k, false)
				ref.place(id, k, false)
			case 4: // a cooling pass's rebuild clears every bin
				b.clear()
				ref.clear()
			default: // remove
				b.remove(id)
				if prev, ok := ref.binOf[id]; ok {
					ref.sets[prev].Remove(id)
					delete(ref.binOf, id)
				}
			}
			for bin, set := range ref.sets {
				got := b.items[bin]
				if len(got) != set.Len() {
					t.Fatalf("op %d: bin %d holds %d pages, reference %d", i/2, bin, len(got), set.Len())
				}
				for p, id := range got {
					if want := set.At(p); id != want {
						t.Fatalf("op %d: bin %d item %d = %d, reference %d", i/2, bin, p, id, want)
					}
				}
			}
			for id := pages.PageID(0); id < 64; id++ {
				got, in := b.bin(id)
				want, wantIn := ref.binOf[id]
				if in != wantIn || (in && got != want) {
					t.Fatalf("op %d: bin(%d) = %d,%v, reference %d,%v", i/2, id, got, in, want, wantIn)
				}
			}
		}
	})
}
