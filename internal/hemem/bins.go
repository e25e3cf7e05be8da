package hemem

import (
	"fmt"

	"colloid/internal/access"
	"colloid/internal/pages"
)

// binSet holds HeMem's frequency bins (the Colloid extension's per-bin
// page lists). A page sits in at most one bin, so the bins share one
// dense index over page IDs: which[id] is the page's bin plus one (0 =
// in no bin) and pos[id] its position in that bin's list. Each list
// keeps insertion order perturbed only by swap-removes, exactly as
// access.OrderedSet does, so the candidate scan visits pages in the
// same order a set per bin would. The shared index costs five bytes per
// page slot; a dense access.OrderedSet per bin would cost four per bin
// (twenty at the default five bins), which at 36,864 pages is ~0.6 MiB
// more live heap per HeMem instance.
type binSet struct {
	items [][]pages.PageID
	which []uint8
	pos   []int32
}

// maxBins is the most bins a uint8 bin tag can name.
const maxBins = 255

func newBinSet(n int) binSet {
	if n < 1 || n > maxBins {
		panic(fmt.Sprintf("hemem: NumBins %d outside [1, %d]", n, maxBins))
	}
	return binSet{items: make([][]pages.PageID, n)}
}

// bin returns id's bin and whether it is in one.
func (b *binSet) bin(id pages.PageID) (int, bool) {
	if uint(id) >= uint(len(b.which)) {
		return 0, false
	}
	w := b.which[id]
	return int(w) - 1, w != 0
}

// add appends id, which must be in no bin, to bin k.
func (b *binSet) add(id pages.PageID, k int) {
	if int(id) >= len(b.which) {
		b.which = access.GrowIndex(b.which, id)
		b.pos = access.GrowIndex(b.pos, id)
	}
	b.which[id] = uint8(k + 1)
	b.pos[id] = int32(len(b.items[k]))
	b.items[k] = append(b.items[k], id)
}

// place puts id in bin k when keep is set and in no bin otherwise,
// except that a page already in bin k stays where it is, keeping its
// list position, whatever keep says.
func (b *binSet) place(id pages.PageID, k int, keep bool) {
	if prev, ok := b.bin(id); ok {
		if prev == k {
			return
		}
		b.remove(id)
	}
	if keep {
		b.add(id, k)
	}
}

// remove swap-removes id from its bin; no-op if it is in none.
func (b *binSet) remove(id pages.PageID) {
	k, ok := b.bin(id)
	if !ok {
		return
	}
	list := b.items[k]
	last := len(list) - 1
	moved := list[last]
	list[b.pos[id]] = moved
	b.pos[moved] = b.pos[id]
	b.items[k] = list[:last]
	b.which[id] = 0
}

// clear empties every bin, zeroing only the members' index slots.
func (b *binSet) clear() {
	for k, list := range b.items {
		for _, id := range list {
			b.which[id] = 0
		}
		b.items[k] = list[:0]
	}
}
