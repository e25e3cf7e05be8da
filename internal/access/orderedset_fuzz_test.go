package access

import (
	"testing"

	"colloid/internal/pages"
)

// mapSet is the map-indexed OrderedSet the dense index replaced: the
// same items slice and swap-remove order, membership in a Go map. It is
// the reference model for FuzzOrderedSet.
type mapSet struct {
	items []pages.PageID
	idx   map[pages.PageID]int
}

func (m *mapSet) add(id pages.PageID) {
	if _, ok := m.idx[id]; ok {
		return
	}
	m.idx[id] = len(m.items)
	m.items = append(m.items, id)
}

func (m *mapSet) remove(id pages.PageID) {
	pos, ok := m.idx[id]
	if !ok {
		return
	}
	last := len(m.items) - 1
	moved := m.items[last]
	m.items[pos] = moved
	m.idx[moved] = pos
	m.items = m.items[:last]
	delete(m.idx, id)
}

func (m *mapSet) forEach(fn func(id pages.PageID) Action) {
	for i := 0; i < len(m.items); {
		switch fn(m.items[i]) {
		case Drop:
			m.remove(m.items[i])
		case Stop:
			return
		default:
			i++
		}
	}
}

// FuzzOrderedSet drives the dense OrderedSet and the map-indexed model
// through the same Add/Remove/Contains/Clear/ForEach stream and
// requires identical item order after every operation. Each op takes
// two bytes: the operation and a page ID (the low six bits, so members
// collide often; the high bits of the op byte widen the ID range to
// exercise index growth). ForEach verdicts are read from the following
// bytes, one per visited element.
func FuzzOrderedSet(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 0, 2, 0, 1, 1, 1, 4, 0})
	f.Add([]byte{0, 5, 0, 9, 0x40, 200, 2, 0, 0, 7, 5, 0, 1, 2})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 4, 0, 1, 2, 0, 1, 3, 3, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewOrderedSet()
		ref := &mapSet{idx: map[pages.PageID]int{}}
		for i := 0; i+1 < len(ops); i += 2 {
			op := ops[i]
			id := pages.PageID(ops[i+1]&0x3f) + pages.PageID(op>>6)*1000
			switch op % 6 {
			case 0:
				s.Add(id)
				ref.add(id)
			case 1:
				s.Remove(id)
				ref.remove(id)
			case 2:
				s.Clear()
				ref.items, ref.idx = ref.items[:0], map[pages.PageID]int{}
			case 3, 4, 5:
				// Verdicts come from the bytes after this op, cycling
				// Keep/Drop/Stop; the reference replays them.
				var verdicts []Action
				k := i + 2
				s.ForEach(func(pages.PageID) Action {
					a := Keep
					if k < len(ops) {
						a = Action(ops[k] % 3)
						k++
					}
					verdicts = append(verdicts, a)
					return a
				})
				j := 0
				ref.forEach(func(pages.PageID) Action {
					a := verdicts[j]
					j++
					return a
				})
				if j != len(verdicts) {
					t.Fatalf("op %d: ForEach visited %d elements, reference %d", i/2, len(verdicts), j)
				}
			}
			if s.Len() != len(ref.items) {
				t.Fatalf("op %d: len %d, reference %d", i/2, s.Len(), len(ref.items))
			}
			for p, want := range ref.items {
				if got := s.At(p); got != want {
					t.Fatalf("op %d: item %d = %d, reference %d", i/2, p, got, want)
				}
			}
			if _, in := ref.idx[id]; s.Contains(id) != in {
				t.Fatalf("op %d: Contains(%d) = %v, reference %v", i/2, id, !in, in)
			}
		}
		for id := pages.PageID(-1); id < 4*1000; id++ {
			if _, in := ref.idx[id]; s.Contains(id) != in {
				t.Fatalf("final: Contains(%d) = %v, reference %v", id, !in, in)
			}
		}
	})
}
