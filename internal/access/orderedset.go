package access

import (
	"fmt"

	"colloid/internal/pages"
)

// OrderedSet is a set of page IDs with O(1) add/remove/contains and a
// deterministic iteration order (insertion order, perturbed only by
// swap-removes, which are themselves deterministic given a
// deterministic operation sequence). Go map iteration order is
// randomized per run, which silently breaks simulation reproducibility
// whenever a policy's migration cutoff depends on visit order; every
// such worklist uses this instead.
//
// Membership is a dense position index over page IDs (PageIDs are dense
// slots, reused after frees), grown on demand to the largest ID added:
// no hashing on the per-sample path, four bytes per slot.
type OrderedSet struct {
	items []pages.PageID
	// pos[id] is id's position in items plus one; 0 means absent.
	pos []int32
}

// NewOrderedSet returns an empty set.
func NewOrderedSet() *OrderedSet { return &OrderedSet{} }

// Len returns the element count.
func (s *OrderedSet) Len() int { return len(s.items) }

// slot returns id's position plus one, or 0 when id is absent.
func (s *OrderedSet) slot(id pages.PageID) int32 {
	if uint(id) >= uint(len(s.pos)) {
		return 0
	}
	return s.pos[id]
}

// Contains reports membership.
func (s *OrderedSet) Contains(id pages.PageID) bool { return s.slot(id) != 0 }

// Add inserts id; no-op if present. It panics on a negative id, which
// no live page has.
func (s *OrderedSet) Add(id pages.PageID) {
	if id < 0 {
		panic(fmt.Sprintf("access: OrderedSet.Add of invalid page id %d", id))
	}
	if int(id) >= len(s.pos) {
		s.pos = GrowIndex(s.pos, id)
	} else if s.pos[id] != 0 {
		return
	}
	s.items = append(s.items, id)
	s.pos[id] = int32(len(s.items))
}

// Remove deletes id via swap-remove; no-op if absent.
func (s *OrderedSet) Remove(id pages.PageID) {
	p := s.slot(id)
	if p == 0 {
		return
	}
	last := len(s.items) - 1
	moved := s.items[last]
	s.items[p-1] = moved
	s.pos[moved] = p
	s.items = s.items[:last]
	s.pos[id] = 0
}

// Clear empties the set, retaining capacity. Only the members' index
// slots are zeroed, so it costs O(Len), not O(largest ID).
func (s *OrderedSet) Clear() {
	for _, id := range s.items {
		s.pos[id] = 0
	}
	s.items = s.items[:0]
}

// GrowIndex returns idx, a dense per-page array indexed by PageID,
// extended with zeros to cover id, with an eighth of headroom: growth
// is geometric in the largest ID seen, so ascending inserts cost
// amortized O(1), while the index overshoots the page count by at most
// 12.5%. OrderedSet and HeMem's shared bin index both grow this way.
func GrowIndex[T any](idx []T, id pages.PageID) []T {
	n := int(id) + 1
	grown := make([]T, n+n/8)
	copy(grown, idx)
	return grown
}

// Action is a visitor's verdict on the current element.
type Action int

// Visitor verdicts: Keep retains the element and continues, Drop
// removes it and continues, Stop terminates the iteration.
const (
	Keep Action = iota
	Drop
	Stop
)

// ForEach visits elements in deterministic order; the visitor's Action
// controls removal and termination. Dropping swap-fills the hole and
// the iteration re-examines the hole index, so every element is
// visited exactly once.
func (s *OrderedSet) ForEach(fn func(id pages.PageID) Action) {
	for i := 0; i < len(s.items); {
		switch fn(s.items[i]) {
		case Drop:
			s.Remove(s.items[i])
		case Stop:
			return
		default:
			i++
		}
	}
}

// At returns the element at position i (for random probing).
func (s *OrderedSet) At(i int) pages.PageID { return s.items[i] }
