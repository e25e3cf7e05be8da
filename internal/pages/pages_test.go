package pages

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"colloid/internal/memsys"
)

func testTopology(t *testing.T) *memsys.Topology {
	t.Helper()
	return memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
}

func testSpace(t *testing.T, totalGiB int64) *AddressSpace {
	t.Helper()
	as, err := NewAddressSpace(testTopology(t), totalGiB*memsys.GiB, HugePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestFirstFitPlacement(t *testing.T) {
	as := testSpace(t, 72)
	// 32 GiB fits in default, remaining 40 GiB spills to the remote tier.
	if got := as.TierBytes(0); got != 32*memsys.GiB {
		t.Fatalf("default tier bytes = %d", got)
	}
	if got := as.TierBytes(1); got != 40*memsys.GiB {
		t.Fatalf("alternate tier bytes = %d", got)
	}
	if as.LivePages() != int(72*memsys.GiB/HugePageBytes) {
		t.Fatalf("live pages = %d", as.LivePages())
	}
}

func TestWorkingSetTooLarge(t *testing.T) {
	if _, err := NewAddressSpace(testTopology(t), 1024*memsys.GiB, HugePageBytes); err == nil {
		t.Fatal("oversized working set accepted")
	}
}

func TestInvalidSizes(t *testing.T) {
	topo := testTopology(t)
	if _, err := NewAddressSpace(topo, 0, HugePageBytes); err == nil {
		t.Fatal("zero total accepted")
	}
	if _, err := NewAddressSpace(topo, HugePageBytes+1, HugePageBytes); err == nil {
		t.Fatal("non-multiple total accepted")
	}
	if _, err := NewAddressSpace(topo, 1<<31, 1<<31); err == nil {
		t.Fatal("page size past int32 accepted")
	}
}

func TestSetWeightUpdatesShares(t *testing.T) {
	as := testSpace(t, 4)
	ids := as.LiveIDs()
	as.SetWeight(ids[0], 0.75)
	as.SetWeight(ids[1], 0.25)
	share := as.TierShare()
	if math.Abs(share[0]-1) > 1e-12 {
		t.Fatalf("default share = %v, want 1 (all weight in default)", share[0])
	}
	if math.Abs(as.DefaultShare()-1) > 1e-12 {
		t.Fatalf("DefaultShare = %v", as.DefaultShare())
	}
}

func TestMoveUpdatesAggregates(t *testing.T) {
	as := testSpace(t, 4)
	ids := as.LiveIDs()
	as.SetWeight(ids[0], 0.6)
	as.SetWeight(ids[1], 0.4)
	if err := as.Move(ids[0], 1); err != nil {
		t.Fatal(err)
	}
	if math.Abs(as.DefaultShare()-0.4) > 1e-12 {
		t.Fatalf("p after move = %v, want 0.4", as.DefaultShare())
	}
	if as.Tier(ids[0]) != 1 {
		t.Fatal("page tier not updated")
	}
	// Move back.
	if err := as.Move(ids[0], 0); err != nil {
		t.Fatal(err)
	}
	if math.Abs(as.DefaultShare()-1) > 1e-12 {
		t.Fatalf("p after move back = %v", as.DefaultShare())
	}
}

func TestMoveRespectsCapacity(t *testing.T) {
	// Working set equal to total capacity: the default tier is full, so
	// promoting a page must fail until something is demoted.
	as, err := NewAddressSpace(testTopology(t), 128*memsys.GiB, HugePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	var inAlt PageID = NoPage
	as.ForEachLive(func(p Page) {
		if p.Tier == 1 && inAlt == NoPage {
			inAlt = p.ID
		}
	})
	if err := as.Move(inAlt, 0); err == nil {
		t.Fatal("move into full tier accepted")
	}
}

func TestMoveNoopSameTier(t *testing.T) {
	as := testSpace(t, 4)
	id := as.LiveIDs()[0]
	before := as.TierBytes(0)
	if err := as.Move(id, as.Tier(id)); err != nil {
		t.Fatal(err)
	}
	if as.TierBytes(0) != before {
		t.Fatal("no-op move changed aggregates")
	}
}

func TestSplitAndCoalesce(t *testing.T) {
	as := testSpace(t, 4)
	id := as.LiveIDs()[0]
	as.SetWeight(id, 0.5)
	liveBefore := as.LivePages()
	weightBefore := as.DefaultShare()
	children, err := as.Split(id, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 512 {
		t.Fatalf("children = %d", len(children))
	}
	if as.LivePages() != liveBefore-1+512 {
		t.Fatalf("live pages after split = %d", as.LivePages())
	}
	if !as.Get(id).Dead {
		t.Fatal("parent not dead after split")
	}
	if math.Abs(as.DefaultShare()-weightBefore) > 1e-9 {
		t.Fatalf("split changed tier share: %v -> %v", weightBefore, as.DefaultShare())
	}
	for _, c := range children {
		if as.Get(c).Bytes != BasePageBytes {
			t.Fatalf("child size = %d", as.Get(c).Bytes)
		}
		if math.Abs(as.Weight(c)-0.5/512) > 1e-12 {
			t.Fatalf("child weight = %v", as.Weight(c))
		}
	}
	if err := as.Coalesce(id, children); err != nil {
		t.Fatal(err)
	}
	if as.Get(id).Dead {
		t.Fatal("parent still dead after coalesce")
	}
	if math.Abs(as.Weight(id)-0.5) > 1e-9 {
		t.Fatalf("parent weight after coalesce = %v", as.Weight(id))
	}
	if as.LivePages() != liveBefore {
		t.Fatalf("live pages after coalesce = %d", as.LivePages())
	}
}

func TestCoalesceRejectsSpanningTiers(t *testing.T) {
	as := testSpace(t, 4)
	id := as.LiveIDs()[0]
	children, err := as.Split(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Move(children[0], 1); err != nil {
		t.Fatal(err)
	}
	if err := as.Coalesce(id, children); err == nil {
		t.Fatal("coalesce across tiers accepted")
	}
}

func TestSplitErrors(t *testing.T) {
	as := testSpace(t, 4)
	id := as.LiveIDs()[0]
	if _, err := as.Split(id, 1); err == nil {
		t.Fatal("split into 1 part accepted")
	}
	if _, err := as.Split(id, 3); err == nil {
		t.Fatal("non-divisible split accepted")
	}
	children, _ := as.Split(id, 2)
	if _, err := as.Split(id, 2); err == nil {
		t.Fatal("split of dead page accepted")
	}
	_ = children
}

// mustPanicPages asserts fn panics with a "pages:"-prefixed message —
// the contract for accessors fed NoPage or an out-of-range ID.
func mustPanicPages(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "pages:") {
			t.Fatalf("%s panicked with %v, want pages:-prefixed message", what, r)
		}
	}()
	fn()
}

func TestBadIDAccessors(t *testing.T) {
	as := testSpace(t, 4)
	outOfRange := PageID(as.NumPages())
	for _, id := range []PageID{NoPage, outOfRange} {
		id := id
		mustPanicPages(t, "Get", func() { as.Get(id) })
		mustPanicPages(t, "Tier", func() { as.Tier(id) })
		mustPanicPages(t, "Weight", func() { as.Weight(id) })
		mustPanicPages(t, "SetWeight", func() { as.SetWeight(id, 0.5) })
		if err := as.Move(id, 1); err == nil || !strings.Contains(err.Error(), "pages:") {
			t.Fatalf("Move(%d) = %v, want descriptive error", id, err)
		}
		if _, err := as.Split(id, 2); err == nil {
			t.Fatalf("Split(%d) accepted", id)
		}
		if err := as.Coalesce(id, []PageID{0}); err == nil {
			t.Fatalf("Coalesce(%d) accepted", id)
		}
		if err := as.Coalesce(0, []PageID{id}); err == nil {
			t.Fatalf("Coalesce with child %d accepted", id)
		}
	}
}

func TestSplitReusesCoalescedSlots(t *testing.T) {
	as := testSpace(t, 4)
	ids := as.LiveIDs()
	slots := as.NumPages()
	first, err := as.Split(ids[0], 512)
	if err != nil {
		t.Fatal(err)
	}
	if as.NumPages() != slots+512 {
		t.Fatalf("slots after first split = %d, want %d", as.NumPages(), slots+512)
	}
	if err := as.Coalesce(ids[0], first); err != nil {
		t.Fatal(err)
	}
	// Every subsequent split/coalesce cycle must recycle the freed
	// child slots instead of growing the slot array.
	for i := 1; i < 20; i++ {
		children, err := as.Split(ids[i], 512)
		if err != nil {
			t.Fatal(err)
		}
		if err := as.Coalesce(ids[i], children); err != nil {
			t.Fatal(err)
		}
	}
	if as.NumPages() != slots+512 {
		t.Fatalf("slots after churn = %d, want %d (free slots not reused)", as.NumPages(), slots+512)
	}
}

func TestLiveVersionTracksOnlyLiveness(t *testing.T) {
	as := testSpace(t, 4)
	id := as.LiveIDs()[0]
	v, lv := as.Version(), as.LiveVersion()
	as.SetWeight(id, 0.5)
	if as.Version() == v {
		t.Fatal("SetWeight did not bump Version")
	}
	if as.LiveVersion() != lv {
		t.Fatal("SetWeight bumped LiveVersion")
	}
	children, err := as.Split(id, 2)
	if err != nil {
		t.Fatal(err)
	}
	if as.LiveVersion() == lv {
		t.Fatal("Split did not bump LiveVersion")
	}
	lv = as.LiveVersion()
	if err := as.Coalesce(id, children); err != nil {
		t.Fatal(err)
	}
	if as.LiveVersion() == lv {
		t.Fatal("Coalesce did not bump LiveVersion")
	}
}

func TestTierShareInto(t *testing.T) {
	as := testSpace(t, 4)
	ids := as.LiveIDs()
	as.SetWeight(ids[0], 0.75)
	buf := make([]float64, 0, as.NumTiers())
	got := as.TierShareInto(buf)
	want := as.TierShare()
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("share[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("TierShareInto did not reuse the caller's buffer")
	}
}

// TestChurnConservation drives 10³ random split/move/coalesce cycles
// and asserts the incrementally-maintained aggregates (liveWeight,
// per-tier bytes and weights, LivePages) match a from-scratch recount,
// that LiveIDs stays ID-ordered, and that slot reuse bounds the slot
// array.
func TestChurnConservation(t *testing.T) {
	as := testSpace(t, 8)
	ids := as.LiveIDs()
	rng := rand.New(rand.NewSource(1))
	for _, id := range ids {
		as.SetWeight(id, rng.Float64()/float64(len(ids)))
	}
	slots := as.NumPages()
	parts := []int{2, 8, 512}
	for cycle := 0; cycle < 1000; cycle++ {
		id := ids[rng.Intn(len(ids))]
		n := parts[rng.Intn(len(parts))]
		children, err := as.Split(id, n)
		if err != nil {
			t.Fatal(err)
		}
		// Scatter some children across tiers, then herd them all to the
		// alternate tier (always has room at this working-set size) so
		// the coalesce is legal.
		for i := 0; i < 4; i++ {
			c := children[rng.Intn(len(children))]
			_ = as.Move(c, memsys.TierID(rng.Intn(as.NumTiers())))
		}
		for _, c := range children {
			if err := as.Move(c, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := as.Coalesce(id, children); err != nil {
			t.Fatal(err)
		}
		// Random whole-page move to keep tier aggregates churning too.
		_ = as.Move(ids[rng.Intn(len(ids))], memsys.TierID(rng.Intn(as.NumTiers())))
	}
	if as.NumPages() > slots+512 {
		t.Fatalf("slot array grew to %d (started at %d); free slots not reused", as.NumPages(), slots)
	}
	// Recount everything from scratch and compare with the maintained
	// aggregates.
	var weight float64
	tierBytes := make([]int64, as.NumTiers())
	tierWeight := make([]float64, as.NumTiers())
	count := 0
	prev := PageID(-1)
	as.ForEachLive(func(p Page) {
		if p.ID <= prev {
			t.Fatalf("ForEachLive out of ID order: %d after %d", p.ID, prev)
		}
		prev = p.ID
		weight += p.Weight
		tierBytes[p.Tier] += p.Bytes
		tierWeight[p.Tier] += p.Weight
		count++
	})
	if count != as.LivePages() {
		t.Fatalf("LivePages = %d, recount = %d", as.LivePages(), count)
	}
	if math.Abs(weight-as.liveWeight) > 1e-6 {
		t.Fatalf("liveWeight = %v, recount = %v", as.liveWeight, weight)
	}
	for tier := range tierBytes {
		if tierBytes[tier] != as.TierBytes(memsys.TierID(tier)) {
			t.Fatalf("tier %d bytes = %d, recount = %d", tier, as.TierBytes(memsys.TierID(tier)), tierBytes[tier])
		}
		if math.Abs(tierWeight[tier]-as.tierWeight[tier]) > 1e-6 {
			t.Fatalf("tier %d weight = %v, recount = %v", tier, as.tierWeight[tier], tierWeight[tier])
		}
	}
	live := as.LiveIDs()
	if !sort.SliceIsSorted(live, func(i, j int) bool { return live[i] < live[j] }) {
		t.Fatal("LiveIDs not ID-ordered after churn")
	}
}

// Property: for any sequence of weight updates and legal moves, the sum
// of per-tier weights equals the sum of live page weights, and
// TierShare sums to 1 when weights exist.
func TestAggregateInvariant(t *testing.T) {
	as := testSpace(t, 8)
	ids := as.LiveIDs()
	f := func(ops []struct {
		Idx  uint16
		W    uint16
		Tier bool
	}) bool {
		for _, op := range ops {
			id := ids[int(op.Idx)%len(ids)]
			as.SetWeight(id, float64(op.W)/65535.0)
			to := memsys.TierID(0)
			if op.Tier {
				to = 1
			}
			_ = as.Move(id, to) // capacity failures are fine
		}
		var want float64
		as.ForEachLive(func(p Page) { want += p.Weight })
		share := as.TierShare()
		sum := 0.0
		for _, s := range share {
			sum += s
		}
		if want == 0 {
			return sum == 0
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
