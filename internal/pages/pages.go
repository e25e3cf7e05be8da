// Package pages models the application address space at page
// granularity: every page has a size, a current tier, and an access
// weight (its share of the workload's memory requests). The sum of
// weights of pages resident in the default tier is exactly the quantity
// p that Colloid's placement algorithm steers (Section 3.1).
//
// Pages default to 2 MB (the granularity HeMem and THP-mode TPP manage);
// MEMTIS's dynamic page-size determination is modeled with Split and
// Coalesce, which exchange a huge page for base pages and back.
//
// Hot per-page fields live in parallel slices (structure-of-arrays)
// indexed by PageID, so the sharded per-quantum pipeline can scan a
// contiguous address range without dragging cold fields through the
// cache. The Page struct remains the unit of the public API; Get
// assembles one from the slices.
package pages

import (
	"fmt"
	"math"

	"colloid/internal/memsys"
	"colloid/internal/shard"
)

// PageID identifies a page within an AddressSpace. IDs are stable for
// the life of the space; Split allocates fresh IDs for children.
type PageID int32

// NoPage is the zero PageID sentinel for "no such page".
const NoPage PageID = -1

// BasePageBytes and HugePageBytes are the two page sizes the systems
// manage (4 KB and 2 MB).
const (
	BasePageBytes = 4 << 10
	HugePageBytes = 2 << 20
)

// Page is one unit of placement.
type Page struct {
	// ID is the page's identity within its AddressSpace.
	ID PageID
	// Bytes is the page size.
	Bytes int64
	// Tier is the page's current home.
	Tier memsys.TierID
	// Weight is the page's true access probability mass: the fraction
	// of the workload's memory requests that touch this page. Weights
	// across live pages sum to ~1 (workloads maintain this).
	Weight float64
	// Parent is the huge page this base page was split from, or NoPage.
	Parent PageID
	// Dead marks pages that were split into children and no longer
	// exist as placement units.
	Dead bool
}

// AddressSpace tracks all pages, their placement, and per-tier
// aggregates. Mutators are not safe for concurrent use; the simulator
// steps systems sequentially within a quantum. The read-only View is
// safe to scan from shard workers between mutations.
type AddressSpace struct {
	topo *memsys.Topology
	// Per-page fields, SoA, indexed by PageID. weight/tier/dead are the
	// hot trio every per-quantum scan touches; bytes and parent ride
	// along for Split/Coalesce and capacity checks. parent stays empty
	// until the first Split (see parentOf).
	weight []float64
	tier   []memsys.TierID
	dead   []bool
	bytes  []int32 // a page is at most math.MaxInt32 bytes
	parent []PageID

	tierBytes  []int64
	tierWeight []float64
	liveWeight float64
	liveCount  int
	version    uint64
	// liveVersion tracks only liveness changes (Split, Coalesce);
	// version additionally bumps on every SetWeight.
	liveVersion uint64
	// live is the ID-ordered live-page index; rebuilt lazily after a
	// Split or Coalesce marks it dirty, so steady-state iteration is
	// O(live) rather than O(ever-allocated).
	live      []PageID
	liveDirty bool
	// freeSlots holds coalesced-child slots available for reuse by
	// Split. Dead split parents are never recycled — Coalesce revives
	// them in place — so only child slots ever land here.
	freeSlots []PageID
	// workers is the fan-out for sharded scans (live-index rebuild,
	// aggregate recomputation, weight decay). 1 = serial. The result of
	// every sharded operation is identical at any worker count: shard
	// boundaries are fixed (shard.DefaultShards) and partials reduce in
	// shard index order.
	workers int
}

// Version increments whenever the weight distribution or the set of
// live pages changes (SetWeight, Split, Coalesce). Samplers use it to
// cache derived structures across quanta; placement moves do not bump
// it because they do not change what the PMU would sample.
func (as *AddressSpace) Version() uint64 { return as.version }

// LiveVersion increments only when the set of live pages changes
// (Split, Coalesce). Callers that cache the live-ID list — but not
// weights — key on it so pure weight updates don't force a rebuild.
func (as *AddressSpace) LiveVersion() uint64 { return as.liveVersion }

// check panics with a descriptive message when id does not name a page
// slot (NoPage or out of range). Dead pages pass: callers inspect Dead.
func (as *AddressSpace) check(id PageID, op string) {
	if int(id) < 0 || int(id) >= len(as.weight) {
		panic(fmt.Sprintf("pages: %s of out-of-range page id %d (valid ids are [0,%d))", op, id, len(as.weight)))
	}
}

// NewAddressSpace allocates an address space over topo with
// totalBytes/pageBytes pages of size pageBytes, all initially weight 0
// and unplaced (tier -1 is not representable, so pages must be placed
// via PlaceInitial or Move before use).
func NewAddressSpace(topo *memsys.Topology, totalBytes, pageBytes int64) (*AddressSpace, error) {
	if pageBytes <= 0 || totalBytes <= 0 {
		return nil, fmt.Errorf("pages: sizes must be positive")
	}
	if totalBytes%pageBytes != 0 {
		return nil, fmt.Errorf("pages: total %d not a multiple of page size %d", totalBytes, pageBytes)
	}
	if pageBytes > math.MaxInt32 {
		return nil, fmt.Errorf("pages: page size %d exceeds %d bytes", pageBytes, math.MaxInt32)
	}
	n := totalBytes / pageBytes
	if n > 1<<28 {
		return nil, fmt.Errorf("pages: %d pages is unreasonably many; raise the page size", n)
	}
	if totalBytes > topo.TotalCapacity() {
		return nil, fmt.Errorf("pages: working set %d exceeds total capacity %d", totalBytes, topo.TotalCapacity())
	}
	as := &AddressSpace{
		topo:       topo,
		weight:     make([]float64, n),
		tier:       make([]memsys.TierID, n),
		dead:       make([]bool, n),
		bytes:      make([]int32, n),
		tierBytes:  make([]int64, topo.NumTiers()),
		tierWeight: make([]float64, topo.NumTiers()),
		workers:    1,
	}
	for i := range as.bytes {
		as.bytes[i] = int32(pageBytes)
	}
	as.liveCount = int(n)
	as.liveDirty = true
	// Place first-fit: fill the default tier, then spill to alternates,
	// mimicking first-touch allocation under Linux.
	idx := 0
	for t := 0; t < topo.NumTiers() && idx < int(n); t++ {
		free := topo.Capacity(memsys.TierID(t))
		for idx < int(n) && free >= pageBytes {
			as.tier[idx] = memsys.TierID(t)
			as.tierBytes[t] += pageBytes
			free -= pageBytes
			idx++
		}
	}
	if idx < int(n) {
		return nil, fmt.Errorf("pages: could not place all pages (placed %d of %d)", idx, n)
	}
	return as, nil
}

// SetWorkers sets the fan-out for sharded scans. Values below 1 clamp
// to 1 (serial). Worker count never changes results, only wall-clock.
func (as *AddressSpace) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	as.workers = w
}

// NumPages returns the number of page slots ever allocated, including
// dead (split) pages; iterate with Get and check Dead.
func (as *AddressSpace) NumPages() int { return len(as.weight) }

// LivePages returns the number of live placement units.
func (as *AddressSpace) LivePages() int { return as.liveCount }

// Get returns a copy of the page with the given ID. It panics on
// NoPage or an out-of-range ID.
func (as *AddressSpace) Get(id PageID) Page {
	as.check(id, "Get")
	return Page{
		ID:     id,
		Bytes:  int64(as.bytes[id]),
		Tier:   as.tier[id],
		Weight: as.weight[id],
		Parent: as.parentOf(id),
		Dead:   as.dead[id],
	}
}

// parentOf returns id's split parent, or NoPage for a page no Split
// created.
func (as *AddressSpace) parentOf(id PageID) PageID {
	if int(id) < len(as.parent) {
		return as.parent[id]
	}
	return NoPage
}

// SetWeight updates the page's access probability mass.
func (as *AddressSpace) SetWeight(id PageID, w float64) {
	as.check(id, "SetWeight")
	if as.dead[id] {
		panic(fmt.Sprintf("pages: SetWeight on dead page %d", id))
	}
	if w < 0 {
		panic("pages: negative weight")
	}
	delta := w - as.weight[id]
	as.tierWeight[as.tier[id]] += delta
	as.liveWeight += delta
	as.weight[id] = w
	as.version++
}

// Weight returns the page's current weight. It panics on NoPage or an
// out-of-range ID.
func (as *AddressSpace) Weight(id PageID) float64 {
	as.check(id, "Weight")
	return as.weight[id]
}

// Tier returns the page's current tier. It panics on NoPage or an
// out-of-range ID.
func (as *AddressSpace) Tier(id PageID) memsys.TierID {
	as.check(id, "Tier")
	return as.tier[id]
}

// NumTiers returns the number of tiers the space spans.
func (as *AddressSpace) NumTiers() int { return len(as.tierBytes) }

// TierBytes returns the bytes resident in tier t.
func (as *AddressSpace) TierBytes(t memsys.TierID) int64 { return as.tierBytes[t] }

// FreeBytes returns the unused capacity of tier t.
func (as *AddressSpace) FreeBytes(t memsys.TierID) int64 {
	return as.topo.Capacity(t) - as.tierBytes[t]
}

// TierShare returns, for each tier, the fraction of workload requests
// served by pages resident there (the p vector). Returns zeros if no
// page has weight.
func (as *AddressSpace) TierShare() []float64 {
	return as.TierShareInto(nil)
}

// TierShareInto is TierShare writing into buf, which is grown if
// needed and returned; per-quantum callers reuse one buffer and stay
// allocation-free.
func (as *AddressSpace) TierShareInto(buf []float64) []float64 {
	if cap(buf) < len(as.tierWeight) {
		buf = make([]float64, len(as.tierWeight))
	}
	buf = buf[:len(as.tierWeight)]
	for i, w := range as.tierWeight {
		if as.liveWeight <= 0 {
			buf[i] = 0
		} else {
			buf[i] = w / as.liveWeight
		}
	}
	return buf
}

// DefaultShare returns the p scalar for two-tier discussions: the share
// of requests served by the default tier.
func (as *AddressSpace) DefaultShare() float64 {
	if as.liveWeight <= 0 {
		return 0
	}
	return as.tierWeight[memsys.DefaultTier] / as.liveWeight
}

// Move relocates a page to tier to, enforcing destination capacity.
// Unlike the accessors it returns an error on a bad ID: movers handle
// errors anyway, and a policy racing a split should not crash the sim.
func (as *AddressSpace) Move(id PageID, to memsys.TierID) error {
	if int(id) < 0 || int(id) >= len(as.weight) {
		return fmt.Errorf("pages: move of out-of-range page id %d (valid ids are [0,%d))", id, len(as.weight))
	}
	if as.dead[id] {
		return fmt.Errorf("pages: move of dead page %d", id)
	}
	if int(to) < 0 || int(to) >= len(as.tierBytes) {
		return fmt.Errorf("pages: move to invalid tier %d", to)
	}
	from := as.tier[id]
	if from == to {
		return nil
	}
	b := int64(as.bytes[id])
	if as.FreeBytes(to) < b {
		return fmt.Errorf("pages: tier %d full (%d free, need %d)", to, as.FreeBytes(to), b)
	}
	as.tierBytes[from] -= b
	as.tierWeight[from] -= as.weight[id]
	as.tier[id] = to
	as.tierBytes[to] += b
	as.tierWeight[to] += as.weight[id]
	return nil
}

// Split replaces a huge page with parts equal base-sized children in
// the same tier, dividing its weight evenly (the splitter has no
// sub-page access information at split time; subsequent sampling
// refines the children's weights). Returns the child IDs. Children
// reuse slots freed by earlier Coalesce calls when available, so the
// slot count stays O(live) under split/coalesce churn; a stale ID held
// across a Coalesce may therefore name a different live page later.
func (as *AddressSpace) Split(id PageID, parts int) ([]PageID, error) {
	if int(id) < 0 || int(id) >= len(as.weight) {
		return nil, fmt.Errorf("pages: split of out-of-range page id %d (valid ids are [0,%d))", id, len(as.weight))
	}
	if as.dead[id] {
		return nil, fmt.Errorf("pages: split of dead page %d", id)
	}
	if parts <= 1 {
		return nil, fmt.Errorf("pages: split into %d parts", parts)
	}
	b := int64(as.bytes[id])
	if b%int64(parts) != 0 {
		return nil, fmt.Errorf("pages: %d bytes not divisible into %d parts", b, parts)
	}
	for len(as.parent) < len(as.weight) {
		as.parent = append(as.parent, NoPage)
	}
	childBytes := b / int64(parts)
	childWeight := as.weight[id] / float64(parts)
	tier := as.tier[id]
	// Retire the parent.
	as.tierBytes[tier] -= b
	as.tierWeight[tier] -= as.weight[id]
	as.liveWeight -= as.weight[id]
	as.dead[id] = true
	as.weight[id] = 0
	as.liveCount--
	children := make([]PageID, parts)
	for i := 0; i < parts; i++ {
		var cid PageID
		if n := len(as.freeSlots); n > 0 {
			cid = as.freeSlots[n-1]
			as.freeSlots = as.freeSlots[:n-1]
			as.weight[cid] = childWeight
			as.tier[cid] = tier
			as.dead[cid] = false
			as.bytes[cid] = int32(childBytes)
			as.parent[cid] = id
		} else {
			cid = PageID(len(as.weight))
			as.weight = append(as.weight, childWeight)
			as.tier = append(as.tier, tier)
			as.dead = append(as.dead, false)
			as.bytes = append(as.bytes, int32(childBytes))
			as.parent = append(as.parent, id)
		}
		as.tierBytes[tier] += childBytes
		as.tierWeight[tier] += childWeight
		as.liveWeight += childWeight
		as.liveCount++
		children[i] = cid
	}
	as.version++
	as.liveVersion++
	as.liveDirty = true
	return children, nil
}

// Coalesce merges live sibling base pages back into their dead parent.
// All children must be live, share the parent, and sit in the same
// tier. The parent is revived with the summed weight; children die.
func (as *AddressSpace) Coalesce(parent PageID, children []PageID) error {
	if int(parent) < 0 || int(parent) >= len(as.weight) {
		return fmt.Errorf("pages: coalesce into out-of-range page id %d (valid ids are [0,%d))", parent, len(as.weight))
	}
	if !as.dead[parent] {
		return fmt.Errorf("pages: coalesce target %d is not a split parent", parent)
	}
	if len(children) == 0 {
		return fmt.Errorf("pages: coalesce with no children")
	}
	var bytes int64
	var weight float64
	for _, cid := range children {
		if int(cid) < 0 || int(cid) >= len(as.weight) {
			return fmt.Errorf("pages: coalesce of out-of-range child id %d (valid ids are [0,%d))", cid, len(as.weight))
		}
	}
	tier := as.tier[children[0]]
	for _, cid := range children {
		if as.dead[cid] || as.parentOf(cid) != parent {
			return fmt.Errorf("pages: page %d is not a live child of %d", cid, parent)
		}
		if as.tier[cid] != tier {
			return fmt.Errorf("pages: children of %d span tiers; migrate before coalescing", parent)
		}
		bytes += int64(as.bytes[cid])
		weight += as.weight[cid]
	}
	if bytes != int64(as.bytes[parent]) {
		return fmt.Errorf("pages: children cover %d bytes of parent's %d", bytes, as.bytes[parent])
	}
	for _, cid := range children {
		as.tierBytes[tier] -= int64(as.bytes[cid])
		as.tierWeight[tier] -= as.weight[cid]
		as.liveWeight -= as.weight[cid]
		as.dead[cid] = true
		as.weight[cid] = 0
		as.liveCount--
		as.freeSlots = append(as.freeSlots, cid)
	}
	as.dead[parent] = false
	as.tier[parent] = tier
	as.weight[parent] = weight
	as.tierBytes[tier] += int64(as.bytes[parent])
	as.tierWeight[tier] += weight
	as.liveWeight += weight
	as.liveCount++
	as.version++
	as.liveVersion++
	as.liveDirty = true
	return nil
}

// ensureLive rebuilds the ID-ordered live index if a Split or Coalesce
// invalidated it. The rebuild scans every slot, but slot reuse keeps
// that O(live); once clean, iteration costs nothing extra. With
// workers > 1 the scan shards by slot range (count, then fill at
// per-shard offsets); the resulting index is identical to the serial
// append because both orders are ID order.
func (as *AddressSpace) ensureLive() {
	if !as.liveDirty {
		return
	}
	if as.workers <= 1 {
		if cap(as.live) < as.liveCount {
			as.live = make([]PageID, 0, as.liveCount)
		}
		as.live = as.live[:0]
		for i := range as.dead {
			if !as.dead[i] {
				as.live = append(as.live, PageID(i))
			}
		}
		as.liveDirty = false
		return
	}
	plan := shard.NewPlan(len(as.dead))
	var counts [shard.DefaultShards]int
	shard.Run(as.workers, plan.Shards, func(s int) {
		lo, hi := plan.Range(s)
		c := 0
		for i := lo; i < hi; i++ {
			if !as.dead[i] {
				c++
			}
		}
		counts[s] = c
	})
	total := 0
	var offs [shard.DefaultShards]int
	for s, c := range counts {
		offs[s] = total
		total += c
	}
	if cap(as.live) < total {
		as.live = make([]PageID, total)
	} else {
		as.live = as.live[:total]
	}
	shard.Run(as.workers, plan.Shards, func(s int) {
		lo, hi := plan.Range(s)
		k := offs[s]
		for i := lo; i < hi; i++ {
			if !as.dead[i] {
				as.live[k] = PageID(i)
				k++
			}
		}
	})
	as.liveDirty = false
}

// ForEachLive calls fn for every live page, in ID order. fn must not
// mutate the address space.
func (as *AddressSpace) ForEachLive(fn func(p Page)) {
	as.ensureLive()
	for _, id := range as.live {
		fn(as.Get(id))
	}
}

// LiveIDs returns the IDs of all live pages, in ID order.
func (as *AddressSpace) LiveIDs() []PageID {
	as.ensureLive()
	out := make([]PageID, len(as.live))
	copy(out, as.live)
	return out
}

// View is a read-only dense snapshot of the address space for sharded
// scans: Live is the ID-ordered live index, and the remaining slices
// are the SoA per-page fields indexed by PageID. The slices alias the
// address space's storage — they are valid until the next mutation and
// must not be written through.
type View struct {
	Live   []PageID
	Weight []float64
	Tier   []memsys.TierID
	Dead   []bool
	Bytes  []int32
}

// LiveView returns the current View, rebuilding the live index if
// needed. Concurrent readers (shard workers) may scan it freely as
// long as no mutator runs until they finish.
func (as *AddressSpace) LiveView() View {
	as.ensureLive()
	return View{
		Live:   as.live,
		Weight: as.weight,
		Tier:   as.tier,
		Dead:   as.dead,
		Bytes:  as.bytes,
	}
}

// RecomputeAggregates rebuilds the per-tier byte/weight totals and the
// live weight/count from the per-page slices, sharded across the
// configured workers with per-shard partials reduced in shard index
// order. Incremental maintenance (SetWeight, Move) keeps these exact
// under normal stepping; bulk mutators such as DecayWeights call this
// instead of issuing millions of incremental updates.
func (as *AddressSpace) RecomputeAggregates() {
	plan := shard.NewPlan(len(as.weight))
	nt := len(as.tierBytes)
	partBytes := make([]int64, plan.Shards*nt)
	partWeight := make([]float64, plan.Shards*nt)
	partLive := make([]float64, plan.Shards)
	partCount := make([]int, plan.Shards)
	shard.Run(as.workers, plan.Shards, func(s int) {
		lo, hi := plan.Range(s)
		pb := partBytes[s*nt : (s+1)*nt]
		pw := partWeight[s*nt : (s+1)*nt]
		lw := 0.0
		n := 0
		for i := lo; i < hi; i++ {
			if as.dead[i] {
				continue
			}
			t := as.tier[i]
			pb[t] += int64(as.bytes[i])
			pw[t] += as.weight[i]
			lw += as.weight[i]
			n++
		}
		partLive[s] = lw
		partCount[s] = n
	})
	for t := 0; t < nt; t++ {
		as.tierBytes[t] = 0
		as.tierWeight[t] = 0
	}
	as.liveWeight = 0
	as.liveCount = 0
	for s := 0; s < plan.Shards; s++ {
		for t := 0; t < nt; t++ {
			as.tierBytes[t] += partBytes[s*nt+t]
			as.tierWeight[t] += partWeight[s*nt+t]
		}
		as.liveWeight += partLive[s]
		as.liveCount += partCount[s]
	}
}

// DecayWeights multiplies every live page's weight by factor — the
// ground-truth analog of a tracker cooling pass, used by workloads and
// the scale pipeline to age the access distribution in bulk. The scan
// shards by slot range (disjoint writes), then the aggregates are
// recomputed with an ordered reduce, so the result is identical at any
// worker count. factor must be in [0, 1].
func (as *AddressSpace) DecayWeights(factor float64) {
	if factor < 0 || factor > 1 {
		panic(fmt.Sprintf("pages: DecayWeights factor %v outside [0,1]", factor))
	}
	plan := shard.NewPlan(len(as.weight))
	shard.Run(as.workers, plan.Shards, func(s int) {
		lo, hi := plan.Range(s)
		for i := lo; i < hi; i++ {
			if !as.dead[i] && as.weight[i] != 0 {
				as.weight[i] *= factor
			}
		}
	})
	as.RecomputeAggregates()
	as.version++
}
