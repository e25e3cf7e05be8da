// Package access provides the access-tracking mechanisms the tiering
// systems build on: a weighted page sampler standing in for PEBS (the
// PMU samples memory accesses in proportion to their true rates), a
// frequency tracker with HeMem-style cooling, and a page-table
// scan / hint-fault model for TPP.
//
// The two bulk passes here — the sampler's CDF rebuild and the
// tracker's cooling pass — shard by contiguous range over a fixed shard
// count (shard.DefaultShards) with partials reduced in shard index
// order, so their results are identical at every worker count.
package access

import (
	"fmt"

	"colloid/internal/obs"
	"colloid/internal/pages"
	"colloid/internal/shard"
	"colloid/internal/stats"
)

// Sampler draws page IDs distributed according to the address space's
// true page weights — exactly what PEBS sampling of memory accesses
// observes. The cumulative distribution is cached and rebuilt only when
// the weight distribution changes (AddressSpace.Version). The rebuild
// runs in three sharded passes: per-shard nonzero counts and weight
// totals, a serial ordered reduce into per-shard offsets, then a
// parallel fill of the flat cum/ids arrays. The per-shard prefix sums
// seed from the reduced offsets in shard index order, making the CDF
// bytes independent of the worker count.
//
// Each draw inverts the CDF by bisection. A CDF that has served
// len(cum)/guideAfter draws also gets a guide table (cutpoint method,
// Chen & Asau 1974): guide[k] is the first index whose cumulative weight
// reaches k/m of the total, so later draws bisect only between two
// adjacent cutpoints. A CDF rebuilt every few draws (10^6 pages with
// 1024 draws a quantum) never builds one. On a nondecreasing CDF both
// searches return the index sort.SearchFloat64s would, so a uniform draw
// selects the page inverse-CDF sampling defines.
type Sampler struct {
	as      *pages.AddressSpace
	rng     *stats.RNG
	workers int
	version uint64
	built   bool
	cum     []float64
	ids     []pages.PageID
	guide   []int32 // empty until draws reaches len(cum)/guideAfter
	draws   int     // draws since the last rebuild
	total   float64

	mSamples  *obs.Counter
	mRebuilds *obs.Counter
}

// NewSampler returns a sampler over as using rng.
func NewSampler(as *pages.AddressSpace, rng *stats.RNG) *Sampler {
	return &Sampler{as: as, rng: rng, workers: 1}
}

// SetObs installs the metrics registry (nil disables instrumentation).
func (s *Sampler) SetObs(r *obs.Registry) {
	s.mSamples = r.Counter("sampler_samples")
	s.mRebuilds = r.Counter("sampler_rebuilds")
}

// SetWorkers sets the fan-out for the CDF rebuild. Values below 1
// clamp to 1. Worker count never changes the sampled sequence.
func (s *Sampler) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	s.workers = w
}

func (s *Sampler) rebuild() {
	s.mRebuilds.Inc()
	v := s.as.LiveView()
	plan := shard.NewPlan(len(v.Live))
	// Pass 1: per-shard count of weighted pages and local weight total.
	var counts [shard.DefaultShards]int
	var totals [shard.DefaultShards]float64
	shard.Run(s.workers, plan.Shards, func(sh int) {
		lo, hi := plan.Range(sh)
		n := 0
		acc := 0.0
		for _, id := range v.Live[lo:hi] {
			if w := v.Weight[id]; w > 0 {
				n++
				acc += w
			}
		}
		counts[sh] = n
		totals[sh] = acc
	})
	// Ordered reduce: per-shard start index and starting prefix weight.
	var offs [shard.DefaultShards]int
	var base [shard.DefaultShards]float64
	n := 0
	acc := 0.0
	for sh := 0; sh < plan.Shards; sh++ {
		offs[sh] = n
		base[sh] = acc
		n += counts[sh]
		acc += totals[sh]
	}
	if cap(s.cum) < n {
		s.cum = make([]float64, n)
		s.ids = make([]pages.PageID, n)
	}
	s.cum = s.cum[:n]
	s.ids = s.ids[:n]
	// Pass 2: fill each shard's slice of the CDF from its own offset.
	shard.Run(s.workers, plan.Shards, func(sh int) {
		lo, hi := plan.Range(sh)
		k := offs[sh]
		acc := base[sh]
		for _, id := range v.Live[lo:hi] {
			w := v.Weight[id]
			if w <= 0 {
				continue
			}
			acc += w
			s.cum[k] = acc
			s.ids[k] = id
			k++
		}
	})
	s.total = 0
	if n > 0 {
		s.total = s.cum[n-1]
	}
	s.guide = s.guide[:0]
	s.draws = 0
	s.version = s.as.Version()
	s.built = true
}

// Sample returns one page drawn with probability proportional to its
// weight, or pages.NoPage if no page has weight.
func (s *Sampler) Sample() pages.PageID {
	s.mSamples.Inc()
	if !s.built || s.version != s.as.Version() {
		s.rebuild()
	}
	if s.total <= 0 {
		return pages.NoPage
	}
	if len(s.guide) == 0 {
		if s.draws++; s.draws >= len(s.cum)/guideAfter {
			s.guide = buildGuide(s.guide, s.cum, s.total)
		}
	}
	x := s.rng.Float64() * s.total
	i := guideSearch(s.cum, s.guide, s.total, x)
	if i >= len(s.ids) {
		i = len(s.ids) - 1
	}
	return s.ids[i]
}

// guideAfter sets when a CDF gets a guide table: after len(cum)/guideAfter
// draws. The build sweeps cum once; that many bisections, each
// log2(len(cum)) dependent loads, have already cost several sweeps.
const guideAfter = 4

// guideSpan is how many CDF entries share one cutpoint: a guided draw
// binary-searches about that many contiguous entries, and the table
// costs 4/guideSpan bytes per weighted page.
const guideSpan = 4

// buildGuide fills guide (reusing its storage) with m = ⌈n/guideSpan⌉
// cutpoints over the n = len(cum) entries: guide[k] is the first index
// i with cum[i] >= k*total/m, or n when none is. One merged sweep over
// cum, O(n).
func buildGuide(guide []int32, cum []float64, total float64) []int32 {
	n := len(cum)
	m := (n + guideSpan - 1) / guideSpan
	if cap(guide) < m {
		guide = make([]int32, m)
	}
	guide = guide[:m]
	step := total / float64(m)
	i := 0
	for k := range guide {
		t := float64(k) * step
		for i < n && cum[i] < t {
			i++
		}
		guide[k] = int32(i)
	}
	return guide
}

// guideSearch returns the smallest i with cum[i] >= x (len(cum) when
// none is): sort.SearchFloat64s(cum, x), whose bisection it runs.
// Without a guide it bisects all of cum. With m = len(guide) cutpoints
// it bisects between the cutpoints of x's bucket k = floor(x/total*m)
// and k+1, then walks down while the previous entry still reaches x and
// up while the current one falls short; on a nondecreasing cum that
// corrects any rounding of k, so the guide only narrows the search. A
// draw past the last bucket, or a NaN one, starts at n. The sharded
// prefix sums can dip at a shard boundary (a weight below the rounding
// gap between two shards' sums); there a guided draw returns a crossing
// of x that may differ from the bisection's.
func guideSearch(cum []float64, guide []int32, total, x float64) int {
	n, m := len(cum), len(guide)
	lo, hi := 0, n
	if m > 0 {
		lo = n
		if f := x / total * float64(m); f < float64(m) {
			k := 0
			if f > 0 {
				k = int(f)
			}
			lo = int(guide[k])
			if k+1 < m {
				hi = int(guide[k+1])
			}
		}
	}
	for lo < hi { // sort.Search's bisection, with its predicate
		h := int(uint(lo+hi) >> 1)
		if !(cum[h] >= x) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	i := lo
	for i > 0 && cum[i-1] >= x {
		i--
	}
	for i < n && cum[i] < x {
		i++
	}
	return i
}

// SampleN draws n pages with replacement, appending to dst.
func (s *Sampler) SampleN(dst []pages.PageID, n int) []pages.PageID {
	for i := 0; i < n; i++ {
		if id := s.Sample(); id != pages.NoPage {
			dst = append(dst, id)
		}
	}
	return dst
}

// FreqTracker maintains per-page access frequency counts with HeMem's
// cooling rule: when any page's count reaches CoolThreshold, every
// count is halved. Access probabilities are estimated as a page's
// count divided by the total count. Counts are stored densely, indexed
// by PageID, so the cooling pass and candidate scans are contiguous
// range sweeps that shard cleanly; the per-shard totals are exact
// integer sums, so the sharded cool is bit-identical to the serial one.
type FreqTracker struct {
	// CoolThreshold is HeMem's COOLING_THRESHOLD.
	CoolThreshold uint32

	counts  []uint32 // indexed by PageID; zero = untracked
	total   uint64
	tracked int
	cools   int
	workers int

	// Per-shard scratch for the sharded bulk queries, reused across
	// quanta to keep the hot loops allocation-free.
	shardIDs  [shard.DefaultShards][]pages.PageID
	shardHist [shard.DefaultShards][]int64
}

// Name identifies the tracker configuration.
func (f *FreqTracker) Name() string { return "exact" }

// NewFreqTracker returns a tracker with the given cooling threshold.
func NewFreqTracker(coolThreshold uint32) *FreqTracker {
	if coolThreshold < 2 {
		panic("access: cooling threshold must be at least 2")
	}
	return &FreqTracker{CoolThreshold: coolThreshold, workers: 1}
}

// SetWorkers sets the fan-out for the cooling pass. Values below 1
// clamp to 1. Worker count never changes counts or totals.
func (f *FreqTracker) SetWorkers(w int) {
	if w < 1 {
		w = 1
	}
	f.workers = w
}

// Touch records one sampled access to id and cools if the threshold is
// reached.
func (f *FreqTracker) Touch(id pages.PageID) {
	if id < 0 {
		panic(fmt.Sprintf("access: Touch of invalid page id %d", id))
	}
	if int(id) >= len(f.counts) {
		n := int(id) + 1
		if n < 2*len(f.counts) {
			n = 2 * len(f.counts)
		}
		grown := make([]uint32, n)
		copy(grown, f.counts)
		f.counts = grown
	}
	c := f.counts[id] + 1
	if c == 1 {
		f.tracked++
	}
	f.counts[id] = c
	f.total++
	if c >= f.CoolThreshold {
		f.Cool()
	}
}

// Cool halves every count (dropping zeros), as HeMem does when a page
// hits the cooling threshold. The sweep shards by slot range; per-shard
// totals are integer sums reduced in shard index order, so the result
// is exactly the serial one at any worker count.
func (f *FreqTracker) Cool() {
	plan := shard.NewPlan(len(f.counts))
	var totals [shard.DefaultShards]uint64
	var dropped [shard.DefaultShards]int
	shard.Run(f.workers, plan.Shards, func(s int) {
		lo, hi := plan.Range(s)
		var tot uint64
		d := 0
		for i := lo; i < hi; i++ {
			c := f.counts[i]
			if c == 0 {
				continue
			}
			c /= 2
			f.counts[i] = c
			if c == 0 {
				d++
			} else {
				tot += uint64(c)
			}
		}
		totals[s] = tot
		dropped[s] = d
	})
	var total uint64
	drop := 0
	for s := 0; s < plan.Shards; s++ {
		total += totals[s]
		drop += dropped[s]
	}
	f.total = total
	f.tracked -= drop
	f.cools++
}

// Count returns the frequency count of id.
func (f *FreqTracker) Count(id pages.PageID) uint32 {
	if int(id) < 0 || int(id) >= len(f.counts) {
		return 0
	}
	return f.counts[id]
}

// Total returns the cumulative count across pages.
func (f *FreqTracker) Total() uint64 { return f.total }

// Cools returns how many cooling passes have run.
func (f *FreqTracker) Cools() int { return f.cools }

// Probability estimates the access probability of id: its count over
// the total count (0 when nothing has been sampled).
func (f *FreqTracker) Probability(id pages.PageID) float64 {
	if f.total == 0 {
		return 0
	}
	return float64(f.Count(id)) / float64(f.total)
}

// Tracked returns the number of pages with a nonzero count.
func (f *FreqTracker) Tracked() int { return f.tracked }

// ForEach visits every (page, count) pair with a nonzero count, in
// ascending page-ID order.
func (f *FreqTracker) ForEach(fn func(id pages.PageID, count uint32)) {
	for i, c := range f.counts {
		if c > 0 {
			fn(pages.PageID(i), c)
		}
	}
}

// ForEachHottest visits every (page, count) pair in descending count
// order (page-ID ascending within a count), via a counting sort over
// the bounded count domain — O(n) per call and deterministic. Policies
// that migrate "hottest pages first" under a rate limit use this so
// the limited budget lands on the pages that matter.
func (f *FreqTracker) ForEachHottest(fn func(id pages.PageID, count uint32) (stop bool)) {
	maxCount := uint32(0)
	for _, c := range f.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	buckets := make([][]pages.PageID, maxCount+1)
	for i, c := range f.counts {
		if c > 0 {
			buckets[c] = append(buckets[c], pages.PageID(i))
		}
	}
	// The dense scan fills each bucket in ascending ID order already.
	for c := int(maxCount); c >= 1; c-- {
		for _, id := range buckets[c] {
			if fn(id, uint32(c)) {
				return
			}
		}
	}
}

// Forget drops a page's count (page died in a split/coalesce).
func (f *FreqTracker) Forget(id pages.PageID) {
	if int(id) < 0 || int(id) >= len(f.counts) {
		return
	}
	if c := f.counts[id]; c > 0 {
		f.total -= uint64(c)
		f.counts[id] = 0
		f.tracked--
	}
}

// AppendHot appends, in ascending page-ID order, every page whose count
// is at least threshold (clamped up to 1) and for which keep (when
// non-nil) returns true, stopping at max when max is positive. The scan
// shards by slot range with per-shard buffers capped at max,
// concatenated in shard index order and truncated, so the result is the
// serial scan's first max hot IDs at any worker count.
func (f *FreqTracker) AppendHot(dst []pages.PageID, threshold uint32, keep func(id pages.PageID) bool, max int) []pages.PageID {
	if threshold < 1 {
		threshold = 1
	}
	plan := shard.NewPlan(len(f.counts))
	shard.Run(f.workers, plan.Shards, func(s int) {
		lo, hi := plan.Range(s)
		buf := f.shardIDs[s][:0]
		for i := lo; i < hi && (max <= 0 || len(buf) < max); i++ {
			if f.counts[i] < threshold {
				continue
			}
			id := pages.PageID(i)
			if keep != nil && !keep(id) {
				continue
			}
			buf = append(buf, id)
		}
		f.shardIDs[s] = buf
	})
	for s := 0; s < plan.Shards; s++ {
		take := f.shardIDs[s]
		if max > 0 && len(dst)+len(take) > max {
			take = take[:max-len(dst)]
		}
		dst = append(dst, take...)
		if max > 0 && len(dst) >= max {
			break
		}
	}
	return dst
}

// BytesByCount fills hist with the live bytes resting at each count
// (clamped to len(hist)-1) — the access histogram MEMTIS derives its
// dynamic hot threshold from. hist is zeroed first; untracked and dead
// pages are skipped, so hist[0] stays zero. The per-shard histograms
// are integer sums reduced in shard index order.
func (f *FreqTracker) BytesByCount(hist []int64, v pages.View) {
	for i := range hist {
		hist[i] = 0
	}
	if len(hist) == 0 {
		return
	}
	plan := shard.NewPlan(len(f.counts))
	shard.Run(f.workers, plan.Shards, func(s int) {
		h := f.shardHist[s]
		if cap(h) < len(hist) {
			h = make([]int64, len(hist))
			f.shardHist[s] = h
		}
		h = h[:len(hist)]
		for i := range h {
			h[i] = 0
		}
		lo, hi := plan.Range(s)
		for i := lo; i < hi; i++ {
			c := f.counts[i]
			// The count array can outgrow the address space's slot
			// arrays (doubling growth), so v is only indexed once a
			// nonzero count proves the page was a live touch target.
			if c == 0 || v.Dead[i] {
				continue
			}
			b := int(c)
			if b >= len(hist) {
				b = len(hist) - 1
			}
			h[b] += int64(v.Bytes[i])
		}
	})
	for s := 0; s < plan.Shards; s++ {
		h := f.shardHist[s]
		if len(h) < len(hist) {
			continue
		}
		for c := 1; c < len(hist); c++ {
			hist[c] += h[c]
		}
	}
}

// MemoryFootprintBytes reports the dense count array's storage cost:
// four bytes per allocated slot, the O(pages) bill that caps exact
// tracking around 10^6 pages.
func (f *FreqTracker) MemoryFootprintBytes() int64 {
	return int64(cap(f.counts)) * 4
}
