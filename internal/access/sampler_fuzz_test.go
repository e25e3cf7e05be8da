package access

import (
	"math"
	"sort"
	"testing"

	"colloid/internal/shard"
)

// fuzzWeights is the weight palette FuzzGuideSearch draws from: zeros
// (pages the sampler skips, shifting shard offsets), the smallest
// denormals, ordinary sizes and 1e300 (which swallows later small
// weights, giving equal cumulative values).
var fuzzWeights = []float64{0, 0, 1, 0.5, 3, math.SmallestNonzeroFloat64, 1e-310, 1e-300, 1e-3, 1e300, 7e299}

// FuzzGuideSearch checks the sampler's CDF search against
// sort.SearchFloat64s, with and without a guide, over CDFs built from
// the fuzzed weights the way Sampler.rebuild builds them (zero weights
// skipped, shard.NewPlan ranges each summed from its reduced base), for
// draws on every cutpoint, on every cumulative value and its float
// neighbours, and at fuzzed fractions of the total. Where weights span
// many orders of magnitude, a shard's last sum can round above the next
// shard's base, so the CDF dips at the boundary (corpus entry
// shard_boundary_dip); there the guided search must still land on a
// crossing of x.
func FuzzGuideSearch(f *testing.F) {
	f.Add([]byte{2, 2, 2}, uint64(0))
	f.Add([]byte{0, 2, 0, 0, 3, 9, 2, 5}, uint64(1<<63))
	f.Add([]byte{9, 2, 2, 2, 10, 5, 5}, uint64(12345678901234567))
	f.Add([]byte{5, 6, 5, 6, 0, 7}, uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, picks []byte, u uint64) {
		if len(picks) == 0 || len(picks) > 512 {
			return
		}
		w := make([]float64, len(picks))
		for i, p := range picks {
			w[i] = fuzzWeights[int(p)%len(fuzzWeights)]
			if p >= 128 {
				// The high half of the byte range scales a palette
				// weight, so cumulative values need not be round.
				w[i] *= 1 + float64(p)/97
			}
		}
		cum := shardedCDF(w)
		n := len(cum)
		if n == 0 {
			return // no weighted page: Sample returns NoPage first
		}
		total := cum[n-1]
		guide := buildGuide(nil, cum, total)
		m := len(guide)
		if m != (n+guideSpan-1)/guideSpan {
			t.Fatalf("guide has %d entries for %d weights", m, n)
		}
		for k, g := range guide {
			if g < 0 || int(g) > n || (k > 0 && g < guide[k-1]) {
				t.Fatalf("guide[%d] = %d out of order or range (n = %d)", k, g, n)
			}
		}
		sorted := sort.Float64sAreSorted(cum)
		check := func(x float64) {
			// Unguided, the search is sort.SearchFloat64s, dip or not.
			want := sort.SearchFloat64s(cum, x)
			if got := guideSearch(cum, nil, total, x); got != want {
				t.Fatalf("unguided guideSearch(x = %v) = %d, binary search %d (cum %v)", x, got, want, cum)
			}
			got := guideSearch(cum, guide, total, x)
			if sorted {
				if got != want {
					t.Fatalf("guideSearch(x = %v) = %d, binary search %d (total %v, cum %v)", x, got, want, total, cum)
				}
				return
			}
			// A dip at a shard boundary: the answer must still be a
			// place where the CDF crosses x.
			if (got < n && !(cum[got] >= x)) || (got > 0 && cum[got-1] >= x) {
				t.Fatalf("guideSearch(x = %v) = %d is not a crossing of x (cum %v)", x, got, cum)
			}
		}
		for k := 0; k <= m; k++ { // k = m: the total itself
			check(float64(k) * total / float64(m))
		}
		for _, c := range cum {
			check(c)
			check(math.Nextafter(c, math.Inf(-1)))
			check(math.Nextafter(c, math.Inf(1)))
		}
		// The sampler's draw: a uniform [0,1) fraction of the total.
		frac := float64(u>>11) / (1 << 53)
		check(frac * total)
		check(0)
		check(total)
		check(math.NaN())
	})
}

// shardedCDF builds the CDF of the pages weighted w the way
// Sampler.rebuild does: zero weights skipped, per-shard totals reduced
// in shard order into bases, and each shard's entries summed from its
// own base.
func shardedCDF(w []float64) []float64 {
	plan := shard.NewPlan(len(w))
	var cum []float64
	acc := 0.0
	for sh := 0; sh < plan.Shards; sh++ {
		lo, hi := plan.Range(sh)
		c, sum := acc, 0.0
		for _, x := range w[lo:hi] {
			if x > 0 {
				c += x
				cum = append(cum, c)
				sum += x
			}
		}
		acc += sum
	}
	return cum
}
