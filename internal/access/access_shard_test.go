package access

import (
	"sort"
	"testing"

	"colloid/internal/memsys"
	"colloid/internal/pages"
	"colloid/internal/stats"
)

func shardTestSpace(t *testing.T) *pages.AddressSpace {
	t.Helper()
	topo := memsys.MustTopology(memsys.DualSocketXeonDefault(), memsys.DualSocketXeonRemote())
	as, err := pages.NewAddressSpace(topo, 8*memsys.GiB, pages.HugePageBytes)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

// The sampled page sequence must be identical at every worker count:
// same CDF bytes, same binary-search results, same RNG consumption.
func TestSamplerWorkerInvariant(t *testing.T) {
	draw := func(workers int) []pages.PageID {
		as := shardTestSpace(t)
		as.SetWorkers(workers)
		rng := stats.NewRNG(11)
		for _, id := range as.LiveIDs() {
			if rng.Float64() < 0.7 { // leave some zero-weight pages
				as.SetWeight(id, rng.Float64())
			}
		}
		s := NewSampler(as, stats.NewRNG(5))
		s.SetWorkers(workers)
		out := s.SampleN(nil, 512)
		// Mutate weights to force a second rebuild mid-stream.
		as.SetWeight(as.LiveIDs()[3], 2.0)
		return s.SampleN(out, 512)
	}
	want := draw(1)
	for _, workers := range []int{2, 4, 7, 16} {
		got := draw(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d samples, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: sample %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// Split/Coalesce churn between samples exercises the sharded live-index
// rebuild feeding the sharded CDF rebuild.
func TestSamplerWorkerInvariantUnderChurn(t *testing.T) {
	draw := func(workers int) []pages.PageID {
		as := shardTestSpace(t)
		as.SetWorkers(workers)
		rng := stats.NewRNG(21)
		for _, id := range as.LiveIDs() {
			as.SetWeight(id, rng.Float64())
		}
		s := NewSampler(as, stats.NewRNG(9))
		s.SetWorkers(workers)
		var out []pages.PageID
		var parents []pages.PageID
		var kids [][]pages.PageID
		for round := 0; round < 6; round++ {
			out = s.SampleN(out, 128)
			ids := as.LiveIDs()
			id := ids[rng.Intn(len(ids))]
			if p := as.Get(id); !p.Dead && p.Bytes == pages.HugePageBytes {
				c, err := as.Split(id, 8)
				if err != nil {
					t.Fatal(err)
				}
				parents = append(parents, id)
				kids = append(kids, c)
			}
			if len(parents) > 2 {
				if err := as.Coalesce(parents[0], kids[0]); err != nil {
					t.Fatal(err)
				}
				parents, kids = parents[1:], kids[1:]
			}
		}
		return out
	}
	want := draw(1)
	for _, workers := range []int{2, 4, 7} {
		got := draw(workers)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: sample %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// Cooling is integer arithmetic: the sharded pass must match the serial
// one exactly — counts, total, and tracked.
func TestCoolWorkerInvariant(t *testing.T) {
	build := func(workers int) *FreqTracker {
		f := NewFreqTracker(1 << 20) // high threshold: cool manually
		f.SetWorkers(workers)
		rng := stats.NewRNG(13)
		for i := 0; i < 20000; i++ {
			f.Touch(pages.PageID(rng.Intn(4096)))
		}
		f.Cool()
		f.Cool()
		return f
	}
	want := build(1)
	for _, workers := range []int{2, 4, 7, 16} {
		got := build(workers)
		if got.Total() != want.Total() || got.Tracked() != want.Tracked() || got.Cools() != want.Cools() {
			t.Fatalf("workers=%d: total/tracked/cools = %d/%d/%d, want %d/%d/%d",
				workers, got.Total(), got.Tracked(), got.Cools(), want.Total(), want.Tracked(), want.Cools())
		}
		for id := pages.PageID(0); int(id) < 4096; id++ {
			if got.Count(id) != want.Count(id) {
				t.Fatalf("workers=%d: count[%d] = %d, want %d", workers, id, got.Count(id), want.Count(id))
			}
		}
	}
}

// The dense tracker must keep Tracked/Total consistent through the
// touch → cool → forget lifecycle.
func TestTrackerLifecycleConsistency(t *testing.T) {
	f := NewFreqTracker(8)
	for i := 0; i < 7; i++ {
		f.Touch(3)
	}
	f.Touch(100) // sparse ID growth
	if f.Tracked() != 2 {
		t.Fatalf("tracked = %d, want 2", f.Tracked())
	}
	f.Touch(3) // hits threshold 8 → cools: 3 has 8/2=4, 100 has 1/2=0
	if f.Cools() != 1 {
		t.Fatalf("cools = %d, want 1", f.Cools())
	}
	if f.Count(3) != 4 || f.Count(100) != 0 {
		t.Fatalf("counts after cool = %d,%d, want 4,0", f.Count(3), f.Count(100))
	}
	if f.Tracked() != 1 || f.Total() != 4 {
		t.Fatalf("tracked/total = %d/%d, want 1/4", f.Tracked(), f.Total())
	}
	f.Forget(3)
	if f.Tracked() != 0 || f.Total() != 0 {
		t.Fatalf("after forget: tracked/total = %d/%d, want 0/0", f.Tracked(), f.Total())
	}
	f.Forget(100000) // out of range: no-op
	if f.Count(100000) != 0 {
		t.Fatal("out-of-range count not zero")
	}
}

// Draws before and after the sampler builds its guide table select the
// page a binary search of the whole CDF selects, and a rebuild drops
// the table until the new CDF has served enough draws.
func TestSamplerGuideMatchesBinarySearch(t *testing.T) {
	as := shardTestSpace(t)
	rng := stats.NewRNG(7)
	for _, id := range as.LiveIDs() {
		if rng.Float64() < 0.8 {
			w := rng.Float64()
			as.SetWeight(id, w*w*w)
		}
	}
	s := NewSampler(as, stats.NewRNG(9))
	ref := stats.NewRNG(9)
	check := func(draws int) {
		t.Helper()
		for i := 0; i < draws; i++ {
			got := s.Sample()
			x := ref.Float64() * s.total
			want := s.ids[min(sort.SearchFloat64s(s.cum, x), len(s.ids)-1)]
			if got != want {
				t.Fatalf("draw %d (guide %d entries): page %d, binary search %d", i, len(s.guide), got, want)
			}
		}
	}
	check(1)
	after := len(s.cum) / guideAfter
	check(after - 2)
	if len(s.guide) != 0 {
		t.Fatalf("guide built after %d draws, before %d", after-1, after)
	}
	check(1)
	if len(s.guide) == 0 {
		t.Fatalf("no guide after %d draws", after)
	}
	check(2 * len(s.cum))
	as.SetWeight(as.LiveIDs()[5], 3.0)
	check(1)
	if len(s.guide) != 0 {
		t.Fatal("guide survived a rebuild")
	}
	check(len(s.cum))
}
