package hemem

import (
	"testing"

	"colloid/internal/core"
	"colloid/internal/simtest"
	"colloid/internal/workloads"
)

func TestVanillaPacksHotSetAtZeroContention(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	sys := New(Config{})
	e, st := simtest.RunGUPS(t, sys, 0, 60, 1)
	// First-fit starts with ~44% of the hot set in the default tier;
	// HeMem should pack nearly all of it: p -> ~0.92.
	if p := e.AS().DefaultShare(); p < 0.85 {
		t.Fatalf("default share after convergence = %v, want > 0.85", p)
	}
	if st.LatencyNs[0] >= st.LatencyNs[1] {
		t.Fatalf("at 0x, default tier should stay faster: %v", st.LatencyNs)
	}
	stats := sys.Stats()
	if stats.HotPages == 0 || stats.Cools == 0 {
		t.Fatalf("tracker inactive: %+v", stats)
	}
}

func TestVanillaStaysPackedUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	e, st := simtest.RunGUPS(t, New(Config{}), workloads.Intensity3x, 60, 2)
	// Contention-agnostic: still packs hot pages in the default tier
	// even though its latency now far exceeds the alternate's
	// (Figure 2(b)).
	if p := e.AS().DefaultShare(); p < 0.85 {
		t.Fatalf("vanilla HeMem unpacked under contention: p = %v", p)
	}
	if st.LatencyNs[0] < 1.5*st.LatencyNs[1] {
		t.Fatalf("expected default tier much slower at 3x: %v", st.LatencyNs)
	}
}

func TestColloidBalancesLatenciesUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	e, st := simtest.RunGUPS(t, New(Config{Colloid: &core.Options{}}), workloads.Intensity3x, 120, 3)
	// Colloid moves the hot set out: p drops far below the packed
	// ~0.92 (Figure 6(a): best-case default share is ~4% of app
	// traffic at 3x).
	if p := e.AS().DefaultShare(); p > 0.5 {
		t.Fatalf("colloid did not demote under contention: p = %v", p)
	}
	// Latency gap must be far smaller than vanilla's (Figure 6(b)).
	ratio := st.LatencyNs[0] / st.LatencyNs[1]
	if ratio > 2.0 {
		t.Fatalf("latency ratio %v, want < 2 with colloid", ratio)
	}
}

func TestColloidBeatsVanillaUnderContention(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	_, vanilla := simtest.RunGUPS(t, New(Config{}), workloads.Intensity3x, 90, 4)
	_, colloid := simtest.RunGUPS(t, New(Config{Colloid: &core.Options{}}), workloads.Intensity3x, 90, 4)
	gain := colloid.OpsPerSec / vanilla.OpsPerSec
	// Figure 5: 2.3x at 3x intensity.
	if gain < 1.6 {
		t.Fatalf("colloid gain at 3x = %.2fx, want > 1.6x", gain)
	}
}

func TestColloidMatchesVanillaWithoutContention(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	_, vanilla := simtest.RunGUPS(t, New(Config{}), 0, 60, 5)
	_, colloid := simtest.RunGUPS(t, New(Config{Colloid: &core.Options{}}), 0, 60, 5)
	gain := colloid.OpsPerSec / vanilla.OpsPerSec
	// Figure 5 at 0x: Colloid matches the underlying system.
	if gain < 0.93 || gain > 1.1 {
		t.Fatalf("colloid/vanilla at 0x = %.3f, want ~1", gain)
	}
}

func TestNames(t *testing.T) {
	if New(Config{}).Name() != "hemem" {
		t.Fatal("vanilla name")
	}
	if New(Config{Colloid: &core.Options{}}).Name() != "hemem+colloid" {
		t.Fatal("colloid name")
	}
}

// TestColloidStepAllocs is a structural allocation guard on the real
// engine quantum: once a HeMem+Colloid engine is warm, one Engine.Step
// must not allocate more than it does today. HeMem's own per-sample
// and per-quantum path (classify, the candidate scan, PickPages and
// the migration batches) allocates nothing in steady state; the
// remaining allocations are the engine's (the fixed-point Solve, the
// CHA counter reads and the controller's observation).
func TestColloidStepAllocs(t *testing.T) {
	// Measured at 17 allocations per Step (go1.24, linux/amd64).
	const maxAllocsPerStep = 17
	sys := New(Config{Colloid: &core.Options{}})
	e, _ := simtest.RunGUPS(t, sys, workloads.Intensity3x, 5, 6)
	allocs := testing.AllocsPerRun(300, func() {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxAllocsPerStep {
		t.Fatalf("warm HeMem+Colloid Engine.Step allocates %v times, want <= %d", allocs, maxAllocsPerStep)
	}
}
