package memsys

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTierConfigValidate(t *testing.T) {
	base := DualSocketXeonDefault()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []func(*TierConfig){
		func(c *TierConfig) { c.CapacityBytes = 0 },
		func(c *TierConfig) { c.UnloadedLatencyNs = -1 },
		func(c *TierConfig) { c.PeakBandwidth = 0 },
		func(c *TierConfig) { c.SeqEfficiency = 0 },
		func(c *TierConfig) { c.SeqEfficiency = 1.5 },
		func(c *TierConfig) { c.RandEfficiency = -0.2 },
		func(c *TierConfig) { c.QueueLatencyNs = -5 },
		func(c *TierConfig) { c.QueueExponent = 0 },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

func TestUnloadedLatencyAtZeroLoad(t *testing.T) {
	tier, err := NewTier(DualSocketXeonDefault())
	if err != nil {
		t.Fatal(err)
	}
	if got := tier.LoadedLatencyNs(Load{}); got != 70 {
		t.Fatalf("latency at zero load = %v, want 70", got)
	}
}

// Property: loaded latency is monotone non-decreasing in offered load.
func TestLatencyMonotoneInLoad(t *testing.T) {
	tier, _ := NewTier(DualSocketXeonDefault())
	f := func(a, b uint32, seq bool) bool {
		lo, hi := float64(a%200)*1e9, float64(b%200)*1e9
		if lo > hi {
			lo, hi = hi, lo
		}
		var l1, l2 Load
		if seq {
			l1, l2 = Load{SeqBytes: lo}, Load{SeqBytes: hi}
		} else {
			l1, l2 = Load{RandBytes: lo}, Load{RandBytes: hi}
		}
		return tier.LoadedLatencyNs(l1) <= tier.LoadedLatencyNs(l2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: at equal total bytes, random traffic is never cheaper to
// serve than sequential traffic (lower effective capacity).
func TestRandomLoadAtLeastAsSlowAsSequential(t *testing.T) {
	tier, _ := NewTier(DualSocketXeonDefault())
	f := func(a uint32) bool {
		b := float64(a%170) * 1e9
		seq := tier.LoadedLatencyNs(Load{SeqBytes: b})
		rnd := tier.LoadedLatencyNs(Load{RandBytes: b})
		return rnd >= seq-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEffectiveCapacityMix(t *testing.T) {
	tier, _ := NewTier(DualSocketXeonDefault())
	cfg := tier.Config()
	pureSeq := tier.EffectiveCapacity(Load{SeqBytes: 1e9})
	pureRand := tier.EffectiveCapacity(Load{RandBytes: 1e9})
	if math.Abs(pureSeq-cfg.PeakBandwidth*cfg.SeqEfficiency) > 1 {
		t.Errorf("pure seq capacity = %v", pureSeq)
	}
	if math.Abs(pureRand-cfg.PeakBandwidth*cfg.RandEfficiency) > 1 {
		t.Errorf("pure rand capacity = %v", pureRand)
	}
	mixed := tier.EffectiveCapacity(Load{SeqBytes: 1e9, RandBytes: 1e9})
	if mixed <= pureRand || mixed >= pureSeq {
		t.Errorf("mixed capacity %v not between %v and %v", mixed, pureRand, pureSeq)
	}
}

func TestUtilizationCapped(t *testing.T) {
	tier, _ := NewTier(DualSocketXeonDefault())
	if rho := tier.Utilization(Load{RandBytes: 1e15}); rho > rhoMax {
		t.Fatalf("utilization %v exceeds cap", rho)
	}
	if !math.IsInf(tier.LoadedLatencyNs(Load{RandBytes: 1e15}), 0) &&
		tier.LoadedLatencyNs(Load{RandBytes: 1e15}) < tier.Config().UnloadedLatencyNs {
		t.Fatal("overload latency below unloaded")
	}
}

func TestLoadArithmetic(t *testing.T) {
	a := Load{SeqBytes: 1, RandBytes: 2}
	b := Load{SeqBytes: 3, RandBytes: 4}
	if got := a.Add(b); got != (Load{SeqBytes: 4, RandBytes: 6}) {
		t.Fatalf("Add = %+v", got)
	}
	if got := a.Scale(2); got != (Load{SeqBytes: 2, RandBytes: 4}) {
		t.Fatalf("Scale = %+v", got)
	}
	if a.Total() != 3 {
		t.Fatalf("Total = %v", a.Total())
	}
}

func TestTopologyRejectsMisorderedTiers(t *testing.T) {
	fast := DualSocketXeonDefault()
	slow := DualSocketXeonRemote()
	if _, err := NewTopology(slow, fast); err == nil {
		t.Fatal("topology with faster alternate tier accepted")
	}
	if _, err := NewTopology(); err == nil {
		t.Fatal("empty topology accepted")
	}
}

func TestTopologyTierLimit(t *testing.T) {
	cfgs := []TierConfig{DualSocketXeonDefault()}
	for len(cfgs) < maxTiers {
		cfgs = append(cfgs, DualSocketXeonRemote())
	}
	tp, err := NewTopology(cfgs...)
	if err != nil {
		t.Fatalf("%d tiers rejected: %v", maxTiers, err)
	}
	if last := TierID(tp.NumTiers() - 1); int(last) != maxTiers-1 {
		t.Fatalf("last tier ID %d, want %d", last, maxTiers-1)
	}
	if _, err := NewTopology(append(cfgs, DualSocketXeonRemote())...); err == nil {
		t.Fatalf("%d tiers accepted", maxTiers+1)
	}
}

func TestTopologyAccessors(t *testing.T) {
	tp := MustTopology(DualSocketXeonDefault(), DualSocketXeonRemote())
	if tp.NumTiers() != 2 {
		t.Fatalf("NumTiers = %d", tp.NumTiers())
	}
	if tp.Capacity(0) != 32*GiB || tp.Capacity(1) != 96*GiB {
		t.Fatalf("capacities = %d, %d", tp.Capacity(0), tp.Capacity(1))
	}
	if tp.TotalCapacity() != 128*GiB {
		t.Fatalf("total capacity = %d", tp.TotalCapacity())
	}
	if tp.Tier(1).Config().Name != "remote-socket" {
		t.Fatalf("tier 1 = %q", tp.Tier(1).Config().Name)
	}
}

func TestCXLTierSane(t *testing.T) {
	cfg := CXLTier(256 * GiB)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.UnloadedLatencyNs < DualSocketXeonDefault().UnloadedLatencyNs {
		t.Fatal("CXL tier faster than local DDR")
	}
}
