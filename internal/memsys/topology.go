package memsys

import (
	"fmt"
)

// Topology is an ordered set of memory tiers. Tier 0 must be the
// default tier (lowest unloaded latency); the constructor enforces this
// so that TierID 0 always means "default" throughout the codebase, as in
// the paper's two-tier discussion.
type Topology struct {
	tiers []*Tier
	// view, when non-nil, scopes capacity queries to one tenant's slice
	// of the physical tiers (see TenantView in ledger.go). Tier state
	// (latency, bandwidth, degradation) stays shared.
	view *tenantView
}

// NewTopology builds a topology from tier configs. The first config
// must have the smallest unloaded latency of the set.
func NewTopology(cfgs ...TierConfig) (*Topology, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("memsys: topology needs at least one tier")
	}
	if len(cfgs) > maxTiers {
		return nil, fmt.Errorf("memsys: topology of %d tiers exceeds the %d a TierID can name", len(cfgs), maxTiers)
	}
	tiers := make([]*Tier, 0, len(cfgs))
	for i, c := range cfgs {
		t, err := NewTier(c)
		if err != nil {
			return nil, err
		}
		if i > 0 && c.UnloadedLatencyNs < cfgs[0].UnloadedLatencyNs {
			return nil, fmt.Errorf(
				"memsys: tier %q (%.0f ns) is faster than the default tier %q (%.0f ns); tier 0 must be the default tier",
				c.Name, c.UnloadedLatencyNs, cfgs[0].Name, cfgs[0].UnloadedLatencyNs)
		}
		tiers = append(tiers, t)
	}
	return &Topology{tiers: tiers}, nil
}

// MustTopology is NewTopology that panics on error; for tests and
// examples with known-good configs.
func MustTopology(cfgs ...TierConfig) *Topology {
	tp, err := NewTopology(cfgs...)
	if err != nil {
		panic(err)
	}
	return tp
}

// Clone returns an independent copy of the topology: same tier
// configurations and current degradation state, separate mutable state.
// The simulator clones a topology before attaching a fault-injecting
// scenario so that sibling experiment arms sharing the original are not
// perturbed.
func (tp *Topology) Clone() *Topology {
	tiers := make([]*Tier, len(tp.tiers))
	for i, t := range tp.tiers {
		cp := *t
		tiers[i] = &cp
	}
	return &Topology{tiers: tiers, view: tp.view}
}

// Degrade injects a fault into the given tier: unloaded latency scales
// up by latencyFactor (>= 1), achievable bandwidth scales down by
// bandwidthFactor (in (0, 1]).
func (tp *Topology) Degrade(id TierID, latencyFactor, bandwidthFactor float64) error {
	if int(id) < 0 || int(id) >= len(tp.tiers) {
		return fmt.Errorf("memsys: degrade: no tier %d in %d-tier topology", id, len(tp.tiers))
	}
	return tp.tiers[id].SetDegradation(latencyFactor, bandwidthFactor)
}

// Restore clears any injected degradation on the given tier.
func (tp *Topology) Restore(id TierID) error {
	if int(id) < 0 || int(id) >= len(tp.tiers) {
		return fmt.Errorf("memsys: restore: no tier %d in %d-tier topology", id, len(tp.tiers))
	}
	return tp.tiers[id].SetDegradation(1, 1)
}

// NumTiers returns the number of tiers.
func (tp *Topology) NumTiers() int { return len(tp.tiers) }

// Tier returns the tier with the given ID.
func (tp *Topology) Tier(id TierID) *Tier {
	return tp.tiers[id]
}

// Capacity returns the capacity in bytes of the given tier. On a
// tenant view this is the tenant's slice of the tier: the static quota
// and/or what the other tenants have not taken, whichever is smaller
// (the tenant's own usage counts against the returned capacity, as it
// does on a physical topology).
func (tp *Topology) Capacity(id TierID) int64 {
	c := tp.tiers[id].cfg.CapacityBytes
	if tp.view == nil {
		return c
	}
	if tp.view.quota != nil && tp.view.quota[id] < c {
		c = tp.view.quota[id]
	}
	if tp.view.ledger != nil {
		if avail := tp.tiers[id].cfg.CapacityBytes - tp.view.ledger.Others(tp.view.tenant, id); avail < c {
			c = avail
		}
	}
	if c < 0 {
		c = 0
	}
	return c
}

// TotalCapacity returns the summed capacity of all tiers (per-tenant
// capacities on a tenant view).
func (tp *Topology) TotalCapacity() int64 {
	var sum int64
	for i := range tp.tiers {
		sum += tp.Capacity(TierID(i))
	}
	return sum
}
