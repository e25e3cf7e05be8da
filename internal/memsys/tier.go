// Package memsys models a tiered memory system: memory tiers with
// capacity, unloaded latency, peak bandwidth, and a load-dependent
// queueing latency model, plus a closed-loop fixed-point solver that
// couples traffic sources (bounded in-flight requests per core) to
// per-tier loaded latencies.
//
// This package substitutes for the paper's hardware testbed (dual-socket
// Xeon 8362: local DDR4 at 70 ns / 205 GB/s, remote socket over UPI at
// 135 ns / 75 GB/s). The latency model is calibrated in
// calibrate_test.go against the paper's measured anchors: with the GUPS
// hot set packed in the default tier, default-tier latency inflates to
// roughly 2.5x / 3.8x / 5x its unloaded value at 1x / 2x / 3x antagonist
// intensity (Figure 2(a)), and the antagonist alone consumes about
// 51% / 65% / 70% of peak bandwidth (Section 2.1).
package memsys

import (
	"fmt"
	"math"
)

// Size constants in bytes.
const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30
)

// CachelineBytes is the size of one memory request, per the paper's
// throughput model T = N*64/L.
const CachelineBytes = 64.0

// TierID identifies a tier within a Topology. Tier 0 is always the
// default tier (lowest unloaded latency); higher IDs are alternate tiers.
// One byte is enough for maxTiers tiers and keeps the address space's
// per-page tier array at one byte a page.
type TierID int8

// maxTiers is the most tiers a Topology can hold.
const maxTiers = math.MaxInt8 + 1

// DefaultTier is the ID of the tier with the lowest unloaded latency.
const DefaultTier TierID = 0

// TierConfig describes the hardware characteristics of one memory tier.
type TierConfig struct {
	// Name is a human-readable label ("local-ddr", "cxl", ...).
	Name string
	// CapacityBytes is the usable capacity of the tier.
	CapacityBytes int64
	// UnloadedLatencyNs is the access latency with a single in-flight
	// request (the hardware-specified latency).
	UnloadedLatencyNs float64
	// PeakBandwidth is the theoretical maximum bandwidth in bytes/sec.
	PeakBandwidth float64
	// SeqEfficiency and RandEfficiency give the achievable fraction of
	// PeakBandwidth for purely sequential and purely random (single
	// cacheline) traffic. Real DRAM loses bandwidth to row misses and
	// bank conflicts under random access; interconnects lose less.
	SeqEfficiency  float64
	RandEfficiency float64
	// QueueLatencyNs scales the queueing term: the loaded latency is
	// UnloadedLatencyNs + QueueLatencyNs * rho^QueueExponent / (1-rho).
	QueueLatencyNs float64
	// QueueExponent shapes how early queueing sets in; >1 keeps latency
	// near unloaded at low utilization and lets it climb sharply as the
	// memory controller queues build (Section 3.1: latency can rise well
	// before bandwidth saturates).
	QueueExponent float64
}

// Validate reports a descriptive error for nonsensical configurations.
func (c *TierConfig) Validate() error {
	switch {
	case c.CapacityBytes <= 0:
		return fmt.Errorf("memsys: tier %q: capacity must be positive", c.Name)
	case c.UnloadedLatencyNs <= 0:
		return fmt.Errorf("memsys: tier %q: unloaded latency must be positive", c.Name)
	case c.PeakBandwidth <= 0:
		return fmt.Errorf("memsys: tier %q: peak bandwidth must be positive", c.Name)
	case c.SeqEfficiency <= 0 || c.SeqEfficiency > 1:
		return fmt.Errorf("memsys: tier %q: seq efficiency %v out of (0,1]", c.Name, c.SeqEfficiency)
	case c.RandEfficiency <= 0 || c.RandEfficiency > 1:
		return fmt.Errorf("memsys: tier %q: rand efficiency %v out of (0,1]", c.Name, c.RandEfficiency)
	case c.QueueLatencyNs < 0:
		return fmt.Errorf("memsys: tier %q: queue latency must be non-negative", c.Name)
	case c.QueueExponent <= 0:
		return fmt.Errorf("memsys: tier %q: queue exponent must be positive", c.Name)
	}
	return nil
}

// Load is the traffic offered to one tier, split by access pattern.
// Units are bytes per second. Both demand reads and writebacks count:
// writes consume interconnect and controller bandwidth even though only
// read latency gates application throughput (Section 3.1).
type Load struct {
	SeqBytes  float64
	RandBytes float64
}

// Total returns the total offered bytes/sec.
func (l Load) Total() float64 { return l.SeqBytes + l.RandBytes }

// Add returns the elementwise sum of two loads.
func (l Load) Add(o Load) Load {
	return Load{SeqBytes: l.SeqBytes + o.SeqBytes, RandBytes: l.RandBytes + o.RandBytes}
}

// Scale returns the load multiplied by f.
func (l Load) Scale(f float64) Load {
	return Load{SeqBytes: l.SeqBytes * f, RandBytes: l.RandBytes * f}
}

// rhoMax caps utilization so the queueing term stays finite; the
// closed-loop solver keeps equilibria below it in practice.
const rhoMax = 0.995

// Tier is an instantiated memory tier. Besides its immutable hardware
// configuration it carries a mutable degradation state (fault
// injection: thermal throttling, a failing DIMM, a link retraining)
// that scales the unloaded latency up and the usable bandwidth down.
type Tier struct {
	cfg TierConfig
	// latFactor >= 1 multiplies the unloaded latency; bwFactor in
	// (0, 1] multiplies the achievable bandwidth. Both are 1 when the
	// tier is healthy.
	latFactor float64
	bwFactor  float64
}

// NewTier validates cfg and returns the tier.
func NewTier(cfg TierConfig) (*Tier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Tier{cfg: cfg, latFactor: 1, bwFactor: 1}, nil
}

// Config returns the tier's configuration.
func (t *Tier) Config() TierConfig { return t.cfg }

// SetDegradation installs fault-injection scaling: the unloaded latency
// is multiplied by latencyFactor (>= 1) and the achievable bandwidth by
// bandwidthFactor (in (0, 1]). SetDegradation(1, 1) restores health.
func (t *Tier) SetDegradation(latencyFactor, bandwidthFactor float64) error {
	if latencyFactor < 1 {
		return fmt.Errorf("memsys: tier %q: latency degradation factor %v < 1", t.cfg.Name, latencyFactor)
	}
	if bandwidthFactor <= 0 || bandwidthFactor > 1 {
		return fmt.Errorf("memsys: tier %q: bandwidth degradation factor %v out of (0,1]", t.cfg.Name, bandwidthFactor)
	}
	t.latFactor = latencyFactor
	t.bwFactor = bandwidthFactor
	return nil
}

// Degradation returns the current (latencyFactor, bandwidthFactor)
// pair; (1, 1) means healthy.
func (t *Tier) Degradation() (latencyFactor, bandwidthFactor float64) {
	return t.latFactor, t.bwFactor
}

// UnloadedLatencyNs returns the effective unloaded latency, including
// any injected degradation.
func (t *Tier) UnloadedLatencyNs() float64 {
	return t.cfg.UnloadedLatencyNs * t.latFactor
}

// EffectiveCapacity returns the achievable bandwidth (bytes/sec) for the
// given traffic mix: peak bandwidth derated by the pattern-weighted
// efficiency. A pure-sequential stream achieves SeqEfficiency of peak; a
// pure random-cacheline stream achieves RandEfficiency.
func (t *Tier) EffectiveCapacity(load Load) float64 {
	total := load.Total()
	if total <= 0 {
		// With no traffic the mix is irrelevant; use the sequential
		// ceiling so utilization reads as zero either way.
		return t.cfg.PeakBandwidth * t.cfg.SeqEfficiency * t.bwFactor
	}
	wSeq := load.SeqBytes / total
	eff := wSeq*t.cfg.SeqEfficiency + (1-wSeq)*t.cfg.RandEfficiency
	return t.cfg.PeakBandwidth * eff * t.bwFactor
}

// Utilization returns offered load over effective capacity, capped at
// rhoMax.
func (t *Tier) Utilization(load Load) float64 {
	rho := load.Total() / t.EffectiveCapacity(load)
	if rho > rhoMax {
		rho = rhoMax
	}
	if rho < 0 {
		rho = 0
	}
	return rho
}

// LoadedLatencyNs returns the average access latency (ns) of the tier
// under the offered load: the unloaded latency plus a queueing term that
// grows without bound as utilization approaches the effective capacity.
// This is the "memory interconnect contention" regime of Section 3.1 —
// latency inflates due to queueing at the memory controller even when
// the theoretical peak bandwidth is far from saturated, because the
// effective capacity under a random-access mix is much lower than peak.
func (t *Tier) LoadedLatencyNs(load Load) float64 {
	rho := t.Utilization(load)
	q := t.cfg.QueueLatencyNs * math.Pow(rho, t.cfg.QueueExponent) / (1 - rho)
	return t.UnloadedLatencyNs() + q
}

// DualSocketXeonDefault returns the default-tier configuration of the
// paper's testbed: socket-local DDR4, 32 GB, 70 ns unloaded, 8x 3200 MHz
// channels (205 GB/s theoretical).
func DualSocketXeonDefault() TierConfig {
	return TierConfig{
		Name:              "local-ddr",
		CapacityBytes:     32 * GiB,
		UnloadedLatencyNs: 70,
		PeakBandwidth:     205e9,
		SeqEfficiency:     0.85,
		RandEfficiency:    0.60,
		QueueLatencyNs:    60,
		QueueExponent:     1.5,
	}
}

// DualSocketXeonRemote returns the alternate-tier configuration of the
// paper's testbed: remote-socket memory over UPI, 96 GB, 135 ns
// unloaded, 75 GB/s per direction. Cacheline transfers over the serial
// processor interconnect lose less efficiency to access pattern than a
// DRAM controller does (the remote socket's own 8 channels sit behind
// the link), hence the higher random efficiency.
func DualSocketXeonRemote() TierConfig {
	return TierConfig{
		Name:              "remote-socket",
		CapacityBytes:     96 * GiB,
		UnloadedLatencyNs: 135,
		PeakBandwidth:     75e9,
		SeqEfficiency:     0.90,
		RandEfficiency:    0.80,
		QueueLatencyNs:    40,
		QueueExponent:     1.5,
	}
}

// CXLTier returns a CXL-attached memory expander tier typical of the
// ASIC controllers the paper cites (roughly 2x the default tier's
// unloaded latency, one x16 link of bandwidth).
func CXLTier(capacity int64) TierConfig {
	return TierConfig{
		Name:              "cxl",
		CapacityBytes:     capacity,
		UnloadedLatencyNs: 140,
		PeakBandwidth:     64e9,
		SeqEfficiency:     0.88,
		RandEfficiency:    0.78,
		QueueLatencyNs:    45,
		QueueExponent:     1.5,
	}
}
