package memsys

import (
	"fmt"
	"math"
)

// Source is a closed-loop traffic source: a group of cores that each
// keep a bounded number of memory requests in flight (the Line Fill
// Buffer limit of Section 3.1). Its request rate is therefore not fixed
// but determined by the loaded latencies of the tiers it touches:
// per-core read throughput is Inflight * 64 / L_avg.
type Source struct {
	// Name labels the source in diagnostics.
	Name string
	// Cores is the number of cores driving this source.
	Cores int
	// Inflight is the average number of in-flight memory (read)
	// requests each core sustains. For random 64 B GUPS accesses this
	// is well below the LFB size; larger objects raise it via
	// prefetching (Figure 8: 2.82x higher for 4 KB objects).
	Inflight float64
	// TierShare[t] is the fraction of this source's memory requests
	// that are served by tier t (the sum of access probabilities of its
	// pages in that tier). Shares must sum to 1.
	TierShare []float64
	// SeqFraction is the fraction of this source's traffic that is
	// sequential (row-buffer/prefetch friendly); the rest is random.
	SeqFraction float64
	// WriteFraction is the fraction of operations that also produce a
	// writeback. Writebacks add offered bytes but are serviced
	// asynchronously, so they do not gate the closed loop directly.
	WriteFraction float64
	// BytesPerRequest is the data moved per demand read (one cacheline
	// unless the source models larger-grain transfers).
	BytesPerRequest float64
}

// validate checks source invariants against a tier count.
func (s *Source) validate(numTiers int) error {
	if s.Cores < 0 {
		return fmt.Errorf("memsys: source %q: negative cores", s.Name)
	}
	if s.Inflight < 0 {
		return fmt.Errorf("memsys: source %q: negative inflight", s.Name)
	}
	if len(s.TierShare) != numTiers {
		return fmt.Errorf("memsys: source %q: %d tier shares for %d tiers", s.Name, len(s.TierShare), numTiers)
	}
	sum := 0.0
	for _, p := range s.TierShare {
		if p < -1e-9 {
			return fmt.Errorf("memsys: source %q: negative tier share %v", s.Name, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 && s.Cores > 0 && s.Inflight > 0 {
		return fmt.Errorf("memsys: source %q: tier shares sum to %v, want 1", s.Name, sum)
	}
	if s.SeqFraction < 0 || s.SeqFraction > 1 {
		return fmt.Errorf("memsys: source %q: seq fraction %v out of [0,1]", s.Name, s.SeqFraction)
	}
	if s.WriteFraction < 0 {
		return fmt.Errorf("memsys: source %q: negative write fraction", s.Name)
	}
	if s.BytesPerRequest <= 0 {
		return fmt.Errorf("memsys: source %q: bytes per request must be positive", s.Name)
	}
	return nil
}

// SourceResult reports the equilibrium behaviour of one source.
type SourceResult struct {
	// RequestRate is demand reads per second issued by the source.
	RequestRate float64
	// AvgLatencyNs is the share-weighted average read latency seen.
	AvgLatencyNs float64
	// TierRate[t] is demand reads per second served by tier t.
	TierRate []float64
}

// Equilibrium is the fixed point of the closed-loop system for one
// quantum: per-tier loaded latencies and rates consistent with every
// source's bounded in-flight budget.
type Equilibrium struct {
	// LatencyNs[t] is the loaded read latency of tier t.
	LatencyNs []float64
	// TierLoad[t] is the total offered load (bytes/sec, reads plus
	// writebacks plus any extra load such as page migrations).
	TierLoad []Load
	// TierReadRate[t] is total demand reads/sec to tier t across
	// sources (excluding ExtraLoad, which models non-demand traffic).
	TierReadRate []float64
	// Sources holds per-source results, index-aligned with the input.
	Sources []SourceResult
	// Iterations is how many damped iterations the solver used.
	Iterations int
}

// SolveOptions tunes the fixed-point iteration.
type SolveOptions struct {
	// MaxIterations bounds the damped iteration count (default 5000;
	// each iteration is a handful of float ops per tier).
	MaxIterations int
	// ToleranceNs is the per-tier latency convergence threshold
	// (default 0.01 ns).
	ToleranceNs float64
	// Damping in (0,1] is the step fraction toward the new latency
	// estimate each iteration (default 0.35; lower is more stable for
	// steep queueing curves).
	Damping float64
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 5000
	}
	if o.ToleranceNs <= 0 {
		o.ToleranceNs = 0.01
	}
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 0.35
	}
	return o
}

// Solve computes the closed-loop equilibrium: latencies L_t such that,
// when every source issues at rate Cores*Inflight/L_avg (its in-flight
// budget divided by the latency it experiences), the resulting offered
// load produces exactly those latencies.
//
// extraLoad[t] is additional open-loop traffic charged to tier t (page
// migration traffic; it consumes bandwidth without being part of any
// source's closed loop). extraLoad may be nil.
//
// Existence/uniqueness intuition: each source's offered load is a
// decreasing function of latency while each tier's latency is an
// increasing function of load, so the composed map is monotone and the
// damped iteration converges. Convergence is not an error condition:
// the iteration stops once no tier's damped step exceeds ToleranceNs,
// and if MaxIterations pass first it takes one half-step toward the
// model's response and returns that as the equilibrium (Iterations is
// then MaxIterations+1). Errors report invalid input only: a malformed
// source or an extraLoad of the wrong length.
func (tp *Topology) Solve(sources []Source, extraLoad []Load, opts SolveOptions) (*Equilibrium, error) {
	opts = opts.withDefaults()
	n := tp.NumTiers()
	for i := range sources {
		if err := sources[i].validate(n); err != nil {
			return nil, err
		}
	}
	if extraLoad != nil && len(extraLoad) != n {
		return nil, fmt.Errorf("memsys: extraLoad has %d entries for %d tiers", len(extraLoad), n)
	}

	// Start from (possibly degraded) unloaded latencies.
	lat := make([]float64, n)
	for t := 0; t < n; t++ {
		lat[t] = tp.tiers[t].UnloadedLatencyNs()
	}

	load := make([]Load, n)
	readRate := make([]float64, n)
	// Adaptive damping: if the update stops shrinking the step, the
	// iteration is in a limit cycle around a steep region of the
	// queueing curve; halving the step restores contraction.
	damping := opts.Damping
	prevDelta := math.Inf(1)
	iter := 0
	for ; iter < opts.MaxIterations; iter++ {
		for t := range load {
			if extraLoad != nil {
				load[t] = extraLoad[t]
			} else {
				load[t] = Load{}
			}
			readRate[t] = 0
		}
		// Offered load at current latency estimate.
		for i := range sources {
			s := &sources[i]
			if s.Cores == 0 || s.Inflight == 0 {
				continue
			}
			avg := 0.0
			for t := 0; t < n; t++ {
				avg += s.TierShare[t] * lat[t]
			}
			if avg <= 0 {
				continue
			}
			// Requests/sec: in-flight budget over latency (ns -> s).
			rate := float64(s.Cores) * s.Inflight / (avg * 1e-9)
			bytesPerReq := s.BytesPerRequest * (1 + s.WriteFraction)
			for t := 0; t < n; t++ {
				b := rate * s.TierShare[t] * bytesPerReq
				load[t].SeqBytes += b * s.SeqFraction
				load[t].RandBytes += b * (1 - s.SeqFraction)
				readRate[t] += rate * s.TierShare[t]
			}
		}
		// Relax latencies toward the model's response.
		maxDelta := 0.0
		for t := 0; t < n; t++ {
			target := tp.tiers[t].LoadedLatencyNs(load[t])
			next := lat[t] + damping*(target-lat[t])
			if d := math.Abs(next - lat[t]); d > maxDelta {
				maxDelta = d
			}
			lat[t] = next
		}
		if maxDelta < opts.ToleranceNs {
			break
		}
		if maxDelta >= prevDelta*0.999 && damping > 0.005 {
			damping /= 2
		}
		prevDelta = maxDelta
	}
	if iter == opts.MaxIterations {
		// The damped iteration is in a small limit cycle around the
		// fixed point (this happens only in deep saturation, where the
		// queueing curve is nearly vertical). The cycle brackets the
		// fixed point, so one more half-step toward the response lands
		// inside it; accept that as the equilibrium rather than
		// failing an entire experiment over a sub-nanosecond wobble.
		for t := 0; t < n; t++ {
			target := tp.tiers[t].LoadedLatencyNs(load[t])
			lat[t] = (lat[t] + target) / 2
		}
	}

	eq := &Equilibrium{
		LatencyNs:    lat,
		TierLoad:     load,
		TierReadRate: readRate,
		Sources:      make([]SourceResult, len(sources)),
		Iterations:   iter + 1,
	}
	for i := range sources {
		s := &sources[i]
		res := SourceResult{TierRate: make([]float64, n)}
		if s.Cores > 0 && s.Inflight > 0 {
			avg := 0.0
			for t := 0; t < n; t++ {
				avg += s.TierShare[t] * lat[t]
			}
			res.AvgLatencyNs = avg
			res.RequestRate = float64(s.Cores) * s.Inflight / (avg * 1e-9)
			for t := 0; t < n; t++ {
				res.TierRate[t] = res.RequestRate * s.TierShare[t]
			}
		}
		eq.Sources[i] = res
	}
	return eq, nil
}
