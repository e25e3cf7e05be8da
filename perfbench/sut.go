package main

import (
	"fmt"
	"math"

	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/sim"
	"colloid/internal/simtest"
	"colloid/internal/tenant"
)

// maxSolveIterations is memsys.Solve's default iteration cap; a solve
// that used all of them stopped without converging.
const maxSolveIterations = 5000

// sut is one system under test: a single-workload engine or a tenant
// cluster (whose engine is the cluster's), plus the bookkeeping the
// benchmark keeps outside the timed Step calls.
type sut struct {
	eng     *sim.Engine
	cluster *tenant.Cluster
	systems []sim.System   // unwrapped, tenant (name) order
	classes []tenant.Class // tenant order
	wss     int64          // configured working set across all tenants

	quanta   int
	reqSum   []float64 // per tenant: Σ request rate
	latSum   []float64 // per tenant: Σ request-rate-weighted latency
	iterSum  int64
	iterMax  int
	capped   int
	checkErr error // first output-check violation
}

// newSUT wraps an engine (and its cluster, if any); wss is the working
// set the workload configured, summed over tenants.
func newSUT(e *sim.Engine, c *tenant.Cluster, systems []sim.System, classes []tenant.Class, wss int64) *sut {
	n := e.NumTenants()
	return &sut{eng: e, cluster: c, systems: systems, classes: classes, wss: wss,
		reqSum: make([]float64, n), latSum: make([]float64, n)}
}

// step advances one quantum through the public step call.
func (s *sut) step() error {
	if s.cluster != nil {
		return s.cluster.Step()
	}
	return s.eng.Step()
}

// observe runs after every quantum, outside the timed call: it
// accumulates the solver and request statistics and checks that each
// tier holds no more than its capacity and that the bytes resident
// across tiers equal the installed working set. It returns false when
// the quantum broke a check.
func (s *sut) observe() bool {
	s.quanta++
	eq := s.eng.LastEquilibrium()
	s.iterSum += int64(eq.Iterations)
	if eq.Iterations > s.iterMax {
		s.iterMax = eq.Iterations
	}
	if eq.Iterations >= maxSolveIterations {
		s.capped++
	}
	for i := range s.reqSum {
		r := eq.Sources[i]
		s.reqSum[i] += r.RequestRate
		s.latSum[i] += r.AvgLatencyNs * r.RequestRate
	}
	topo := s.eng.Topology()
	var resident int64
	ok := true
	for t := 0; t < topo.NumTiers(); t++ {
		var tierBytes int64
		for i := 0; i < s.eng.NumTenants(); i++ {
			tierBytes += s.eng.Tenant(i).AS().TierBytes(memsys.TierID(t))
		}
		resident += tierBytes
		if c := topo.Capacity(memsys.TierID(t)); tierBytes > c {
			s.fail(fmt.Errorf("perfbench: quantum %d: tier %d holds %d bytes over capacity %d", s.quanta, t, tierBytes, c))
			ok = false
		}
	}
	if resident != s.wss {
		s.fail(fmt.Errorf("perfbench: quantum %d: %d bytes resident, %d installed", s.quanta, resident, s.wss))
		ok = false
	}
	return ok
}

func (s *sut) fail(err error) {
	if s.checkErr == nil {
		s.checkErr = err
	}
}

// outcome is an arm's simulated result. It is a pure function of the
// seed: every run of the same seed reproduces it bit for bit.
type outcome struct {
	opsPerSec    float64 // steady tail, summed over tenants
	latencyGap   float64 // |L_default − L_alternate| / L_alternate over the tail
	interference float64 // request-weighted interference of premium tenants
	premiumReqs  float64 // the weight behind interference
}

// finish computes the arm's outcome and runs the end-of-run checks: a
// non-empty trace and a finite, positive steady throughput. For a
// cluster it also checks the benchmark's interference against the
// cluster's own reports.
func (s *sut) finish(tailSec float64) (outcome, error) {
	var o outcome
	n := s.eng.NumTenants()
	topo := s.eng.Topology()
	var tailLat []float64
	var reports []tenant.Report
	if s.cluster != nil {
		reports = s.cluster.Reports(tailSec)
	}
	var premLat float64
	for i := 0; i < n; i++ {
		h := s.eng.Tenant(i)
		if len(h.Samples()) == 0 {
			return o, fmt.Errorf("perfbench: tenant %d recorded no trace", i)
		}
		st := h.SteadyState(tailSec)
		o.opsPerSec += st.OpsPerSec
		if tailLat == nil {
			tailLat = st.LatencyNs
		}
		if s.classes[i] != tenant.Premium || s.reqSum[i] <= 0 {
			continue
		}
		share := h.AS().TierShare()
		var ideal float64
		for t := 0; t < topo.NumTiers(); t++ {
			ideal += share[t] * topo.Tier(memsys.TierID(t)).UnloadedLatencyNs()
		}
		inter := s.latSum[i] / s.reqSum[i] / ideal
		if reports != nil && math.Abs(inter-reports[i].Interference) > 1e-9*inter {
			return o, fmt.Errorf("perfbench: tenant %s: interference %v, cluster reports %v", reports[i].Name, inter, reports[i].Interference)
		}
		premLat += inter * s.reqSum[i]
		o.premiumReqs += s.reqSum[i]
	}
	if !(o.opsPerSec > 0) || math.IsInf(o.opsPerSec, 0) {
		return o, fmt.Errorf("perfbench: steady throughput %v is not finite and positive", o.opsPerSec)
	}
	if o.premiumReqs > 0 {
		o.interference = premLat / o.premiumReqs
	}
	// Every workload has two tiers: default and alternate.
	ld, la := tailLat[memsys.DefaultTier], tailLat[1]
	o.latencyGap = math.Abs(ld-la) / la
	return o, nil
}

// digest folds the arm's observable results — every tenant's sample
// trace and final placement, in tenant order — the way the golden tests
// fold them.
func (s *sut) digest(d *simtest.Digest) {
	for i := 0; i < s.eng.NumTenants(); i++ {
		h := s.eng.Tenant(i)
		d.Samples(h.Samples())
		d.Placement(h.AS())
	}
}

// trackerBytes sums the heat-tracker footprint of every HeMem system.
func (s *sut) trackerBytes() int64 {
	var b int64
	for _, sys := range s.systems {
		if hs, ok := sys.(*hemem.System); ok {
			b += hs.Stats().TrackerBytes
		}
	}
	return b
}
