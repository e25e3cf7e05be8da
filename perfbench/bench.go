package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"colloid/internal/obs"
	"colloid/internal/simtest"
)

// episode is one complete pass over a workload's arms from fresh
// construction: the unit that both the host-time and the simulated
// metrics are taken over.
type episode struct {
	digest    uint64
	clustered bool // stepped through tenant.Cluster.Step

	setupSec    float64 // construction plus install, summed over arms
	setupRefSec float64 // the same in reference seconds (see refclock.go)
	stepSec     float64 // Σ host time inside the Step calls
	simSec      float64
	quanta      int
	failed      int
	stepNs      []float64 // per-quantum Step host time
	stepRefNs   []float64 // the same in reference nanoseconds
	kernelNs    []float64 // every reference kernel time of the episode

	allocBytes  uint64 // over the Step calls
	mallocs     uint64
	gcCycles    uint32
	gcPauseNs   uint64
	liveHeapMiB float64 // after a forced GC with the arm still reachable, mean over arms

	outcomes []outcome // per arm
	counts   map[string]float64
}

// runEpisode builds and steps every arm of w with the given seed and
// shard worker count. A non-nil tracer records the span tree of the
// traced run.
func runEpisode(w *workload, seed uint64, workers int, tr *tracer) (*episode, error) {
	ep := &episode{counts: make(map[string]float64)}
	d := simtest.NewDigest()
	var ms0, ms1 runtime.MemStats
	rc := newRefClock()
	defer func() { ep.kernelNs = rc.kernels }()
	for _, arm := range w.arms {
		reg := obs.NewRegistry()
		rc.run()
		t0 := now()
		s, err := arm.build(seed, workers, reg, tr)
		setupNs := float64(now().Sub(t0))
		ep.setupSec += nsToSec(setupNs)
		rc.add(setupNs)
		ep.setupRefSec += nsToSec(rc.flush(nil)[0])
		if err != nil {
			return nil, fmt.Errorf("perfbench: %s/%s: setup: %w", w.name, arm.name, err)
		}
		ep.clustered = s.cluster != nil
		// Collect construction garbage before timing, so the timed Step
		// calls pay only for their own allocations' collection.
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		for q := 0; q < arm.quanta; q++ {
			id := tr.begin("quantum")
			t := now()
			err := s.step()
			dt := now().Sub(t)
			tr.end(id)
			ep.stepNs = append(ep.stepNs, float64(dt))
			ep.stepSec += dt.Seconds()
			ep.quanta++
			if err != nil {
				s.fail(fmt.Errorf("perfbench: %s/%s: quantum %d: %w", w.name, arm.name, q, err))
				ep.failed++
				break
			}
			if !s.observe() {
				ep.failed++
			}
			if rc.add(float64(dt)) {
				ep.stepRefNs = rc.flush(ep.stepRefNs)
			}
		}
		ep.stepRefNs = rc.flush(ep.stepRefNs)
		runtime.ReadMemStats(&ms1)
		ep.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		ep.mallocs += ms1.Mallocs - ms0.Mallocs
		ep.gcCycles += ms1.NumGC - ms0.NumGC
		ep.gcPauseNs += ms1.PauseTotalNs - ms0.PauseTotalNs
		ep.simSec += float64(s.quanta) * quantumSec
		if s.checkErr != nil {
			return ep, s.checkErr
		}
		o, err := s.finish(arm.tailSec)
		if err != nil {
			ep.failed++
			return ep, fmt.Errorf("perfbench: %s/%s: %w", w.name, arm.name, err)
		}
		ep.outcomes = append(ep.outcomes, o)
		d.Str(arm.name)
		s.digest(d)
		addCounts(ep.counts, s, reg)
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		ep.liveHeapMiB += toMiB(float64(ms1.HeapAlloc)) / float64(len(w.arms))
		runtime.KeepAlive(s)
	}
	ep.digest = d.Sum()
	return ep, nil
}

// obsCounts maps each per-layer count to the obs metric the program
// exports for it. In a cluster every tenant's copy lives under
// "tenant.<name>."; the count sums them.
var obsCounts = [][2]string{
	{"cha.advances", "cha_advances"},
	{"cha.dropped_advances", "cha_dropped_advances"},
	{"core.decisions", "ctrl_decisions"},
	{"core.deadband_holds", "ctrl_deadband_holds"},
	{"core.stale_holds", "ctrl_stale_holds"},
	{"core.mode_transitions", "ctrl_mode_transitions"},
	{"access.samples", "sampler_samples"},
	{"access.sampler_rebuilds", "sampler_rebuilds"},
	{"access.hint_faults", "tpp_hint_faults"},
	{"heat.cools", "hemem_cools"},
	{"migrate.throttled", "migrate_throttled"},
	{"migrate.shared_throttled", "migrate_shared_throttled"},
	{"migrate.failures", "migrate_injected_failures"},
	{"memtis.splits", "memtis_splits"},
	{"memtis.coalesces", "memtis_coalesces"},
	{"tpp.kswapd_demotions", "tpp_kswapd_demotions"},
	{"tenant.forced_demotions", "cluster_forced_demotions"},
	{"tenant.forced_demoted_bytes", "cluster_forced_demoted_bytes"},
}

// addCounts adds one arm's exported counts to counts: obs counters,
// migrator Totals(), solver iterations and the heat-tracker footprint.
func addCounts(counts map[string]float64, s *sut, reg *obs.Registry) {
	vals := reg.Values()
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, pair := range obsCounts {
		for _, name := range names {
			if name == pair[1] || strings.HasSuffix(name, "."+pair[1]) {
				counts[pair[0]] += vals[name]
			}
		}
	}
	for i := 0; i < s.eng.NumTenants(); i++ {
		bytes, moves, _, _ := s.eng.Tenant(i).Migrator().Totals()
		counts["migrate.bytes"] += float64(bytes)
		counts["migrate.moves"] += float64(moves)
	}
	counts["memsys.solve_iters"] += float64(s.iterSum)
	counts["memsys.solve_iters_max"] = math.Max(counts["memsys.solve_iters_max"], float64(s.iterMax))
	counts["memsys.solve_capped"] += float64(s.capped)
	counts["heat.tracker_bytes"] += float64(s.trackerBytes())
	counts["quanta"] += float64(s.quanta)
}

// measurement is the set of episodes of one mode (untraced or traced).
type measurement struct {
	episodes []*episode
	wallSec  float64
}

// add appends ep, failing when its digest or exported counts differ
// from ref's, an earlier episode of the same seed (ep itself for the
// first one).
func (m *measurement) add(w *workload, ep, ref *episode) error {
	m.episodes = append(m.episodes, ep)
	if ep.digest != ref.digest {
		return fmt.Errorf("perfbench: %s: digest %016x differs from %016x of an earlier run of the same seed",
			w.name, ep.digest, ref.digest)
	}
	if name, ok := sameCounts(ref.counts, ep.counts); !ok {
		return fmt.Errorf("perfbench: %s: count %s differs between runs of the same seed", w.name, name)
	}
	return nil
}

// mode is one way of running a workload's episodes.
type mode struct {
	traced  bool
	workers int
}

// measure runs episodes of w, cycling through modes, until seconds of
// wall time have passed and every mode has at least minEach episodes.
// Cycling spreads machine drift evenly over the modes. Every episode
// must reproduce the first one's digest and counts: results depend on
// neither tracing nor the worker count. The tracer holds the spans of
// the traced episodes (nil when no mode traces).
func measure(w *workload, seed uint64, seconds float64, minEach int, modes []mode) ([]*measurement, *tracer, error) {
	ms := make([]*measurement, len(modes))
	var tr *tracer
	for i, md := range modes {
		ms[i] = &measurement{}
		if md.traced {
			tr = newTracer()
		}
	}
	start := now()
	defer func() {
		for _, m := range ms {
			m.wallSec = now().Sub(start).Seconds()
		}
	}()
	var ref *episode
	for i := 0; ; i++ {
		enough := true
		for _, m := range ms {
			enough = enough && len(m.episodes) >= minEach
		}
		if enough && now().Sub(start).Seconds() >= seconds {
			return ms, tr, nil
		}
		md, m := modes[i%len(modes)], ms[i%len(modes)]
		t := (*tracer)(nil)
		if md.traced {
			t = tr
		}
		ep, err := runEpisode(w, seed, md.workers, t)
		if err != nil {
			if ep != nil {
				m.episodes = append(m.episodes, ep)
			}
			return ms, tr, err
		}
		if ref == nil {
			ref = ep
		}
		if err := m.add(w, ep, ref); err != nil {
			return ms, tr, err
		}
	}
}

func (m *measurement) each(f func(*episode) float64) []float64 {
	out := make([]float64, len(m.episodes))
	for i, ep := range m.episodes {
		out[i] = f(ep)
	}
	return out
}

// simRate is the whole-episode host throughput: an episode's simulated
// seconds over its time in the Step calls, as times gives them per
// quantum. Episodes of one seed replay identical work quantum by
// quantum, so each quantum's time is taken as its median over the
// episodes; a burst of machine noise that slows some quanta of one
// episode then drops out instead of shifting the total.
func (m *measurement) simRate(times func(*episode) []float64) float64 {
	first := m.episodes[0]
	var hostNs float64
	ts := make([]float64, len(m.episodes))
	for k := range times(first) {
		for e, ep := range m.episodes {
			ts[e] = times(ep)[k]
		}
		hostNs += median(ts)
	}
	return first.simSec / nsToSec(hostNs)
}

// simPerRefSec is simulated seconds per reference second of Step time,
// the end-to-end host throughput.
func (m *measurement) simPerRefSec() float64 {
	return m.simRate(func(ep *episode) []float64 { return ep.stepRefNs })
}

// simPerHost is simulated seconds per raw host second of Step time.
func (m *measurement) simPerHost() float64 {
	return m.simRate(func(ep *episode) []float64 { return ep.stepNs })
}

// kernelNs is the median reference kernel time over every episode.
func (m *measurement) kernelNs() float64 {
	var all []float64
	for _, ep := range m.episodes {
		all = append(all, ep.kernelNs...)
	}
	return median(all)
}

func (m *measurement) attempted() (attempted, failed int) {
	for _, ep := range m.episodes {
		attempted += ep.quanta
		failed += ep.failed
	}
	return attempted, failed
}
