package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Paper references for colloid_gain: Fig. 5's Colloid gains at 3x and
// the model's steady-state values recorded in EXPERIMENTS.md, in the
// order hemem, tpp, memtis. They are printed as a model-accuracy note,
// never compared against.
var (
	paperGain3x      = [3]float64{2.3, 2.35, 2.3}
	experimentGain3x = [3]float64{2.01, 1.96, 2.04}
)

// endToEnd measures the untraced end-to-end metrics.
func endToEnd(w *workload, seed uint64, seconds float64) *result {
	r := &result{}
	ms, _, err := measure(w, seed, seconds, minEpisodes, []mode{{workers: w.workers}})
	m := ms[0]
	r.attempted, r.failed = m.attempted()
	r.err = err
	if len(m.episodes) == 0 || err != nil {
		return r
	}
	r.add("sim_s_per_ref_s", "s/s", m.simPerRefSec())
	r.add("setup_s", "s", median(m.each(func(ep *episode) float64 { return ep.setupRefSec })))
	r.add("live_heap_mb", "MiB", median(m.each(func(ep *episode) float64 { return ep.liveHeapMiB })))
	r.add("alloc_mb_per_sim_s", "MiB/s", median(m.each(func(ep *episode) float64 {
		return toMiB(float64(ep.allocBytes)) / ep.simSec
	})))
	sim := simulated(w, m.episodes[0])
	r.add("app_mops", "Mops/s", sim.appMops)
	r.add("latency_gap", "ratio", sim.latencyGap)
	r.add("premium_interference", "ratio", sim.interference)
	r.notes = append(r.notes, fmt.Sprintf("episodes %d over %.1f s wall; every episode reproduced digest %016x",
		len(m.episodes), m.wallSec, m.episodes[0].digest))
	r.notes = append(r.notes, fmt.Sprintf("raw host time: %.4f sim s per host s, setup %.4f s; reference kernel %.1f us (nominal %.1f us)",
		m.simPerHost(), median(m.each(func(ep *episode) float64 { return ep.setupSec })),
		nsToUs(m.kernelNs()), nsToUs(refNominalNs)))
	r.notes = append(r.notes, sim.notes...)
	r.check()
	return r
}

// simulatedResult holds the deterministic simulated outcomes of one
// episode, aggregated over the workload's Colloid arms.
type simulatedResult struct {
	appMops      float64
	latencyGap   float64
	interference float64
	colloidGain  float64 // 0 unless the workload pairs vanilla and Colloid arms
	notes        []string
}

func simulated(w *workload, ep *episode) simulatedResult {
	var s simulatedResult
	var ops, gaps []float64
	var interSum, reqSum float64
	for i, arm := range w.arms {
		o := ep.outcomes[i]
		if !arm.colloid {
			continue
		}
		ops = append(ops, toMops(o.opsPerSec))
		gaps = append(gaps, o.latencyGap)
		interSum += o.interference * o.premiumReqs
		reqSum += o.premiumReqs
	}
	s.appMops = mean(ops)
	s.latencyGap = mean(gaps)
	if reqSum > 0 {
		s.interference = interSum / reqSum
	}
	// Arms that come in (vanilla, +colloid) pairs give the Colloid gain.
	var gains []float64
	var parts []string
	for i := 0; i+1 < len(w.arms); i += 2 {
		if w.arms[i].colloid || !w.arms[i+1].colloid {
			return s
		}
		g := ep.outcomes[i+1].opsPerSec / ep.outcomes[i].opsPerSec
		gains = append(gains, g)
		parts = append(parts, fmt.Sprintf("%s %.2fx", w.arms[i].name, g))
	}
	if len(gains) == 0 {
		return s
	}
	s.colloidGain = geomean(gains)
	s.notes = append(s.notes,
		fmt.Sprintf("colloid_gain %.3f (geomean; %s) after the step to 3x", s.colloidGain, strings.Join(parts, ", ")),
		fmt.Sprintf("  model-accuracy note, not a gate: paper Fig. 5 gains at 3x are %.2fx / %.2fx / %.2fx (hemem / tpp / memtis);",
			paperGain3x[0], paperGain3x[1], paperGain3x[2]),
		fmt.Sprintf("  EXPERIMENTS.md records the converged steady state at %.2fx / %.2fx / %.2fx. This run's tail is %.0f-%.0f s after the step,",
			experimentGain3x[0], experimentGain3x[1], experimentGain3x[2], dynamicEnd-dynamicTailSec-dynamicShiftAt, dynamicEnd-dynamicShiftAt),
		"  before TPP and MEMTIS converge. The other simulated metrics have no paper reference.")
	return s
}

// check records a non-finite metric as an error: JSON cannot carry it
// and no metric here may legitimately be NaN or infinite.
func (r *result) check() {
	for i, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			if r.err == nil {
				r.err = fmt.Errorf("perfbench: metric %s is %v", m.name, m.value)
			}
			r.metrics[i].value = 0
		}
	}
}

// systemNames are the six systems whose step spans are reported, as
// their sim.System names.
var systemNames = []string{"hemem", "hemem+colloid", "tpp", "tpp+colloid", "memtis", "memtis+colloid"}

// perLayer measures the per-layer metrics from interleaved untraced
// episodes (per-quantum host times, runtime and program counts), traced
// episodes (span self times) and, where the workload names a parallel
// worker count, untraced episodes at that count. All must reproduce the
// same digest.
func perLayer(w *workload, seed uint64, seconds float64, spansPath string) *result {
	r := &result{}
	modes := []mode{{workers: w.workers}, {traced: true, workers: w.workers}}
	if w.parallelWorkers > 0 {
		modes = append(modes, mode{workers: w.parallelWorkers})
	}
	ms, tr, err := measure(w, seed, seconds, 2, modes)
	for _, m := range ms {
		a, f := m.attempted()
		r.attempted += a
		r.failed += f
	}
	if err != nil {
		r.err = err
		return r
	}
	plain, traced := ms[0], ms[1]
	first := plain.episodes[0]

	// sim: per-quantum host time of the untraced Step calls.
	var stepNs []float64
	for _, ep := range plain.episodes {
		stepNs = append(stepNs, ep.stepNs...)
	}
	tailPct := tailPercentile(len(stepNs))
	r.add("sim.quantum_p50_ms", "ms", nsToMs(median(stepNs)))
	r.add("sim.quantum_tail_ms", "ms", nsToMs(quantile(stepNs, tailPct/100)))
	r.add("sim.quantum_tail_pct", "percentile", tailPct)
	r.add("sim.quantum_samples", "count", float64(len(stepNs)))

	// Spans of the traced run.
	spans := tr.spans
	totals := spanTotals(spans)
	get := func(name string) spanTotal {
		if t := totals[name]; t != nil {
			return *t
		}
		return spanTotal{}
	}
	q := get("quantum")
	perQuantumUs := func(ns int64) float64 {
		if q.Count == 0 {
			return 0
		}
		return nsToUs(float64(ns) / float64(q.Count))
	}
	if first.clustered {
		r.add("sim.engine_self_us", "us", 0)
		r.add("tenant.cluster_self_us", "us", perQuantumUs(q.Self))
	} else {
		r.add("sim.engine_self_us", "us", perQuantumUs(q.Self))
		r.add("tenant.cluster_self_us", "us", 0)
	}
	nEp := float64(len(traced.episodes))
	r.add("setup.engine_s", "s", nsToSec(float64(get("engine.new").Self)/nEp))
	r.add("setup.install_s", "s", nsToSec(float64(get("workload.install").Dur)/nEp))
	for _, name := range systemNames {
		st := get("system.step[" + name + "]")
		key := "system." + strings.ReplaceAll(name, "+", "-")
		var us, share float64
		if st.Count > 0 {
			us = nsToUs(float64(st.Dur) / float64(st.Count))
		}
		if q.Dur > 0 {
			share = float64(st.Dur) / float64(q.Dur)
		}
		r.add(key+".step_us", "us", us)
		r.add(key+".share", "ratio", share)
	}
	nSlow, slowShare, slowSystem, period := slowQuanta(spans)
	r.add("sim.slow_quanta_share", "ratio", slowShare)
	r.add("sim.slow_quanta_period", "quanta", float64(period))
	r.notes = append(r.notes, fmt.Sprintf("slow quanta (>10x the median): %d of %d, %.1f%% of quantum time, %.1f%% of it in system steps, most common spacing %d quanta",
		nSlow, q.Count, 100*slowShare, 100*slowSystem, period))
	shift := get("workload.shift")
	var shiftMs float64
	if shift.Count > 0 {
		shiftMs = nsToMs(float64(shift.Dur) / float64(shift.Count))
	}
	r.add("workloads.shift_ms", "ms", shiftMs)

	// Counts the program exports; identical in every episode.
	c := first.counts
	quanta := c["quanta"]
	r.add("memsys.solve_iters_mean", "iterations", c["memsys.solve_iters"]/quanta)
	r.add("memsys.solve_iters_max", "iterations", c["memsys.solve_iters_max"])
	r.add("memsys.solve_capped", "count", c["memsys.solve_capped"])
	for _, name := range []string{"cha.advances", "cha.dropped_advances", "core.decisions", "core.deadband_holds",
		"core.stale_holds", "core.mode_transitions"} {
		r.add(name, "count", c[name])
	}
	r.add("access.samples_per_quantum", "samples", c["access.samples"]/quanta)
	r.add("access.sampler_rebuilds", "count", c["access.sampler_rebuilds"])
	r.add("access.hint_faults", "count", c["access.hint_faults"])
	r.add("heat.tracker_bytes", "B", c["heat.tracker_bytes"])
	r.add("heat.cools", "count", c["heat.cools"])
	r.add("migrate.moves", "count", c["migrate.moves"])
	r.add("migrate.bytes", "B", c["migrate.bytes"])
	r.add("migrate.throttled", "count", c["migrate.throttled"])
	r.add("migrate.shared_throttled", "count", c["migrate.shared_throttled"])
	r.add("migrate.failures", "count", c["migrate.failures"])
	var useful float64
	if attempts := c["migrate.moves"] + c["migrate.throttled"] + c["migrate.shared_throttled"] + c["migrate.failures"]; attempts > 0 {
		useful = c["migrate.moves"] / attempts
	}
	r.add("migrate.useful_ratio", "ratio", useful)
	for _, name := range []string{"memtis.splits", "memtis.coalesces", "tpp.kswapd_demotions",
		"tenant.forced_demotions"} {
		r.add(name, "count", c[name])
	}
	r.add("tenant.forced_demoted_bytes", "B", c["tenant.forced_demoted_bytes"])
	r.add("shard.workers", "count", float64(w.workers))
	var speedup float64
	if w.parallelWorkers > 0 {
		speedup = ms[2].simPerRefSec() / plain.simPerRefSec()
	}
	r.add("shard.parallel_speedup", "ratio", speedup)

	// Go runtime over the untraced Step calls, per quantum / per episode.
	r.add("runtime.alloc_bytes_per_quantum", "B", median(plain.each(func(ep *episode) float64 {
		return float64(ep.allocBytes) / float64(ep.quanta)
	})))
	r.add("runtime.allocs_per_quantum", "count", median(plain.each(func(ep *episode) float64 {
		return float64(ep.mallocs) / float64(ep.quanta)
	})))
	r.add("runtime.gc_cycles", "count", median(plain.each(func(ep *episode) float64 { return float64(ep.gcCycles) })))
	r.add("runtime.gc_pause_ms", "ms", median(plain.each(func(ep *episode) float64 { return nsToMs(float64(ep.gcPauseNs)) })))

	untraced, tracedRate := plain.simPerRefSec(), traced.simPerRefSec()
	r.add("trace.overhead_pct", "%", 100*(untraced/tracedRate-1))
	r.add("host.sim_s_per_s", "s/s", plain.simPerHost())
	r.add("host.setup_s", "s", median(plain.each(func(ep *episode) float64 { return ep.setupSec })))
	r.add("host.ref_kernel_us", "us", nsToUs(plain.kernelNs()))
	sim := simulated(w, first)
	r.add("colloid_gain", "ratio", sim.colloidGain)
	r.notes = append(r.notes, sim.notes...)

	r.notes = append(r.notes, fmt.Sprintf("untraced: %d episodes, %.3f sim s per reference s; traced: %d episodes, %.3f; digest %016x in all",
		len(plain.episodes), untraced, len(traced.episodes), tracedRate, first.digest))
	if w.parallelWorkers > 0 {
		r.notes = append(r.notes, fmt.Sprintf("at %d shard workers: %d episodes, %.3f sim s per reference s",
			w.parallelWorkers, len(ms[2].episodes), ms[2].simPerRefSec()))
	}
	r.notes = append(r.notes, spanSummary(totals, q)...)
	if err := writeSpans(spansPath, spans); err != nil {
		r.err = fmt.Errorf("perfbench: writing spans: %w", err)
		return r
	}
	r.notes = append(r.notes, fmt.Sprintf("spans (%d) written to %s", len(spans), spansPath))
	r.check()
	return r
}

// sameCounts reports whether two episodes' exported counts agree
// exactly, naming the first that does not.
func sameCounts(a, b map[string]float64) (string, bool) {
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if a[name] != b[name] {
			return name, false
		}
	}
	return "", len(a) == len(b)
}

// setupSpans are the span names recorded during construction; their
// time is not part of any quantum.
var setupSpans = map[string]bool{"setup": true, "engine.new": true, "workload.install": true}

// spanSummary renders per-name span totals as readable lines, largest
// self time first, with each quantum-phase name's share of all quantum
// time.
func spanSummary(totals map[string]*spanTotal, q spanTotal) []string {
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if totals[names[i]].Self != totals[names[j]].Self {
			return totals[names[i]].Self > totals[names[j]].Self
		}
		return names[i] < names[j]
	})
	out := []string{"span self time (share of all quantum time):"}
	for _, name := range names {
		t := totals[name]
		share := "(setup)"
		if !setupSpans[name] && q.Dur > 0 {
			share = fmt.Sprintf("(%5.1f%%)", 100*float64(t.Self)/float64(q.Dur))
		}
		out = append(out, fmt.Sprintf("  %-32s n=%-7d self %10.3f ms  %s", name, t.Count, nsToMs(float64(t.Self)), share))
	}
	return out
}
