package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"colloid/internal/hemem"
	"colloid/internal/memsys"
	"colloid/internal/obs"
	"colloid/internal/workloads"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, // exactly 10 samples beyond p99.9
		{9999, 99},
		{1000, 99},
		{999, 90},
		{100, 90},
		{20, 50},
		{19, 0},
		{0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

func TestSelfTimesNestedSpans(t *testing.T) {
	// quantum [0,100] holds system A [10,40] (which holds a nested span
	// [15,25]) and two overlapping children B [50,70] and C [60,80]; a
	// child reaching past its parent is clipped to it.
	spans := []span{
		{ID: 0, Parent: -1, Name: "quantum", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "a.inner", Start: 15, End: 25},
		{ID: 3, Parent: 0, Name: "b", Start: 50, End: 70},
		{ID: 4, Parent: 0, Name: "c", Start: 60, End: 80},
		{ID: 5, Parent: -1, Name: "setup", Start: 100, End: 110},
		{ID: 6, Parent: 5, Name: "late", Start: 105, End: 120},
	}
	want := []int64{100 - 30 - 30, 30 - 10, 10, 20, 20, 10 - 5, 15}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	totals := spanTotals(spans)
	if q := totals["quantum"]; q.Count != 1 || q.Dur != 100 || q.Self != 40 {
		t.Errorf("quantum totals = %+v", *q)
	}
}

func TestTracerBuildsTree(t *testing.T) {
	tr := newTracer()
	q := tr.begin("quantum")
	s := tr.begin("system.step[x]")
	tr.end(s)
	tr.end(q)
	if len(tr.spans) != 2 || tr.spans[1].Parent != q || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].Start < tr.spans[0].Start {
		t.Errorf("child not inside parent: %+v", tr.spans)
	}
	var none *tracer
	none.end(none.begin("ignored")) // the untraced mode records nothing and must not panic
}

func TestUnitConversions(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"MiB", toMiB(3 << 20), 3},
		{"ms", nsToMs(2.5e6), 2.5},
		{"us", nsToUs(1500), 1.5},
		{"s", nsToSec(4e9), 4},
		{"Mops", toMops(225e6), 225},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestSlowQuantaPeriod(t *testing.T) {
	var spans []span
	at := int64(0)
	for k := 0; k < 200; k++ {
		d := int64(10)
		if k%50 == 7 {
			d = 1000
		}
		q := len(spans)
		spans = append(spans, span{ID: q, Parent: -1, Name: "quantum", Start: at, End: at + d})
		spans = append(spans, span{ID: q + 1, Parent: q, Name: "system.step[x]", Start: at, End: at + d - 1})
		at += d
	}
	n, share, sys, period := slowQuanta(spans)
	if n != 4 || period != 50 {
		t.Errorf("slow quanta = %d with period %d, want 4 and 50", n, period)
	}
	if want := 4000.0 / (4000 + 196*10); math.Abs(share-want) > 1e-12 {
		t.Errorf("slow share = %v, want %v", share, want)
	}
	if want := 999.0 / 1000; math.Abs(sys-want) > 1e-12 {
		t.Errorf("system share of slow quanta = %v, want %v", sys, want)
	}
}

func TestParseCPULine(t *testing.T) {
	steal, total, ok := parseCPULine("cpu  100 5 20 800 10 0 3 12 40 0")
	if !ok || steal != 12 || total != 950 {
		t.Errorf("got steal %d total %d ok %v, want 12 950 true", steal, total, ok)
	}
	if _, _, ok := parseCPULine("cpu0 1 2 3 4 5 6 7 8"); ok {
		t.Error("per-CPU line accepted as the aggregate line")
	}
}

// smallWorkload is a one-arm GUPS workload small enough for unit tests:
// 1 GiB on 2 MiB pages, HeMem+Colloid, 40 quanta.
func smallWorkload() *workload {
	return &workload{
		name:    "small",
		workers: 1,
		arms: []armSpec{{
			name: "hemem+colloid", colloid: true, quanta: 40, tailSec: 0.2,
			build: func(seed uint64, workers int, reg *obs.Registry, tr *tracer) (*sut, error) {
				g := &workloads.GUPS{WorkingSetBytes: 1 << 30, HotSetBytes: 1 << 28, HotProb: 0.9, ObjectBytes: 64, Cores: 4}
				fast := memsys.DualSocketXeonDefault()
				fast.CapacityBytes = 1 << 29
				topo, err := memsys.NewTopology(fast, memsys.DualSocketXeonRemote())
				if err != nil {
					return nil, err
				}
				cfg := simConfig(topo, g, seed, workers, reg)
				cfg.SampleEverySec = 0.05
				return buildEngine(cfg, g, hemem.New(hemem.Config{Colloid: colloidOpts()}), nil, tr)
			},
		}},
	}
}

func TestDigestStable(t *testing.T) {
	w := smallWorkload()
	a, err := runEpisode(w, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEpisode(w, 7, 2, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("traced two-worker digest %016x != untraced one-worker %016x", b.digest, a.digest)
	}
	if name, ok := sameCounts(a.counts, b.counts); !ok {
		t.Errorf("count %s differs between the traced two-worker and untraced one-worker runs", name)
	}
	c, err := runEpisode(w, 8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.digest == a.digest {
		t.Error("a different seed reproduced the same digest")
	}
	if a.quanta != 40 || a.failed != 0 {
		t.Errorf("quanta %d failed %d, want 40 and 0", a.quanta, a.failed)
	}
}

func TestOutputCheckCatchesLostBytes(t *testing.T) {
	w := smallWorkload()
	s, err := w.arms[0].build(1, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.step(); err != nil {
		t.Fatal(err)
	}
	if !s.observe() {
		t.Fatalf("a correct quantum failed its check: %v", s.checkErr)
	}
	s.wss += 4096 // as if a page had vanished from every tier
	if err := s.step(); err != nil {
		t.Fatal(err)
	}
	if s.observe() || s.checkErr == nil || !strings.Contains(s.checkErr.Error(), "resident") {
		t.Errorf("lost bytes not caught: %v", s.checkErr)
	}
}

func TestResultLine(t *testing.T) {
	r := &result{attempted: 10}
	r.add("sim_s_per_ref_s", "s/s", 1.5)
	r.add("bad", "ms", math.NaN())
	r.check()
	line, err := r.json()
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("result keys = %v", got)
	}
	if string(got["correct"]) != "false" || string(got["failed"]) != "1" {
		t.Errorf("a NaN metric did not fail the run: %s", line)
	}
}

func TestLookupWorkload(t *testing.T) {
	for _, name := range workloadNames {
		w, err := lookupWorkload(name)
		if err != nil || w.name != name || len(w.arms) == 0 {
			t.Errorf("lookupWorkload(%q) = %v, %v", name, w, err)
		}
	}
	if _, err := lookupWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestRefClockScalesByBracketingKernels checks that host times are
// scaled by refNominalNs over the mean of the kernel runs on either side
// of them, in order, and that the first run brackets with itself.
func TestRefClockScalesByBracketingKernels(t *testing.T) {
	kernels := []float64{refNominalNs, 2 * refNominalNs, 4 * refNominalNs}
	c := &refClock{kernel: func() float64 {
		k := kernels[0]
		kernels = kernels[1:]
		return k
	}}
	if f := c.run(); f != 1 {
		t.Errorf("first run factor = %v, want 1", f)
	}
	c.add(300)
	c.add(600)
	got := c.flush(nil) // brackets refNominalNs and 2*refNominalNs: mean 1.5x
	c.add(900)
	got = c.flush(got) // brackets 2x and 4x: mean 3x
	want := []float64{200, 400, 300}
	if len(got) != len(want) {
		t.Fatalf("flushed %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("flushed[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if n := len(c.kernels); n != 3 {
		t.Errorf("recorded %d kernel times, want 3", n)
	}
	if out := c.flush(got); len(out) != len(got) || len(kernels) != 0 {
		t.Errorf("flush with nothing pending ran the kernel or appended")
	}
}

// TestRefKernelRuns checks that the real kernel takes a positive,
// finite time.
func TestRefKernelRuns(t *testing.T) {
	if ns := refKernelNs(); !(ns > 0) || math.IsInf(ns, 0) {
		t.Errorf("refKernelNs() = %v", ns)
	}
}
