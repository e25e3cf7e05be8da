package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"colloid/internal/pages"
	"colloid/internal/sim"
	"colloid/internal/stats"
	"colloid/internal/tenant"
)

// now is the benchmark's only wall-clock read. Host time never feeds
// simulation state: it is measured around calls into the program and
// reported beside the simulated results.
func now() time.Time {
	return time.Now() //colloid:allow determinism benchmark host-time measurement; never reaches simulation state
}

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's origin; Parent is -1 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory; they are written out once the run
// ends. The benchmark is single-threaded at every boundary it traces
// (systems fan out internally, below the spans), so the open spans form
// a stack. A nil *tracer records nothing, which is the untraced mode.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: now()} }

// begin opens a span as a child of the innermost open span and returns
// its id (-1 on a nil tracer).
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(now().Sub(t.origin))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %d closed out of order", id))
	}
	t.open = t.open[:n-1]
	t.spans[id].End = int64(now().Sub(t.origin))
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Children that overlap each
// other are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, spans, children[i])
	}
	return out
}

// covered returns how much of parent's interval the given child spans
// cover, clipping each child to the parent and merging overlaps.
func covered(parent span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curA, curB, started = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if started {
		total += curB - curA
	}
	return total
}

// spanTotals aggregates spans by name: count, summed duration and
// summed self time, all in nanoseconds.
type spanTotal struct {
	Count int
	Dur   int64
	Self  int64
}

func spanTotals(spans []span) map[string]*spanTotal {
	self := selfTimes(spans)
	out := make(map[string]*spanTotal)
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotal{}
			out[s.Name] = t
		}
		t.Count++
		t.Dur += s.dur()
		t.Self += self[i]
	}
	return out
}

// writeSpans writes the spans as JSON lines to path, creating its
// directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSystem is a sim.System that delegates to inner and records a
// system.step[<name>] span around every Step.
type tracedSystem struct {
	inner sim.System
	tr    *tracer
	name  string
}

func traceSystem(s sim.System, tr *tracer) sim.System {
	if tr == nil {
		return s
	}
	return &tracedSystem{inner: s, tr: tr, name: "system.step[" + s.Name() + "]"}
}

func (t *tracedSystem) Name() string { return t.inner.Name() }

func (t *tracedSystem) Step(ctx *sim.Context) {
	id := t.tr.begin(t.name)
	t.inner.Step(ctx)
	t.tr.end(id)
}

// tracedInstaller records a workload.install span around a tenant's
// weight install.
type tracedInstaller struct {
	inner tenant.Installer
	tr    *tracer
}

func traceInstaller(in tenant.Installer, tr *tracer) tenant.Installer {
	if tr == nil {
		return in
	}
	return &tracedInstaller{inner: in, tr: tr}
}

func (t *tracedInstaller) Install(as *pages.AddressSpace, rng *stats.RNG) error {
	id := t.tr.begin("workload.install")
	defer t.tr.end(id)
	return t.inner.Install(as, rng)
}

// traceShift records a workload.shift span around a scenario's hot-set
// shift callback.
func traceShift(fn func(*pages.AddressSpace, *stats.RNG), tr *tracer) func(*pages.AddressSpace, *stats.RNG) {
	if tr == nil {
		return fn
	}
	return func(as *pages.AddressSpace, rng *stats.RNG) {
		id := tr.begin("workload.shift")
		fn(as, rng)
		tr.end(id)
	}
}

// slowQuanta summarizes the quanta of a traced run that took more than
// ten times the median quantum: their share of all quantum time, the
// share of their time spent inside system steps, and the most common
// spacing between consecutive slow quanta (0 with fewer than two). On a
// bimodal workload the spacing names the period of the expensive policy
// pass.
func slowQuanta(spans []span) (count int, timeShare, systemShare float64, period int) {
	var quanta []int
	var durs []float64
	systemNs := make(map[int]int64)
	for i, s := range spans {
		switch {
		case s.Name == "quantum":
			quanta = append(quanta, i)
			durs = append(durs, float64(s.dur()))
		case s.Parent >= 0 && strings.HasPrefix(s.Name, "system.step["):
			systemNs[s.Parent] += s.dur()
		}
	}
	if len(quanta) == 0 {
		return 0, 0, 0, 0
	}
	threshold := 10 * median(durs)
	var all, slow, slowSystem float64
	var gaps []int
	last := -1
	for k, id := range quanta {
		all += durs[k]
		if durs[k] <= threshold {
			continue
		}
		count++
		slow += durs[k]
		slowSystem += float64(systemNs[id])
		if last >= 0 {
			gaps = append(gaps, k-last)
		}
		last = k
	}
	if all > 0 {
		timeShare = slow / all
	}
	if slow > 0 {
		systemShare = slowSystem / slow
	}
	return count, timeShare, systemShare, mostCommon(gaps)
}

// mostCommon returns the most common value of xs, the smallest on a tie (0
// for an empty slice).
func mostCommon(xs []int) int {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	best, bestN := 0, 0
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		if j-i > bestN {
			best, bestN = s[i], j-i
		}
		i = j
	}
	return best
}
