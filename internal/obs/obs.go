// Package obs is the simulator's observability spine: a low-overhead
// registry of named counters, gauges and histograms plus a bounded
// ring-buffer event trace, threaded through the hot paths (engine,
// controller, migrator, CHA counters, sampler, tiering systems).
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every handle and the registry itself are
//     nil-safe: a nil *Registry hands out nil handles, and every method
//     on a nil handle is a no-op, so instrumented code never branches on
//     "is observability on" — it just calls.
//  2. No locks on the fast path. A Registry belongs to exactly one
//     Engine (one goroutine); concurrent experiment arms each own a
//     private registry and the results are folded together with Merge
//     after the arms complete.
//  3. Deterministic output. Metric names export in sorted order and
//     events in emission order, so instrumented runs stay byte-stable
//     across repeats of the same seed.
package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Event kinds emitted by the instrumented packages. Systems may emit
// their own kinds; these constants cover the cross-cutting ones so
// downstream tooling can match on stable strings.
const (
	// EvModeTransition is emitted by the Colloid controller when the
	// placement mode changes (fields: from, to, p, delta_p).
	EvModeTransition = "mode_transition"
	// EvWatermarkReset is emitted when Algorithm 2's epsilon reset
	// re-brackets a shifted equilibrium (fields: p_lo, p_hi, p).
	EvWatermarkReset = "watermark_reset"
	// EvMigrationThrottled is emitted (at most once per quantum) when a
	// migration is rejected by the rate limit (fields: want_bytes,
	// budget_bytes).
	EvMigrationThrottled = "migration_throttled"
	// EvDeadbandHold is emitted when the controller enters the deadband
	// hold region from an active mode (fields: p, lat_default, lat_alt).
	EvDeadbandHold = "deadband_hold"

	// Fault-injection events (internal/scenario). Every injected fault
	// and its recovery is visible in the trace so experiment analysis
	// can correlate controller behaviour with the outage windows.

	// EvTierDegrade is emitted when a tier's service characteristics are
	// degraded (fields: tier, lat_factor, bw_factor).
	EvTierDegrade = "tier_degrade"
	// EvTierRestore is emitted when a degraded tier returns to nominal
	// (fields: tier).
	EvTierRestore = "tier_restore"
	// EvCHADropout is emitted when counter sampling starts being
	// suppressed (fields: until_sec).
	EvCHADropout = "cha_dropout"
	// EvCHARestore is emitted when counter sampling resumes (fields:
	// dropped_quanta).
	EvCHARestore = "cha_restore"
	// EvMigrationStall is emitted (at most once per quantum) when an
	// injected migration fault rejects a move (fields: kind [0=stall,
	// 1=fail], remaining_quanta).
	EvMigrationStall = "migration_stall"
	// EvCounterStale is emitted by the controller when it first observes
	// a stale counter snapshot and freezes its estimates (fields: p).
	EvCounterStale = "counter_stale"
	// EvCounterRecovered is emitted on the first fresh measurement after
	// a stale window (fields: stale_observes, p).
	EvCounterRecovered = "counter_recovered"
	// EvScenarioEvent is emitted into the timeline owner's registry
	// when a scenario timeline event fires (fields: at_sec, index — the
	// entry's position in firing order, which keeps declared order on
	// ties).
	EvScenarioEvent = "scenario_event"
)

// Field is one key/value pair attached to an Event. Values are float64
// so events stay allocation-light and serialize uniformly.
type Field struct {
	Key string
	Val float64
}

// F builds a Field.
func F(key string, val float64) Field { return Field{Key: key, Val: val} }

// Event is one entry in the ring-buffer trace.
type Event struct {
	// TimeSec is the simulation time the event was emitted at.
	TimeSec float64
	// Kind tags the event (EvModeTransition, ...).
	Kind string
	// Fields carry the event's payload.
	Fields []Field
}

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v int64 }

// Add increments the counter; no-op on a nil handle.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-write-wins float64 metric.
type Gauge struct{ v float64 }

// Set stores v; no-op on a nil handle.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Value returns the stored value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets is the fixed bucket count of a Histogram: bucket i counts
// observations v with 2^(i-1) <= v < 2^i (bucket 0 is v < 1).
const histBuckets = 32

// Histogram accumulates a distribution in log2 buckets plus exact
// count/sum/min/max, enough for mean and coarse tail inspection without
// per-observation allocation.
type Histogram struct {
	buckets [histBuckets]int64
	count   int64
	sum     float64
	min     float64
	max     float64
}

// Observe records one value; no-op on a nil handle.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

func bucketOf(v float64) int {
	if v < 1 || math.IsNaN(v) {
		return 0
	}
	lg := math.Log2(v)
	if lg >= histBuckets-2 { // covers +Inf without integer overflow
		return histBuckets - 1
	}
	return 1 + int(lg)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.max
}

// merge folds other into h.
func (h *Histogram) merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
}

// Registry owns one simulation's metrics and (optionally) its event
// trace. Not safe for concurrent use: one registry per Engine; merge
// per-arm registries after the arms finish.
type Registry struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	nowSec float64
	trace  *trace

	// parent/prefix make this registry a scoped view (see Scoped):
	// metric and event names are prefixed and everything is stored in
	// the parent. Both are zero on a root registry.
	parent *Registry
	prefix string
}

// NewRegistry returns an empty registry with the event trace disabled
// (call EnableTrace to turn it on).
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Scoped returns a view of r whose metric and event names carry the
// given prefix: Counter("moves") on a view scoped to "tenant.a."
// creates "tenant.a.moves" in the underlying root registry. Views
// nest (prefixes concatenate), share the root's clock and trace, and
// a nil registry scopes to nil, preserving the zero-cost-off
// contract. One root registry can therefore serve N tenants in a
// single-goroutine engine without merging: every tenant writes
// through its own namespace directly.
func (r *Registry) Scoped(prefix string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{parent: r.root(), prefix: r.prefix + prefix}
}

// root resolves a scoped view to its underlying registry (itself for a
// root registry).
func (r *Registry) root() *Registry {
	if r == nil || r.parent == nil {
		return r
	}
	return r.parent
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil handle (whose methods are no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if r.parent != nil {
		return r.parent.Counter(r.prefix + name)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if r.parent != nil {
		return r.parent.Gauge(r.prefix + name)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if r.parent != nil {
		return r.parent.Histogram(r.prefix + name)
	}
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// DefaultTraceEvents is the ring capacity EnableTrace uses when given a
// non-positive capacity.
const DefaultTraceEvents = 16384

// EnableTrace switches the event ring buffer on with room for capacity
// events; older events are overwritten once full (Dropped counts them).
func (r *Registry) EnableTrace(capacity int) {
	if r == nil {
		return
	}
	if r.parent != nil {
		r.parent.EnableTrace(capacity)
		return
	}
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	r.trace = &trace{buf: make([]Event, 0, capacity), cap: capacity}
}

// SetTime sets the simulation time stamped on subsequently emitted
// events. The engine calls this once per quantum so instrumented code
// below it never needs to thread a clock.
func (r *Registry) SetTime(tSec float64) {
	if r == nil {
		return
	}
	if r.parent != nil {
		r.parent.SetTime(tSec)
		return
	}
	r.nowSec = tSec
}

// Emit appends an event to the trace (no-op when the registry is nil or
// the trace is disabled). On a scoped view the event kind carries the
// view's prefix, so per-tenant events are attributable in the shared
// trace.
func (r *Registry) Emit(kind string, fields ...Field) {
	if r == nil {
		return
	}
	if r.parent != nil {
		r.parent.Emit(r.prefix+kind, fields...)
		return
	}
	if r.trace == nil {
		return
	}
	r.trace.add(Event{TimeSec: r.nowSec, Kind: kind, Fields: fields})
}

// Events returns the traced events in emission order.
func (r *Registry) Events() []Event {
	r = r.root()
	if r == nil || r.trace == nil {
		return nil
	}
	return r.trace.ordered()
}

// Dropped returns how many events were overwritten by ring wraparound.
func (r *Registry) Dropped() int64 {
	r = r.root()
	if r == nil || r.trace == nil {
		return 0
	}
	return r.trace.dropped
}

// trace is the bounded ring buffer behind Emit.
type trace struct {
	buf     []Event
	cap     int
	next    int // overwrite position once len(buf) == cap
	dropped int64
}

func (t *trace) add(e Event) {
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.next] = e
	t.next = (t.next + 1) % t.cap
	t.dropped++
}

func (t *trace) ordered() []Event {
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Values flattens every metric into a name->value map: counters and
// gauges directly, histograms as <name>.count/.mean/.max.
func (r *Registry) Values() map[string]float64 {
	r = r.root()
	if r == nil {
		return nil
	}
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+3*len(r.histograms))
	for name, c := range r.counters {
		out[name] = float64(c.v)
	}
	for name, g := range r.gauges {
		out[name] = g.v
	}
	for name, h := range r.histograms {
		out[name+".count"] = float64(h.count)
		out[name+".mean"] = h.Mean()
		out[name+".max"] = h.Max()
	}
	return out
}

// Merge folds other's metrics into r: counters add, histograms merge,
// gauges take other's value when other has observed one. Events are not
// merged (traces are per-run artifacts). Either side may be nil.
// Iteration is over sorted names so the merged registry's creation
// order — and anything downstream that walks it — never inherits Go's
// randomized map order.
func (r *Registry) Merge(other *Registry) {
	r, other = r.root(), other.root()
	if r == nil || other == nil {
		return
	}
	for _, name := range sortedNames(other.counters) {
		r.Counter(name).Add(other.counters[name].v)
	}
	for _, name := range sortedNames(other.gauges) {
		r.Gauge(name).Set(other.gauges[name].v)
	}
	for _, name := range sortedNames(other.histograms) {
		r.Histogram(name).merge(other.histograms[name])
	}
}

// sortedNames returns m's keys in sorted order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// jsonEvent is the JSONL wire form of an Event.
type jsonEvent struct {
	TimeSec float64            `json:"t_sec"`
	Kind    string             `json:"kind"`
	Fields  map[string]float64 `json:"fields,omitempty"`
}

// WriteEventsJSONL writes one JSON object per event:
//
//	{"t_sec":30.01,"kind":"mode_transition","fields":{"from":0,"to":2}}
func WriteEventsJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		je := jsonEvent{TimeSec: e.TimeSec, Kind: e.Kind}
		if len(e.Fields) > 0 {
			je.Fields = make(map[string]float64, len(e.Fields))
			for _, f := range e.Fields {
				je.Fields[f.Key] = f.Val
			}
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return nil
}

// WriteEventsCSV writes events as t_sec,kind,fields rows, with fields
// rendered as a |-separated key=value list in one cell.
func WriteEventsCSV(w io.Writer, events []Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"t_sec", "kind", "fields"}); err != nil {
		return err
	}
	for _, e := range events {
		parts := make([]string, len(e.Fields))
		for i, f := range e.Fields {
			parts[i] = fmt.Sprintf("%s=%g", f.Key, f.Val)
		}
		row := []string{fmt.Sprintf("%.3f", e.TimeSec), e.Kind, strings.Join(parts, "|")}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSummaryJSON writes the registry's Values as one sorted-key JSON
// object (Go's encoder sorts map keys, keeping output deterministic).
func (r *Registry) WriteSummaryJSON(w io.Writer) error {
	vals := r.Values()
	if vals == nil {
		vals = map[string]float64{}
	}
	buf, err := json.MarshalIndent(vals, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}

// MetricNames returns every registered metric name (histograms once,
// without the .count/.mean/.max expansion), sorted.
func (r *Registry) MetricNames() []string {
	r = r.root()
	if r == nil {
		return nil
	}
	names := append(sortedNames(r.counters), sortedNames(r.gauges)...)
	names = append(names, sortedNames(r.histograms)...)
	sort.Strings(names)
	return names
}
