// Command perfbench is the repository's benchmark. It drives the real
// simulation quantum — sim.Engine.Step, or tenant.Cluster.Step for a
// cluster — through the same public construction and step calls the
// experiments use, checks every quantum's output, and prints the
// workload's metrics by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-dynamic --seed 1 --seconds 40 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// measures the per-layer metrics from alternating untraced episodes
// (per-quantum and runtime figures, exported counts) and traced ones,
// whose spans (written to .bench_build/spans/<workload>.jsonl) give the
// layer self times. Host times are reported in reference seconds, which
// cancel the shared host's drift (see refclock.go). See
// perfbench/README.md for the metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"colloid/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// defaultSeed is the workload seed when --seed is not given.
const defaultSeed = 1

// minEpisodes is how many whole episodes a measurement takes at least,
// so every host-time median has several samples.
const minEpisodes = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the simulation seed is derived from it and the workload name")
	seconds := fs.Float64("seconds", 40, "wall seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from an untraced and a traced run")
	spansDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if !(*seconds > 0) || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	simSeed := stats.NewRNG(*seed).SplitString(w.name).Uint64()

	env := newEnvironment(w.workers)
	steal0, total0, ticksOK := cpuTicks()
	var res *result
	if *trace == 0 {
		res = endToEnd(w, simSeed, *seconds)
	} else {
		res = perLayer(w, simSeed, *seconds, filepath.Join(*spansDir, w.name+".jsonl"))
	}
	if steal1, total1, ok := cpuTicks(); ok && ticksOK {
		env.StealTicks, env.TotalTicks = steal1-steal0, total1-total0
	}
	if *trace == 1 {
		res.add("env.steal_pct", "%", env.stealPct())
	}
	envJSON, _ := json.Marshal(env) // a struct of strings and integers always marshals
	fmt.Fprintf(stdout, "workload %s  seed %d (simulation seed %d)  trace %d\n", w.name, *seed, simSeed, *trace)
	fmt.Fprintf(stdout, "env %s  steal %.2f%%\n", envJSON, env.stealPct())
	for _, note := range res.notes {
		fmt.Fprintln(stdout, note)
	}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if res.err != nil {
		fmt.Fprintln(stderr, res.err)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !res.correct() {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// result is what one invocation reports.
type result struct {
	metrics   []metric
	notes     []string
	attempted int
	failed    int
	err       error // first output-check violation or digest mismatch
}

func (r *result) correct() bool { return r.err == nil && r.failed == 0 && r.attempted > 0 }

func (r *result) add(name, unit string, value float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value})
}

// json renders the final result line.
func (r *result) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value, len(r.metrics))}
	if !r.correct() && out.Failed == 0 {
		// A digest mismatch or end-of-run check fails the run as a whole.
		out.Failed = 1
		if out.Attempted == 0 {
			out.Attempted = 1
		}
	}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return "", fmt.Errorf("perfbench: encoding result: %w", err)
	}
	return string(b), nil
}
