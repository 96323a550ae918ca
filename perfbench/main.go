// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the condensation system as deployed — the
// serving workloads against server.New configured as condenserd is,
// behind a net/http server on a loopback TCP listener, and the anonymize
// workload through the condense pipeline on in-memory bytes — checks the
// outputs, and prints its metrics.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload ingest --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// records spans around the calls into each layer and prints the
// per-layer metrics instead. Human-readable lines come first; the last
// line of standard output is one JSON object. Any failed operation or
// correctness violation makes the exit code non-zero. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with
// --trace 0 on every workload. Each workload fills them from its own
// operation; README.md gives the per-workload meaning.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"records_per_s", "records/s"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, printed with --trace 1 on every
// workload; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"net.records.self_ms_p50", "ms"},
	{"net.snapshot.self_ms_p50", "ms"},
	{"net.checkpoint.self_ms_p50", "ms"},
	{"net.stats.self_ms_p50", "ms"},
	{"net.req_bytes_per_record", "bytes"},
	{"net.resp_bytes_per_snapshot", "bytes"},
	{"server.records.self_us_per_record", "us"},
	{"server.snapshot.self_ms_p50", "ms"},
	{"server.checkpoint.self_ms_p50", "ms"},
	{"server.stats.self_ms_p50", "ms"},
	{"server.checkpoint.not_modified_ratio", "ratio"},
	{"server.cache_hit_ratio.synthesis", "ratio"},
	{"server.cache_hit_ratio.checkpoint", "ratio"},
	{"server.cache_hit_ratio.stats", "ratio"},
	{"core.add_batch_us_per_record", "us"},
	{"core.add_batch_busy_share", "ratio"},
	{"core.condensation_ms_p50", "ms"},
	{"core.splits_per_krec", "1/krec"},
	{"core.groups_end", "count"},
	{"core.anonymize_s", "s"},
	{"core.static_s", "s"},
	{"core.synthesize_s", "s"},
	{"kernel.neighbor_search_s", "s"},
	{"core.split_s", "s"},
	{"core.group_stats_s", "s"},
	{"core.synthesis_s", "s"},
	{"mat.eigen_s", "s"},
	{"mat.eigensolves", "count"},
	{"dataset.read_csv_s", "s"},
	{"dataset.write_csv_s", "s"},
	{"dataset.bytes_in", "bytes"},
	{"dataset.bytes_out", "bytes"},
	{"audit.compute_ms", "ms"},
	{"telemetry.scrape_ms", "ms"},
	{"runtime.alloc_bytes_per_record", "bytes"},
	{"runtime.allocs_per_request.records", "count"},
	{"runtime.allocs_per_request.snapshot", "count"},
	{"runtime.allocs_per_request.checkpoint", "count"},
	{"runtime.allocs_per_request.stats", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.cpu_s_per_krec", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.layer_sum_err_pct", "%"},
}

// layerSumTolPct is the traced run's layer-sum tolerance: the net, server
// and core self-times of all traced requests must add up to their client
// round trips within this share.
const layerSumTolPct = 1.0

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median.
const setupReps = 5

type runConfig struct {
	seed    uint64
	measure time.Duration
	trace   bool
}

// outcome is what a workload run produced.
type outcome struct {
	mu                sync.Mutex // guards failed and problems
	attempted, failed int
	problems          []string
	// invalid, when set, says why the run measured the wrong thing (the
	// open-loop generator fell behind): it is neither fast nor slow.
	invalid string
	e2e     map[string]float64
	layers  map[string]float64
	lines   []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records a failed operation or violated correctness check.
func (o *outcome) fail(format string, args ...interface{}) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// report adds one human-readable metric line.
func (o *outcome) report(name string, v float64, unit, note string) {
	o.lines = append(o.lines, fmt.Sprintf("%-28s %14.4f %-10s %s", name, v, unit, note))
}

// reportTail adds a tail-percentile line when enough samples lie beyond
// it, and says so when they do not.
func (o *outcome) reportTail(name string, xs []float64, q float64, unit string) {
	v, beyond, ok := tail(xs, q)
	if !ok {
		o.lines = append(o.lines, fmt.Sprintf("%-28s %14s %-10s n=%d, only %d beyond (need %d)", name, "n/a", unit, len(xs), beyond, minBeyond))
		return
	}
	o.report(name, v, unit, fmt.Sprintf("n=%d, %d beyond", len(xs), beyond))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"ingest":      runIngest,
	"serve_mixed": runServeMixed,
	"anonymize":   runAnonymize,
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: ingest, serve_mixed, or anonymize")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload ingest|serve_mixed|anonymize, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	cfg := runConfig{seed: *seed, measure: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	o, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if o.invalid != "" {
		fmt.Fprintf(stderr, "perfbench: %s: run invalid: %s\n", *workload, o.invalid)
		return 3
	}
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	for _, l := range o.lines {
		fmt.Fprintln(stdout, l)
	}
	fmt.Fprintf(stdout, "%-28s %14.4f %-10s %d of %d operations\n", "failed_ratio",
		float64(o.failed)/math.Max(1, float64(o.attempted)), "ratio", o.failed, o.attempted)
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", *workload, p)
	}

	defs, vals := endToEnd, o.e2e
	if cfg.trace {
		defs, vals = perLayer, o.layers
	}
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]jsonValue, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			if res.Correct {
				fmt.Fprintf(stderr, "perfbench: %s: metric %s is not a number\n", *workload, d.name)
				return 1
			}
			v = 0 // a failed run may stop before it has samples
		}
		res.Metrics[d.name] = jsonValue{Value: v, Unit: d.unit}
	}
	if extra := unknownKeys(vals, defs); len(extra) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: undeclared metrics %v\n", *workload, extra)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func unknownKeys(vals map[string]float64, defs []metricDef) []string {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
	}
	var out []string
	for k := range vals {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setupMedian runs set-up reps times, keeping the last result, and
// returns it with the median set-up time in seconds. Earlier results are
// released with drop.
func setupMedian[T any](reps int, setup func() (T, error), drop func(T)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i > 0 {
			drop(last)
		}
		last = v
	}
	return last, median(times), nil
}
