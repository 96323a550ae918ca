package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"condensation/internal/core"
	"condensation/internal/dataset"
	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// The anonymize workload is the condense pipeline on in-memory bytes:
// dataset.ReadCSV, then core.Condenser.Anonymize (static condensation per
// class, then synthesis), then dataset.WriteCSV, over a two-class
// correlated table. No server and no socket are involved. The condenser
// takes condense's defaults (static mode, uniform synthesis, seed 1,
// automatic search over all CPUs) with the serving workloads' k = 25.
const (
	anonRows = 100000
	anonDim  = 8
	anonK    = 25
)

// anonPass is one pipeline pass's measurements.
type anonPass struct {
	total, read, anon, write time.Duration
	bytesOut                 int
	groups                   int
	stages                   map[string]stageTotal
	proc                     procStats
	heapMB                   float64
}

func anonCondenser(reg *telemetry.Registry) (*core.Condenser, error) {
	return core.NewCondenser(anonK,
		core.WithSeed(1),
		core.WithMode(core.ModeStatic),
		core.WithSynthesis(core.SynthesisUniform),
		core.WithNeighborSearch(core.SearchAuto),
		core.WithIndexPrecision(core.Float64),
		core.WithParallelism(0),
		core.WithTelemetry(reg))
}

func runAnonymize(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	input, setup, err := setupMedian(setupReps, func() ([]byte, error) {
		return twoClassTable(cfg.seed, anonRows, anonDim)
	}, func([]byte) {})
	if err != nil {
		return nil, err
	}
	in, err := dataset.ReadCSV(bytes.NewReader(input), "input", dataset.Classification)
	if err != nil {
		return nil, err
	}
	wantCounts := in.ClassCounts()

	var plain, traced []anonPass
	digest := ""
	var spent time.Duration
	for i := 0; spent < cfg.measure || (cfg.trace && len(traced) == 0); i++ {
		var reg *telemetry.Registry
		if cfg.trace && i%2 == 1 {
			reg = telemetry.NewRegistry()
		}
		p, out, err := anonymizeOnce(input, reg)
		o.attempted++
		if err != nil {
			o.fail("pass %d: %v", i, err)
			break
		}
		spent += p.total
		sum := sha256.Sum256(out)
		d := hex.EncodeToString(sum[:])
		if digest == "" {
			digest = d
		} else if d != digest {
			o.fail("pass %d: output digest %s differs from the first pass's %s", i, d[:16], digest[:16])
		}
		if err := checkAnonymized(out, anonRows, wantCounts); err != nil {
			o.fail("pass %d: %v", i, err)
		}
		if reg != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}
	all := append(append([]anonPass(nil), plain...), traced...)
	if len(all) == 0 {
		return o, nil
	}
	var passMs, heaps []float64
	for _, p := range all {
		passMs = append(passMs, ms(p.total))
		heaps = append(heaps, p.heapMB)
	}
	p50, heapMB := median(passMs), median(heaps)
	rps := anonRows / (p50 / 1000)
	o.e2e["op_p50_ms"] = p50
	o.e2e["records_per_s"] = rps
	o.e2e["heap_peak_mb"] = heapMB
	o.e2e["setup_s"] = setup
	o.report("records_per_s", rps, "records/s", fmt.Sprintf("n=%d passes of %d rows, median pass", len(all), anonRows))
	o.report("pass_p50_ms", p50, "ms", fmt.Sprintf("n=%d", len(all)))
	o.report("heap_peak_mb", heapMB, "MB", fmt.Sprintf("median of %d passes", len(heaps)))
	o.report("setup_s", setup, "s", fmt.Sprintf("median of %d", setupReps))
	o.lines = append(o.lines, fmt.Sprintf("%-28s %s", "output_sha256", digest))

	if cfg.trace {
		if err := anonLayers(o, in, len(input), plain, traced); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// anonymizeOnce runs one pipeline pass: CSV bytes in, anonymized CSV
// bytes out. A non-nil reg turns on the engine's stage timers.
func anonymizeOnce(input []byte, reg *telemetry.Registry) (anonPass, []byte, error) {
	var p anonPass
	c, err := anonCondenser(reg)
	if err != nil {
		return p, nil, err
	}
	var stagesBefore map[string]stageTotal
	if reg != nil {
		stagesBefore = stageTotals(reg)
	}
	before := readProcStats()
	heap := startHeapSampler()
	defer heap.peakMB()
	t0 := time.Now()
	ds, err := dataset.ReadCSV(bytes.NewReader(input), "input", dataset.Classification)
	if err != nil {
		return p, nil, err
	}
	t1 := time.Now()
	anon, report, err := c.Anonymize(ds)
	if err != nil {
		return p, nil, err
	}
	t2 := time.Now()
	var out bytes.Buffer
	if err := dataset.WriteCSV(&out, anon); err != nil {
		return p, nil, err
	}
	t3 := time.Now()
	p.heapMB = heap.peakMB()
	p.proc = readProcStats().sub(before)
	p.total, p.read, p.anon, p.write = t3.Sub(t0), t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	p.bytesOut = out.Len()
	p.groups = report.TotalGroups()
	if reg != nil {
		p.stages = stageDelta(stageTotals(reg), stagesBefore)
	}
	return p, out.Bytes(), nil
}

// checkAnonymized parses the output and checks it preserves the row
// count and the per-class counts of the input.
func checkAnonymized(out []byte, rows int, wantCounts []int) error {
	ds, err := dataset.ReadCSV(bytes.NewReader(out), "output", dataset.Classification)
	if err != nil {
		return fmt.Errorf("output does not parse: %w", err)
	}
	if ds.Len() != rows {
		return fmt.Errorf("output has %d rows, input %d", ds.Len(), rows)
	}
	got := ds.ClassCounts()
	if len(got) != len(wantCounts) {
		return fmt.Errorf("output has %d classes, input %d", len(got), len(wantCounts))
	}
	for c := range got {
		if got[c] != wantCounts[c] {
			return fmt.Errorf("class %d: %d output rows, %d input rows", c, got[c], wantCounts[c])
		}
	}
	return nil
}

// anonLayers fills the per-layer metrics from the traced passes, times
// Condenser.Static and Condensation.Synthesize on the same per-class
// inputs Anonymize condenses, and reports the tracing overhead.
func anonLayers(o *outcome, in *dataset.Dataset, bytesIn int, plain, traced []anonPass) error {
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("traced run needs at least one untraced and one traced pass; raise --seconds")
	}
	m := o.layers
	var total, read, anon, write, bytesOut []float64
	var sumLayers, sumTotal float64
	stages := map[string]stageTotal{}
	var proc procStats
	for _, p := range traced {
		total = append(total, ms(p.total))
		read = append(read, p.read.Seconds())
		anon = append(anon, p.anon.Seconds())
		write = append(write, p.write.Seconds())
		bytesOut = append(bytesOut, float64(p.bytesOut))
		sumLayers += float64(p.read + p.anon + p.write)
		sumTotal += float64(p.total)
		addStages(stages, p.stages)
		proc = proc.add(p.proc)
	}
	var plainMs []float64
	for _, p := range plain {
		plainMs = append(plainMs, ms(p.total))
	}
	n := float64(len(traced))
	m["core.anonymize_s"] = median(anon)
	m["dataset.read_csv_s"] = median(read)
	m["dataset.write_csv_s"] = median(write)
	m["dataset.bytes_out"] = median(bytesOut)
	m["dataset.bytes_in"] = float64(bytesIn)
	m["core.groups_end"] = float64(traced[0].groups)
	stageMetrics(stages, n, m)
	runtimeMetrics(proc, n*anonRows, n, m)
	m["trace.overhead_ms"] = median(total) - median(plainMs)
	m["trace.layer_sum_err_pct"] = 100 * math.Abs(sumLayers-sumTotal) / sumTotal

	c, err := anonCondenser(nil)
	if err != nil {
		return err
	}
	var staticS, synthS float64
	byClass := in.ByClass()
	for label := 0; label < in.NumClasses(); label++ {
		recs := make([]mat.Vector, len(byClass[label]))
		for i, ri := range byClass[label] {
			recs[i] = in.X[ri]
		}
		t0 := time.Now()
		cond, err := c.Static(recs)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := cond.Synthesize(rng.New(1)); err != nil {
			return err
		}
		staticS += t1.Sub(t0).Seconds()
		synthS += time.Since(t1).Seconds()
	}
	m["core.static_s"] = staticS
	m["core.synthesize_s"] = synthS
	return nil
}
