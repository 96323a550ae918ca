package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"condensation/internal/rng"
)

// The ingest workload: two clients in a closed loop over persistent
// connections POST 256-record batches of the factor stream into an empty
// engine, with no reads. A round replays the same pre-encoded stream
// into a fresh server, so every round walks the same state trajectory —
// from empty to thousands of groups with splits throughout — and rounds
// repeat until the measured time is spent.
const (
	ingestBatch        = 256
	ingestRoundBatches = 960
	ingestConns        = 2
	// allocCalibration is how many requests per route the traced run
	// sends one at a time, with nothing else running, to count the
	// allocations each request makes.
	allocCalibration = 20
)

// ingestRound is one round's measurements.
type ingestRound struct {
	lat     []float64 // batch round trips, ms
	acked   moments
	elapsed time.Duration
	batches int
	splits  int
	groups  int
	reqs    []*reqTrace
	stages  map[string]stageTotal
	proc    procStats
	heapMB  float64
}

func runIngest(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	batches, setup, err := setupMedian(setupReps, func() ([]batch, error) {
		b := encodeBatches(newFactorStream(rng.New(loadingSeed), rng.New(cfg.seed), serveDim, nil), ingestRoundBatches*ingestBatch, ingestBatch)
		d, conns, err := deployWarm(nil, ingestConns)
		if err != nil {
			return nil, err
		}
		closeAll(d, conns)
		return b, nil
	}, func([]batch) {})
	if err != nil {
		return nil, err
	}

	var plain, traced []ingestRound
	var remaining = cfg.measure
	for round := 0; remaining > 0; round++ {
		var tr *tracer
		budget := remaining
		if cfg.trace && round%2 == 1 {
			tr = newTracer()
		} else if cfg.trace && round == 0 {
			budget /= 2 // leave time for a traced round
		}
		r, err := ingestOnce(o, batches, tr, budget, cfg.trace && round == 0)
		if err != nil {
			return nil, err
		}
		remaining -= r.elapsed
		if tr != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if o.failed > 0 {
			break
		}
	}

	// The end-to-end figures are medians over rounds, so a burst of
	// noise on the machine moves one round, not the run.
	// The last round is usually cut short by the time budget; it saw only
	// the early, smaller state, so it stays out of the medians unless no
	// round ran to completion.
	all := append(append([]ingestRound(nil), plain...), traced...)
	complete := 0
	for _, r := range all {
		if r.batches == ingestRoundBatches {
			complete++
		}
	}
	var lat, p50s, rates, heaps []float64
	var records float64
	for _, r := range all {
		if len(r.lat) == 0 {
			continue
		}
		lat = append(lat, r.lat...)
		records += float64(r.acked.n)
		if complete > 0 && r.batches < ingestRoundBatches {
			continue
		}
		p50s = append(p50s, median(r.lat))
		rates = append(rates, float64(r.acked.n)/r.elapsed.Seconds())
		heaps = append(heaps, r.heapMB)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no batch completed")
	}
	o.e2e["op_p50_ms"] = median(p50s)
	o.e2e["records_per_s"] = median(rates)
	o.e2e["heap_peak_mb"] = median(heaps)
	o.e2e["setup_s"] = setup
	o.report("records_per_s", median(rates), "records/s", fmt.Sprintf("median of %d rounds, %.0f records in all", len(rates), records))
	o.report("batch_p50_ms", median(lat), "ms", fmt.Sprintf("n=%d", len(lat)))
	o.reportTail("batch_p99_ms", lat, 0.99, "ms")
	o.report("heap_peak_mb", median(heaps), "MB", fmt.Sprintf("median of %d rounds", len(heaps)))
	o.report("setup_s", setup, "s", fmt.Sprintf("median of %d", setupReps))
	o.report("groups_end", float64(all[0].groups), "count", fmt.Sprintf("after %d batches", all[0].batches))

	if cfg.trace {
		if err := ingestLayers(o, plain, traced); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// ingestOnce runs one round against a fresh server for at most budget of
// measured time, then checks the final state. With calibrate set it also
// counts the allocations of single batch requests after the round.
func ingestOnce(o *outcome, batches []batch, tr *tracer, budget time.Duration, calibrate bool) (ingestRound, error) {
	var r ingestRound
	d, conns, err := deployWarm(tr, ingestConns)
	if err != nil {
		return r, err
	}
	defer closeAll(d, conns)
	stagesBefore := stageTotals(d.reg)

	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	r.acked = newMoments(serveDim)
	procBefore := readProcStats()
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(budget)
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(batches) || !time.Now().Before(deadline) {
					return
				}
				rep, err := c.post(&batches[i])
				mu.Lock()
				r.batches++
				if err != nil {
					o.fail("%v", err)
					mu.Unlock()
					return
				}
				r.lat = append(r.lat, ms(rep.done.Sub(rep.sent)))
				r.acked.merge(batches[i].mom)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	r.elapsed = time.Since(start)
	r.heapMB = heap.peakMB()
	r.proc = readProcStats().sub(procBefore)
	o.attempted += r.batches
	r.stages = stageDelta(stageTotals(d.reg), stagesBefore)
	eng := d.srv.Engine()
	r.splits, r.groups = eng.Splits(), eng.NumGroups()
	if tr != nil {
		r.reqs = tr.requests()
	}

	if calibrate {
		perReq, err := allocsPerRequest(func(i int) error {
			b := &batches[i%len(batches)]
			if _, err := conns[0].post(b); err != nil {
				return err
			}
			r.acked.merge(b.mom)
			return nil
		}, nil)
		if err != nil {
			return r, err
		}
		o.layers["runtime.allocs_per_request.records"] = perReq
	}

	problems, err := checkState(conns[0], r.acked)
	if err != nil {
		return r, err
	}
	o.attempted++
	for _, p := range problems {
		o.fail("%s", p)
	}
	return r, nil
}

// ingestLayers fills the traced run's per-layer metrics from the traced
// rounds, and the tracing overhead from the traced and untraced rounds.
func ingestLayers(o *outcome, plain, traced []ingestRound) error {
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("traced run needs at least one untraced and one traced round; raise --seconds")
	}
	var reqs []*reqTrace
	var latP, latT []float64
	var wall, records, splits float64
	var st procStats
	stages := map[string]stageTotal{}
	for _, r := range plain {
		latP = append(latP, r.lat...)
	}
	for _, r := range traced {
		latT = append(latT, r.lat...)
		reqs = append(reqs, r.reqs...)
		wall += r.elapsed.Seconds()
		records += float64(r.acked.n)
		splits += float64(r.splits)
		st = st.add(r.proc)
		addStages(stages, r.stages)
	}
	m := o.layers
	if err := traceSummary(reqs, wall, m); err != nil {
		return err
	}
	rounds := records / float64(ingestRoundBatches*ingestBatch)
	stageMetrics(stages, rounds, m)
	runtimeMetrics(st, records, rounds, m)
	m["core.splits_per_krec"] = splits / (records / 1000)
	m["core.groups_end"] = float64(traced[0].groups)
	m["trace.overhead_ms"] = median(latT) - median(latP)
	return nil
}

// deployWarm starts a deployment and opens n warmed connections to it.
func deployWarm(tr *tracer, n int) (*deployment, []*conn, error) {
	d, err := deploy(tr)
	if err != nil {
		return nil, nil, err
	}
	conns := make([]*conn, n)
	for i := range conns {
		conns[i] = newConn(d, fmt.Sprintf("c%d", i))
		if err := conns[i].warm(); err != nil {
			closeAll(d, conns[:i+1])
			return nil, nil, err
		}
	}
	return d, conns, nil
}

func closeAll(d *deployment, conns []*conn) {
	for _, c := range conns {
		c.close()
	}
	_ = d.close() // shutdown errors after a finished run change nothing measured
}

// allocsPerRequest sends allocCalibration requests one at a time, with
// nothing else running, and returns the mean number of heap allocations
// per request — client and server together. prepare, when set, runs
// before each request outside the counted window (a write that moves
// the generation, so the read takes its uncached path).
func allocsPerRequest(send func(i int) error, prepare func(i int) error) (float64, error) {
	var total uint64
	var ms runtime.MemStats
	for i := 0; i < allocCalibration; i++ {
		if prepare != nil {
			if err := prepare(i); err != nil {
				return 0, err
			}
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if err := send(i); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	return float64(total) / allocCalibration, nil
}
