package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"condensation/internal/rng"
)

// The serve_mixed workload: state is preloaded through the API (counted
// in setup_s), then an open-loop writer POSTs 64-record batches on a
// fixed schedule over one connection while one closed-loop reader cycles
// through a conditional checkpoint poll, stats, a second conditional
// checkpoint poll and a snapshot over the other. Every write moves the
// engine generation, so synthesis, the checkpoint re-encode and the 304
// path all compete with ingest for the CPUs. The benchmark also drives
// condenserd's two background loops, the privacy auditor and the flight
// recorder's scrape with its watchdog evaluation, at shorter cadences than
// the daemon's defaults so both fire within a round.
//
// The measured time is split into rounds of about mixedRound, each
// against a freshly preloaded server replaying the same write schedule,
// so the state grows by a bounded amount per round and a burst of noise
// on the machine moves one round's figures, not the run's medians.
const (
	mixedPreload      = 20000
	mixedPreloadBatch = 256
	mixedBatch        = 64
	// mixedRate gives at least 1000 writes in a 20 s run, enough for a
	// p99 with ten samples beyond it.
	mixedRate     = 60
	mixedRound    = 5 * time.Second
	snapshotSeeds = 4
	auditEvery    = 2 * time.Second
	scrapeEvery   = time.Second
	// lateBound is how far behind its schedule (p99) the generator may
	// fall before the run is invalid: beyond it the writer no longer
	// offers the load the schedule describes.
	lateBound = 50 * time.Millisecond
)

// mixedServer is one preloaded deployment with its two connections.
type mixedServer struct {
	d       *deployment
	writer  *conn
	reader  *conn
	preload moments
}

func (s *mixedServer) close() { closeAll(s.d, []*conn{s.writer, s.reader}) }

// mixedPhase is one round's measurements.
type mixedPhase struct {
	elapsed                   time.Duration
	writeLat, late            []float64 // ms, from due time / generator lateness
	snapLat, ckptLat          []float64 // ms
	reads, snapRows           int
	snapRate                  []float64 // rows per second of each snapshot request
	condSent, notModified     int
	auditMs, scrapeMs         []float64
	acked                     moments
	ackedRecords, sentRecords atomic.Int64
	splits, groups            int
	heapMB                    float64
	reqs                      []*reqTrace
	stages                    map[string]stageTotal
	cache                     map[string][2]float64 // read-cache hits and misses by kind
	proc                      procStats
	mu                        sync.Mutex
	attempted                 int
}

func mixedInputs(seed uint64, writes int) (preload, stream []batch) {
	f := newFactorStream(rng.New(loadingSeed), rng.New(seed), serveDim, nil)
	preload = encodeBatches(f, mixedPreload, mixedPreloadBatch)
	stream = encodeBatches(f, writes*mixedBatch, mixedBatch)
	return preload, stream
}

// mixedDeploy starts a deployment and preloads it through the API over
// its two connections.
func mixedDeploy(preload []batch, tr *tracer) (*mixedServer, error) {
	d, conns, err := deployWarm(tr, 2)
	if err != nil {
		return nil, err
	}
	s := &mixedServer{d: d, writer: conns[0], reader: conns[1], preload: newMoments(serveDim)}
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for i := ci; i < len(preload); i += len(conns) {
				if _, err := c.post(&preload[i]); err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	for i := range preload {
		s.preload.merge(preload[i].mom)
	}
	return s, nil
}

// splitRounds divides the measured time into rounds of about target; a
// traced run needs at least one untraced and one traced round.
func splitRounds(measure, target time.Duration, trace bool) (int, time.Duration) {
	n := int((measure + target/2) / target)
	if n < 1 {
		n = 1
	}
	if trace && n < 2 {
		n = 2
	}
	return n, measure / time.Duration(n)
}

func runServeMixed(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	rounds, roundDur := splitRounds(cfg.measure, mixedRound, cfg.trace)
	writesNeeded := int(roundDur.Seconds()*mixedRate) + 4*allocCalibration + 8
	var preload, writes []batch
	first, setup, err := setupMedian(setupReps, func() (*mixedServer, error) {
		preload, writes = mixedInputs(cfg.seed, writesNeeded)
		return mixedDeploy(preload, nil)
	}, (*mixedServer).close)
	if err != nil {
		return nil, err
	}

	var plain, traced []*mixedPhase
	for r := 0; r < rounds; r++ {
		var tr *tracer
		if cfg.trace && r%2 == 1 {
			tr = newTracer()
		}
		s := first
		if r > 0 {
			if s, err = mixedDeploy(preload, tr); err != nil {
				return nil, err
			}
		}
		o.attempted += len(preload)
		heap := startHeapSampler()
		p := mixedRun(o, s, writes, roundDur, cfg.seed)
		p.heapMB = heap.peakMB()
		if tr != nil {
			p.reqs = tr.requests()
		}
		var calib []batch
		if cfg.trace && r == 0 {
			calib = writes[len(writes)-4*allocCalibration:]
		}
		err := mixedFinish(o, s, p, calib)
		s.close()
		if err != nil {
			return nil, err
		}
		if tr != nil {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
	}

	all := append(append([]*mixedPhase(nil), plain...), traced...)
	var writeP50, heapMB []float64
	var writeLat, snapLat, snapRate, ckptLat, late []float64
	var reads, snapRows, condSent, notModified int
	var elapsed time.Duration
	for _, p := range all {
		writeP50 = append(writeP50, median(p.writeLat))
		heapMB = append(heapMB, p.heapMB)
		writeLat = append(writeLat, p.writeLat...)
		snapLat = append(snapLat, p.snapLat...)
		snapRate = append(snapRate, p.snapRate...)
		ckptLat = append(ckptLat, p.ckptLat...)
		late = append(late, p.late...)
		reads += p.reads
		snapRows += p.snapRows
		condSent += p.condSent
		notModified += p.notModified
		elapsed += p.elapsed
	}
	o.e2e["op_p50_ms"] = median(writeP50)
	o.e2e["records_per_s"] = median(snapRate)
	o.e2e["heap_peak_mb"] = median(heapMB)
	o.e2e["setup_s"] = setup
	o.report("write_p50_ms", median(writeLat), "ms", fmt.Sprintf("n=%d, from due time", len(writeLat)))
	o.reportTail("write_p99_ms", writeLat, 0.99, "ms")
	o.report("snapshot_p50_ms", median(snapLat), "ms", fmt.Sprintf("n=%d", len(snapLat)))
	o.reportTail("snapshot_p90_ms", snapLat, 0.90, "ms")
	o.report("checkpoint_p50_ms", median(ckptLat), "ms", fmt.Sprintf("n=%d, %d of %d conditional polls answered 304", len(ckptLat), notModified, condSent))
	o.report("reads_per_s", float64(reads)/elapsed.Seconds(), "reads/s", fmt.Sprintf("n=%d", reads))
	o.report("snapshot_records_per_s", median(snapRate), "records/s", fmt.Sprintf("n=%d snapshots, %d rows", len(snapRate), snapRows))
	o.report("heap_peak_mb", median(heapMB), "MB", fmt.Sprintf("median of %d rounds", len(all)))
	o.report("setup_s", setup, "s", fmt.Sprintf("median of %d, %d records preloaded", setupReps, mixedPreload))
	o.reportTail("loadgen.late_p99_ms", late, 0.99, "ms")
	if v, _, ok := tail(late, 0.99); ok {
		o.layers["loadgen.late_p99_ms"] = v
	}
	mixedValidity(o, late)
	if cfg.trace {
		if err := mixedLayers(o, plain, traced); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// mixedLayers fills the per-layer metrics from the traced rounds and the
// tracing overhead from the traced and untraced rounds' write latency.
func mixedLayers(o *outcome, plain, traced []*mixedPhase) error {
	m := o.layers
	var reqs []*reqTrace
	var wall, records float64
	var latP, latT, auditMs, scrapeMs []float64
	var condSent, notModified, splits int
	var proc procStats
	stages := map[string]stageTotal{}
	cache := map[string][2]float64{}
	for _, p := range plain {
		latP = append(latP, p.writeLat...)
	}
	for _, p := range traced {
		latT = append(latT, p.writeLat...)
		reqs = append(reqs, p.reqs...)
		wall += p.elapsed.Seconds()
		records += float64(p.acked.n)
		auditMs = append(auditMs, p.auditMs...)
		scrapeMs = append(scrapeMs, p.scrapeMs...)
		condSent += p.condSent
		notModified += p.notModified
		splits += p.splits
		proc = proc.add(p.proc)
		addStages(stages, p.stages)
		for k, d := range p.cache {
			c := cache[k]
			cache[k] = [2]float64{c[0] + d[0], c[1] + d[1]}
		}
	}
	if err := traceSummary(reqs, wall, m); err != nil {
		return err
	}
	n := float64(len(traced))
	stageMetrics(stages, n, m)
	runtimeMetrics(proc, records, n, m)
	cacheRatios(cache, m)
	if condSent > 0 {
		m["server.checkpoint.not_modified_ratio"] = float64(notModified) / float64(condSent)
	}
	m["core.splits_per_krec"] = float64(splits) / (records / 1000)
	m["core.groups_end"] = float64(traced[0].groups)
	if len(auditMs) > 0 {
		m["audit.compute_ms"] = median(auditMs)
	}
	if len(scrapeMs) > 0 {
		m["telemetry.scrape_ms"] = median(scrapeMs)
	}
	m["trace.overhead_ms"] = median(latT) - median(latP)
	return nil
}

// mixedValidity marks the run invalid when the generator fell behind
// its schedule by more than lateBound at the 99th percentile.
func mixedValidity(o *outcome, late []float64) {
	v, _, ok := tail(late, 0.99)
	if !ok {
		v = sortedCopy(late)[len(late)-1]
	}
	if v > ms(lateBound) {
		o.invalid = fmt.Sprintf("open-loop generator ran %.1f ms late at p99, bound %.0f ms", v, ms(lateBound))
	}
}

// mixedRun runs one timed phase of the open-loop writer, the closed-loop
// reader and the background loops against s.
func mixedRun(o *outcome, s *mixedServer, writes []batch, dur time.Duration, seed uint64) *mixedPhase {
	p := &mixedPhase{acked: newMoments(serveDim)}
	eng := s.d.srv.Engine()
	splitsBefore := eng.Splits()
	stagesBefore := stageTotals(s.d.reg)
	cacheBefore := cacheCounts(s.d.reg)
	procBefore := readProcStats()

	ctx, cancel := context.WithCancel(context.Background())
	var loops sync.WaitGroup
	loops.Add(2)
	go func() {
		defer loops.Done()
		every(ctx, auditEvery, func() {
			t0 := time.Now()
			_, err := s.d.srv.Audit()
			d := ms(time.Since(t0))
			p.mu.Lock()
			defer p.mu.Unlock()
			p.attempted++
			if err != nil {
				o.fail("audit: %v", err)
				return
			}
			p.auditMs = append(p.auditMs, d)
		})
	}()
	go func() {
		defer loops.Done()
		every(ctx, scrapeEvery, func() {
			t0 := time.Now()
			s.d.rec.Scrape()
			s.d.wd.Evaluate(s.d.rec)
			d := ms(time.Since(t0))
			p.mu.Lock()
			p.scrapeMs = append(p.scrapeMs, d)
			p.mu.Unlock()
		})
	}()

	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		mixedWriter(o, s, p, writes, schedule{start: start, interval: time.Second / mixedRate}, end)
	}()
	go func() {
		defer wg.Done()
		mixedReader(o, s, p, seed, end)
	}()
	wg.Wait()
	p.elapsed = time.Since(start)
	cancel()
	loops.Wait()

	p.proc = readProcStats().sub(procBefore)
	p.stages = stageDelta(stageTotals(s.d.reg), stagesBefore)
	p.cache = cacheDelta(cacheCounts(s.d.reg), cacheBefore)
	p.splits = eng.Splits() - splitsBefore
	p.groups = eng.NumGroups()
	return p
}

// every calls f every interval until ctx is done.
func every(ctx context.Context, interval time.Duration, f func()) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f()
		}
	}
}

func mixedWriter(o *outcome, s *mixedServer, p *mixedPhase, writes []batch, sched schedule, end time.Time) {
	var prevDone time.Time
	for i := 0; i < len(writes); i++ {
		due := sched.due(i)
		if !due.Before(end) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		b := &writes[i]
		p.sentRecords.Add(int64(b.mom.n))
		rep, err := s.writer.post(b)
		p.mu.Lock()
		p.attempted++
		if err != nil {
			o.fail("%v", err)
			p.mu.Unlock()
			return
		}
		lat, late := openLoopSample(due, prevDone, rep.sent, rep.done)
		p.writeLat = append(p.writeLat, ms(lat))
		p.late = append(p.late, ms(late))
		p.acked.merge(b.mom)
		p.mu.Unlock()
		p.ackedRecords.Add(int64(b.mom.n))
		prevDone = rep.done
	}
}

func mixedReader(o *outcome, s *mixedServer, p *mixedPhase, seed uint64, end time.Time) {
	etag := ""
	base := int64(s.preload.n)
	for op := 0; time.Now().Before(end); op++ {
		var err error
		switch op % 4 {
		case 0, 2:
			etag, err = pollCheckpoint(s.reader, p, etag)
		case 1:
			err = readStats(s.reader, p, base)
		case 3:
			err = readSnapshot(s.reader, p, base, seed+uint64(op/4%snapshotSeeds))
		}
		p.mu.Lock()
		p.attempted++
		p.reads++
		if err != nil {
			o.fail("%v", err)
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()
	}
}

// pollCheckpoint is a replica-style conditional checkpoint fetch: it
// sends the last ETag it saw and accepts 304 only for that tag.
func pollCheckpoint(c *conn, p *mixedPhase, etag string) (string, error) {
	var hdr map[string]string
	if etag != "" {
		hdr = map[string]string{"If-None-Match": etag}
	}
	rep, err := c.do(http.MethodGet, "/v1/checkpoint", nil, hdr)
	if err != nil {
		return etag, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ckptLat = append(p.ckptLat, ms(rep.done.Sub(rep.sent)))
	if etag != "" {
		p.condSent++
	}
	switch rep.status {
	case http.StatusNotModified:
		if etag == "" || rep.etag != etag {
			return etag, fmt.Errorf("GET /v1/checkpoint: 304 for ETag %q, sent %q", rep.etag, etag)
		}
		p.notModified++
		return etag, nil
	case http.StatusOK:
		if len(rep.body) < 64 {
			return etag, fmt.Errorf("GET /v1/checkpoint: %d-byte body", len(rep.body))
		}
		if rep.etag != "" {
			etag = rep.etag
		}
		return etag, nil
	}
	return etag, fmt.Errorf("GET /v1/checkpoint: status %d", rep.status)
}

func readStats(c *conn, p *mixedPhase, base int64) error {
	lo := base + p.ackedRecords.Load()
	rep, err := c.do(http.MethodGet, "/v1/stats", nil, nil)
	if err != nil {
		return err
	}
	hi := base + p.sentRecords.Load()
	if rep.status != http.StatusOK {
		return fmt.Errorf("GET /v1/stats: status %d", rep.status)
	}
	var st struct {
		Records    int64 `json:"records"`
		KSatisfied bool  `json:"k_satisfied"`
	}
	if err := json.Unmarshal(rep.body, &st); err != nil {
		return fmt.Errorf("GET /v1/stats: %w", err)
	}
	if !st.KSatisfied || st.Records < lo || st.Records > hi {
		return fmt.Errorf("GET /v1/stats: %d records (want %d..%d), k_satisfied=%v", st.Records, lo, hi, st.KSatisfied)
	}
	return nil
}

// readSnapshot fetches one synthesized snapshot and checks it holds one
// finite row of dimension d per condensed record.
func readSnapshot(c *conn, p *mixedPhase, base int64, seed uint64) error {
	lo := base + p.ackedRecords.Load()
	rep, err := c.do(http.MethodGet, "/v1/snapshot?seed="+strconv.FormatUint(seed, 10), nil, nil)
	if err != nil {
		return err
	}
	hi := base + p.sentRecords.Load()
	lat := ms(rep.done.Sub(rep.sent))
	if rep.status != http.StatusOK {
		return fmt.Errorf("GET /v1/snapshot: status %d", rep.status)
	}
	rows, err := snapshotRows(rep.body, serveDim)
	if err != nil {
		return err
	}
	if int64(rows) < lo || int64(rows) > hi {
		return fmt.Errorf("GET /v1/snapshot: %d rows, want %d..%d", rows, lo, hi)
	}
	p.mu.Lock()
	p.snapLat = append(p.snapLat, lat)
	p.snapRate = append(p.snapRate, float64(rows)/(lat/1000))
	p.snapRows += rows
	p.mu.Unlock()
	return nil
}

// mixedFinish counts the phase's operations, optionally counts the
// allocations of single requests on each route (calib supplies the
// writes), and checks the final state against everything acknowledged.
func mixedFinish(o *outcome, s *mixedServer, p *mixedPhase, calib []batch) error {
	o.attempted += p.attempted
	acked := newMoments(serveDim)
	acked.merge(s.preload)
	acked.merge(p.acked)
	if calib != nil {
		post := func(i int) error {
			if _, err := s.writer.post(&calib[i]); err != nil {
				return err
			}
			acked.merge(calib[i].mom)
			return nil
		}
		get := func(path string) func(int) error {
			return func(int) error {
				rep, err := s.reader.do(http.MethodGet, path, nil, nil)
				if err == nil && rep.status != http.StatusOK {
					err = fmt.Errorf("GET %s: status %d", path, rep.status)
				}
				return err
			}
		}
		n := allocCalibration
		for _, c := range []struct {
			route   string
			send    func(int) error
			prepare func(int) error
		}{
			{"records", post, nil},
			{"stats", get("/v1/stats"), func(i int) error { return post(n + i) }},
			{"checkpoint", get("/v1/checkpoint"), func(i int) error { return post(2*n + i) }},
			{"snapshot", get("/v1/snapshot?seed=1"), func(i int) error { return post(3*n + i) }},
		} {
			v, err := allocsPerRequest(c.send, c.prepare)
			if err != nil {
				return err
			}
			o.layers["runtime.allocs_per_request."+c.route] = v
		}
	}
	problems, err := checkState(s.reader, acked)
	if err != nil {
		return err
	}
	o.attempted++
	for _, pr := range problems {
		o.fail("%s", pr)
	}
	return nil
}
