package main

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"condensation/internal/server"
	"condensation/internal/telemetry"
)

// heapSampler tracks the peak live Go heap (bytes in heap objects) over
// a timed phase by sampling the runtime every 10 ms.
type heapSampler struct {
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler, waits for it, and returns the peak in MB.
// Later calls return the same peak.
func (h *heapSampler) peakMB() float64 {
	h.once.Do(func() { close(h.stop) })
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// procStats is a point-in-time reading of the process's runtime and CPU
// counters; the difference of two readings covers the phase between.
type procStats struct {
	allocBytes uint64
	numGC      uint32
	pauseNs    uint64
	cpu        time.Duration
}

func readProcStats() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procStats{allocBytes: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs, cpu: cpu}
}

func (a procStats) sub(b procStats) procStats {
	return procStats{
		allocBytes: a.allocBytes - b.allocBytes, numGC: a.numGC - b.numGC,
		pauseNs: a.pauseNs - b.pauseNs, cpu: a.cpu - b.cpu,
	}
}

func (a procStats) add(b procStats) procStats {
	return procStats{
		allocBytes: a.allocBytes + b.allocBytes, numGC: a.numGC + b.numGC,
		pauseNs: a.pauseNs + b.pauseNs, cpu: a.cpu + b.cpu,
	}
}

// stageTotals sums the engine's condense_stage_seconds series by stage
// label across backends and shards.
type stageTotal struct {
	seconds float64
	count   uint64
}

func stageTotals(reg *telemetry.Registry) map[string]stageTotal {
	out := make(map[string]stageTotal)
	for _, s := range reg.Snapshot() {
		if s.Name != "condense_stage_seconds" || s.Kind != "histogram" {
			continue
		}
		st := label(s.Labels, "stage")
		t := out[st]
		t.seconds += s.Sum
		t.count += s.Count
		out[st] = t
	}
	return out
}

func stageDelta(after, before map[string]stageTotal) map[string]stageTotal {
	out := make(map[string]stageTotal, len(after))
	for k, a := range after {
		b := before[k]
		out[k] = stageTotal{seconds: a.seconds - b.seconds, count: a.count - b.count}
	}
	return out
}

// cacheCounts reads the server's read-cache hit and miss counters by
// cache kind.
func cacheCounts(reg *telemetry.Registry) map[string][2]float64 {
	out := make(map[string][2]float64)
	for _, s := range reg.Snapshot() {
		var i int
		switch s.Name {
		case server.MetricReadCacheHits:
			i = 0
		case server.MetricReadCacheMisses:
			i = 1
		default:
			continue
		}
		c := out[label(s.Labels, "cache")]
		c[i] += s.Value
		out[label(s.Labels, "cache")] = c
	}
	return out
}

func cacheDelta(after, before map[string][2]float64) map[string][2]float64 {
	out := make(map[string][2]float64, len(after))
	for k, a := range after {
		b := before[k]
		out[k] = [2]float64{a[0] - b[0], a[1] - b[1]}
	}
	return out
}

// label extracts one label's value from a rendered {k="v",...} block.
func label(labels, key string) string {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(key)+2:]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}
