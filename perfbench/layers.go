package main

import (
	"fmt"
	"math"
)

var routes = []string{"records", "snapshot", "checkpoint", "stats"}

// traceSummary attributes the traced requests' time to the net, server
// and core layers and fills the span-derived per-layer metrics. wall is
// the total duration of the traced phases, for the engine's busy share.
// It returns an error when the layer-sum check fails or a request's
// spans could not be joined.
func traceSummary(reqs []*reqTrace, wall float64, m map[string]float64) error {
	netSelf := map[string][]float64{}
	srvSelf := map[string][]float64{}
	var srvRecordsNs, addBatchNs, records, reqBytes float64
	var snapBytes, snaps float64
	var condMs []float64
	var addBatch []span
	var sumLayers, sumClient float64
	unjoined := 0
	for _, rt := range reqs {
		if !rt.served || rt.client.dur() <= 0 {
			unjoined++
			continue
		}
		cores := make([]span, len(rt.core))
		n := 0
		for i, c := range rt.core {
			cores[i] = c.s
			n += c.records
			switch c.name {
			case "add_batch":
				addBatchNs += float64(c.s.dur())
				addBatch = append(addBatch, c.s)
			case "condensation":
				condMs = append(condMs, float64(c.s.dur())/1e6)
			}
		}
		net, srv, cor := layerSelf(rt.client, rt.server, cores)
		sumLayers += float64(net + srv + cor)
		sumClient += float64(rt.client.dur())
		netSelf[rt.route] = append(netSelf[rt.route], float64(net)/1e6)
		srvSelf[rt.route] = append(srvSelf[rt.route], float64(srv)/1e6)
		switch rt.route {
		case "records":
			srvRecordsNs += float64(srv)
			records += float64(n)
			reqBytes += float64(rt.reqBytes)
		case "snapshot":
			snapBytes += float64(rt.respBytes)
			snaps++
		}
	}
	for _, r := range routes {
		if xs := netSelf[r]; len(xs) > 0 {
			m["net."+r+".self_ms_p50"] = median(xs)
		}
		if xs := srvSelf[r]; len(xs) > 0 && r != "records" {
			m["server."+r+".self_ms_p50"] = median(xs)
		}
	}
	if records > 0 {
		m["net.req_bytes_per_record"] = reqBytes / records
		m["server.records.self_us_per_record"] = srvRecordsNs / 1e3 / records
		m["core.add_batch_us_per_record"] = addBatchNs / 1e3 / records
	}
	if snaps > 0 {
		m["net.resp_bytes_per_snapshot"] = snapBytes / snaps
	}
	if wall > 0 {
		m["core.add_batch_busy_share"] = float64(unionLen(addBatch)) / 1e9 / wall
	}
	if len(condMs) > 0 {
		m["core.condensation_ms_p50"] = median(condMs)
	}
	if unjoined > 0 {
		return fmt.Errorf("layer-sum check: %d traced requests have no server span", unjoined)
	}
	if sumClient == 0 {
		return fmt.Errorf("layer-sum check: no traced requests")
	}
	errPct := 100 * math.Abs(sumLayers-sumClient) / sumClient
	m["trace.layer_sum_err_pct"] = errPct
	if errPct > layerSumTolPct {
		return fmt.Errorf("layer-sum check: net+server+core self-times differ from the round trips by %.3f%%, tolerance %.1f%%", errPct, layerSumTolPct)
	}
	return nil
}

// stageMetrics fills the engine stage metrics from a registry delta,
// scaled by per (the traced phase's units of work).
func stageMetrics(d map[string]stageTotal, per float64, m map[string]float64) {
	m["kernel.neighbor_search_s"] = d["neighbor_search"].seconds / per
	m["core.split_s"] = d["split"].seconds / per
	m["core.group_stats_s"] = d["group_stats"].seconds / per
	m["core.synthesis_s"] = d["synthesis"].seconds / per
	m["mat.eigen_s"] = d["eigen"].seconds / per
	m["mat.eigensolves"] = float64(d["eigen"].count) / per
}

// addStages adds the stage totals of src into dst.
func addStages(dst, src map[string]stageTotal) {
	for k, v := range src {
		t := dst[k]
		t.seconds += v.seconds
		t.count += v.count
		dst[k] = t
	}
}

// runtimeMetrics fills the runtime metrics from a process-stats delta
// over the traced phase, which moved records records in per units of
// work.
func runtimeMetrics(d procStats, records, per float64, m map[string]float64) {
	if records > 0 {
		m["runtime.alloc_bytes_per_record"] = float64(d.allocBytes) / records
		m["runtime.cpu_s_per_krec"] = d.cpu.Seconds() / (records / 1000)
	}
	m["runtime.gc_cycles"] = float64(d.numGC) / per
	m["runtime.gc_pause_ms"] = float64(d.pauseNs) / 1e6 / per
}

// cacheRatios fills the read-cache hit ratios from hit and miss counts
// by cache kind.
func cacheRatios(counts map[string][2]float64, m map[string]float64) {
	for _, kind := range []string{"synthesis", "checkpoint", "stats"} {
		hits, misses := counts[kind][0], counts[kind][1]
		if hits+misses > 0 {
			m["server.cache_hit_ratio."+kind] = hits / (hits + misses)
		}
	}
}
