package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a tail
// percentile before the benchmark reports it: with fewer, the value is
// set by a handful of requests and moves from run to run by chance.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count); xs need not be sorted and is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the nearest-rank q-quantile of xs and the number of
// samples above that rank. ok is false when fewer than minBeyond samples
// lie beyond it, in which case the percentile must not be reported.
func tail(xs []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	s := sortedCopy(xs)
	beyond = n - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// span is a closed-open interval [start, end) in nanoseconds on the
// benchmark's monotonic clock.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// covered returns how much of parent the union of children covers. Child
// time outside parent is not counted, and overlapping children count
// once, so covered never exceeds parent's duration.
func covered(parent span, children []span) int64 {
	clipped := make([]span, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	return unionLen(clipped)
}

// unionLen returns the total length of the union of the spans.
func unionLen(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, x := range s[1:] {
		if x.start > cur.end {
			total += cur.dur()
			cur = x
			continue
		}
		if x.end > cur.end {
			cur.end = x.end
		}
	}
	return total + cur.dur()
}

// selfTime is a span's duration minus the part of it its children cover:
// the time attributable to the span's own layer.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent, children)
}

// layerSelf splits one request's client round trip into the self-times
// of the net, server and core layers: net is the round trip minus the
// part the server span covers, server is the server span minus the part
// the engine calls cover, and core is the engine calls' own time. When
// every span nests in its parent the three add up to the round trip
// exactly; time a child spends outside its parent makes them add up to
// more, which is what the traced run's layer-sum check detects.
func layerSelf(client, server span, core []span) (net, srv, cor int64) {
	for _, c := range core {
		cor += c.dur()
	}
	return selfTime(client, []span{server}), selfTime(server, core), cor
}

// schedule is an open-loop arrival schedule: request i is due at
// start + i·interval whether or not earlier requests have finished.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// openLoopSample accounts one open-loop request sent over a connection
// that carries one request at a time. The latency runs from the due time,
// so a stall also charges the requests that queued behind it. The
// generator's own lateness is how long after it could have sent it did
// send: after the due time and after the previous request on the
// connection completed. A late generator measures too little load, which
// makes the run invalid rather than slow.
func openLoopSample(due, prevDone, sent, done time.Time) (latency, late time.Duration) {
	ready := due
	if prevDone.After(ready) {
		ready = prevDone
	}
	late = sent.Sub(ready)
	if late < 0 {
		late = 0
	}
	return done.Sub(due), late
}
