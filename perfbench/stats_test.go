package main

import (
	"math"
	"testing"
	"time"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{1500, 0.99, 15, true},
		{100, 0.90, 10, true},
		{99, 0.90, 9, false},
		{19, 0.5, 9, false},
		{0, 0.99, 0, false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending: tail must sort
		}
		v, beyond, ok := tail(xs, tc.q)
		if beyond != tc.beyond || ok != tc.ok {
			t.Errorf("tail(n=%d, q=%v): beyond=%d ok=%v, want %d %v", tc.n, tc.q, beyond, ok, tc.beyond, tc.ok)
		}
		if tc.n > 0 {
			if want := float64(tc.n - tc.beyond); v != want {
				t.Errorf("tail(n=%d, q=%v) = %v, want %v", tc.n, tc.q, v, want)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty median is not NaN")
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	parent := span{0, 100}
	for _, tc := range []struct {
		name     string
		children []span
		self     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []span{{10, 20}, {30, 50}}, 70},
		{"overlapping children count once", []span{{10, 40}, {30, 60}}, 50},
		{"child nested in child", []span{{10, 60}, {20, 30}}, 50},
		{"child outside parent is clipped", []span{{-20, 10}, {90, 130}}, 80},
		{"child wholly outside", []span{{100, 120}}, 100},
		{"children cover parent", []span{{0, 50}, {50, 100}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.self {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.self)
		}
	}
}

// TestLayerSumDetectsEscapedChildren checks the property the traced run's
// layer-sum check relies on: self-times add up to the root exactly when
// every child nests in its parent, and child time outside its parent
// shows up as a surplus.
func TestLayerSumDetectsEscapedChildren(t *testing.T) {
	client := span{0, 1000}
	server := span{100, 900}
	core := []span{{200, 300}, {400, 700}}
	net, srv, cor := layerSelf(client, server, core)
	if net != 200 || srv != 400 || cor != 400 {
		t.Fatalf("layer self-times = %d %d %d, want 200 400 400", net, srv, cor)
	}
	if sumOK := net + srv + cor; sumOK != client.dur() {
		t.Fatalf("nested layers sum to %d, want %d", sumOK, client.dur())
	}
	escaped := []span{{200, 300}, {850, 950}}
	net, srv, cor = layerSelf(client, server, escaped)
	if sumBad := net + srv + cor; sumBad != client.dur()+50 {
		t.Fatalf("escaped child: layers sum to %d, want %d", sumBad, client.dur()+50)
	}
}

func TestOpenLoopDueTimeAccounting(t *testing.T) {
	t0 := time.Unix(0, 0)
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	sched := schedule{start: t0, interval: 10 * time.Millisecond}
	// Request 0 stalls for 35 ms; requests 1..3 were due during the stall
	// and can only be sent when the connection frees up.
	type req struct{ sent, done int }
	reqs := []req{{0, 35}, {35, 37}, {37, 39}, {39, 41}, {41, 43}}
	wantLat := []int{35, 27, 19, 11, 3}
	prevDone := time.Time{}
	for i, r := range reqs {
		lat, late := openLoopSample(sched.due(i), prevDone, ms(r.sent), ms(r.done))
		if lat != time.Duration(wantLat[i])*time.Millisecond {
			t.Errorf("request %d latency = %v, want %dms", i, lat, wantLat[i])
		}
		if late != 0 {
			t.Errorf("request %d: generator late %v, want 0 (queueing is not lateness)", i, late)
		}
		prevDone = ms(r.done)
	}
	// A generator that oversleeps is late even on an idle connection.
	lat, late := openLoopSample(ms(50), ms(42), ms(58), ms(60))
	if late != 8*time.Millisecond || lat != 10*time.Millisecond {
		t.Errorf("oversleep: latency %v late %v, want 10ms 8ms", lat, late)
	}
}

func TestSnapshotRows(t *testing.T) {
	for _, tc := range []struct {
		body string
		rows int
		ok   bool
	}{
		{`{"records":[[1,-2.5],[0.25,3e-7]],"groups":1,"k":25}` + "\n", 2, true},
		{`{"records":[],"groups":0,"k":25}`, 0, true},
		{`{"records":[[1,2,3]],"groups":1,"k":25}`, 0, false},
		{`{"records":[[1]],"groups":1,"k":25}`, 0, false},
		{`{"records":[[1,1e999]],"groups":1,"k":25}`, 0, false},
		{`{"records":[[1,NaN]],"groups":1,"k":25}`, 0, false},
		{`{"records":[[01,2]],"groups":1,"k":25}`, 0, false},
		{`{"records":[[1,2.]],"groups":1,"k":25}`, 0, false},
		{`{"records":[[1,2]],"groups":1,"k":3}`, 1, false},
	} {
		rows, err := snapshotRows([]byte(tc.body), 2)
		if (err == nil) != tc.ok || (tc.ok && rows != tc.rows) {
			t.Errorf("snapshotRows(%s) = %d, %v; want %d rows, ok=%v", tc.body, rows, err, tc.rows, tc.ok)
		}
	}
}
