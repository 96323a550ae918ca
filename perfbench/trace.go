package main

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"condensation/internal/core"
	"condensation/internal/mat"
)

// The traced run records spans from the benchmark's own code around the
// calls into each layer: the client round trip (net), Server.ServeHTTP
// through a wrapping handler (server), and engine calls through a
// core.Engine decorator (core). Spans stay in memory until the run ends.

// reqTrace is one request's spans, joined by its X-Request-ID.
type reqTrace struct {
	route     string
	client    span
	server    span
	served    bool
	core      []coreSpan
	reqBytes  int
	respBytes int
}

// coreSpan is one timed engine call.
type coreSpan struct {
	name    string
	s       span
	records int
}

type tracer struct {
	origin time.Time

	mu     sync.Mutex
	reqs   map[string]*reqTrace
	order  []*reqTrace
	active map[uint64]*reqTrace // goroutine id → request it is serving
	// orphans are engine calls made outside any traced request, such as
	// the background auditor's snapshots.
	orphans []coreSpan
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		reqs:   make(map[string]*reqTrace),
		active: make(map[uint64]*reqTrace),
	}
}

// at converts a time to the tracer's clock; both carry monotonic readings.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.origin)) }

func (t *tracer) now() int64 { return t.at(time.Now()) }

func (t *tracer) begin(id, route string) *reqTrace {
	rt := &reqTrace{route: route}
	t.mu.Lock()
	t.reqs[id] = rt
	t.order = append(t.order, rt)
	t.mu.Unlock()
	return rt
}

func (t *tracer) finish(rt *reqTrace, sent, done time.Time, reqBytes, respBytes int) {
	t.mu.Lock()
	rt.client = span{t.at(sent), t.at(done)}
	rt.reqBytes, rt.respBytes = reqBytes, respBytes
	t.mu.Unlock()
}

// requests returns the traced requests in the order they were sent.
func (t *tracer) requests() []*reqTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*reqTrace(nil), t.order...)
}

// recordCore attributes an engine call to the request the calling
// goroutine is serving. net/http runs a request's handler on its
// connection's goroutine, and the server calls the engine synchronously
// from the handler, so the goroutine identifies the request.
func (t *tracer) recordCore(name string, start, end int64, records int) {
	cs := coreSpan{name: name, s: span{start, end}, records: records}
	gid := goid()
	t.mu.Lock()
	if rt := t.active[gid]; rt != nil {
		rt.core = append(rt.core, cs)
	} else {
		t.orphans = append(t.orphans, cs)
	}
	t.mu.Unlock()
}

// tracedHandler records the Server.ServeHTTP span of every request.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.tr.now()
	gid := goid()
	id := r.Header.Get("X-Request-ID")
	h.tr.mu.Lock()
	rt := h.tr.reqs[id]
	if rt != nil {
		h.tr.active[gid] = rt
	}
	h.tr.mu.Unlock()
	h.next.ServeHTTP(w, r)
	end := h.tr.now()
	if rt != nil {
		h.tr.mu.Lock()
		rt.server, rt.served = span{start, end}, true
		delete(h.tr.active, gid)
		h.tr.mu.Unlock()
	}
}

// timedEngine times the engine calls the server's handlers make: batch
// ingest, and the condensation snapshot behind snapshot and checkpoint
// reads. Every other method passes through to the embedded engine.
type timedEngine struct {
	core.Engine
	tr *tracer
}

func (e *timedEngine) AddBatchContext(ctx context.Context, records []mat.Vector) error {
	start := e.tr.now()
	err := e.Engine.AddBatchContext(ctx, records)
	e.tr.recordCore("add_batch", start, e.tr.now(), len(records))
	return err
}

func (e *timedEngine) Condensation() *core.Condensation {
	start := e.tr.now()
	c := e.Engine.Condensation()
	e.tr.recordCore("condensation", start, e.tr.now(), 0)
	return c
}

// goid returns the calling goroutine's id, parsed from the header line
// of its stack trace ("goroutine 123 [running]:"). It costs about a
// microsecond and runs only in the traced run.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}
