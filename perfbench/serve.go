package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"condensation/internal/core"
	"condensation/internal/server"
	"condensation/internal/telemetry"
)

// The serving configuration mirrors condenserd's: telemetry registry,
// group-lifecycle journal (its default 4096 events), flight recorder and
// health watchdog, the default search, precision, parallelism and batch
// limit, and the paper's dimension and k for the factor stream. Two
// shards match the two CPUs of the reference runner.
const (
	serveDim    = 8
	serveK      = 25
	serveShards = 2
	journalCap  = 4096
	serveSeed   = 1
)

// deployment is one condenserd-equivalent server behind a real net/http
// server on a loopback TCP listener.
type deployment struct {
	srv  *server.Server
	reg  *telemetry.Registry
	rec  *telemetry.Recorder
	wd   *telemetry.Watchdog
	tr   *tracer // nil for an untraced deployment
	hs   *http.Server
	base string
	done chan error
}

// deploy starts a server. With tr non-nil the engine is wrapped in the
// timing decorator and the handler in the span-recording wrapper; the
// server itself is configured identically either way.
func deploy(tr *tracer) (*deployment, error) {
	reg := telemetry.NewRegistry()
	log, err := telemetry.NewLogger(io.Discard, "info", "text")
	if err != nil {
		return nil, err
	}
	rec := telemetry.NewRecorder(reg, 0)
	wd := telemetry.NewWatchdog(reg, log, server.HealthRules(serveShards)...)
	condenser, err := core.NewCondenser(serveK,
		core.WithSeed(serveSeed),
		core.WithNeighborSearch(core.SearchAuto),
		core.WithIndexPrecision(core.Float64),
		core.WithParallelism(0),
		core.WithTelemetry(reg))
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		Dim: serveDim, Shards: serveShards,
		Condenser: condenser,
		Telemetry: reg, Logger: log,
		AuditSeed: serveSeed,
		Recorder:  rec, Watchdog: wd,
		Journal: telemetry.NewJournal(journalCap),
	}
	if tr != nil {
		eng, err := condenser.Sharded(serveDim, serveShards)
		if err != nil {
			return nil, err
		}
		cfg.Engine = &timedEngine{Engine: eng, tr: tr}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = &tracedHandler{next: srv, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &deployment{
		srv: srv, reg: reg, rec: rec, wd: wd, tr: tr,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// close shuts the HTTP server down and waits for its serve loop to exit.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// conn is one persistent client connection: a transport limited to a
// single TCP connection, so the benchmark never opens more than the
// connections it names.
type conn struct {
	c    *http.Client
	base string
	tr   *tracer
	name string
	seq  int
	buf  bytes.Buffer
}

func newConn(d *deployment, name string) *conn {
	t := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{c: &http.Client{Transport: t}, base: d.base, tr: d.tr, name: name}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// reply is one completed request: status, selected headers, the body
// (valid until the connection's next request), and its client-side span.
type reply struct {
	status int
	etag   string
	body   []byte
	sent   time.Time
	done   time.Time
}

// do sends one request and reads the whole body. Every request carries an
// X-Request-ID the server echoes, which is how the traced run joins the
// client span to the server-side spans of the same request.
func (c *conn) do(method, path string, body []byte, hdr map[string]string) (reply, error) {
	c.seq++
	id := c.name + "-" + strconv.Itoa(c.seq)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("X-Request-ID", id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	var rt *reqTrace
	if c.tr != nil {
		rt = c.tr.begin(id, routeOf(path))
	}
	rep := reply{sent: time.Now()}
	resp, err := c.c.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rep.done = time.Now()
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	rep.status = resp.StatusCode
	rep.etag = resp.Header.Get("Etag")
	rep.body = c.buf.Bytes()
	if rt != nil {
		c.tr.finish(rt, rep.sent, rep.done, len(body), len(rep.body))
	}
	return rep, nil
}

// post sends one pre-encoded records batch and checks the acknowledgement.
func (c *conn) post(b *batch) (reply, error) {
	rep, err := c.do(http.MethodPost, "/v1/records", b.body, nil)
	if err != nil {
		return rep, err
	}
	if rep.status != http.StatusOK {
		return rep, fmt.Errorf("POST /v1/records: status %d: %s", rep.status, bytes.TrimSpace(rep.body))
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(rep.body, &ack); err != nil {
		return rep, fmt.Errorf("POST /v1/records: decoding reply: %w", err)
	}
	if ack.Accepted != b.mom.n {
		return rep, fmt.Errorf("POST /v1/records: accepted %d of %d records", ack.Accepted, b.mom.n)
	}
	return rep, nil
}

// warm opens the connection with a probe outside any measurement.
func (c *conn) warm() error {
	rep, err := c.do(http.MethodGet, "/healthz", nil, nil)
	if err != nil {
		return err
	}
	if rep.status != http.StatusOK {
		return fmt.Errorf("GET /healthz: status %d", rep.status)
	}
	return nil
}

// routeOf names the route a path is served by, for per-route metrics.
func routeOf(path string) string {
	for _, r := range []string{"records", "snapshot", "checkpoint", "stats"} {
		if strings.HasPrefix(path, "/v1/"+r) {
			return r
		}
	}
	return "other"
}
