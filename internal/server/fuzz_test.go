package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"condensation/internal/core"
)

// fuzzBodySeeds seeds a request-body fuzz target: a valid body, a
// wrong-dimension body, non-numeric values, and deep nesting.
func fuzzBodySeeds(f *testing.F, valid, wrongDim, nonNumeric string) {
	f.Add([]byte(valid))
	f.Add([]byte(wrongDim))
	f.Add([]byte(nonNumeric))
	f.Add([]byte(strings.Repeat("[", 10000) + strings.Repeat("]", 10000)))
	f.Add([]byte(`{"records":` + strings.Repeat(`[`, 500) + strings.Repeat(`]`, 500) + `}`))
}

// fuzzPost drives one body through the server's handler and checks the
// contract every untrusted body must meet: no panic (the fuzzer reports
// one), no 5xx, a JSON reply, and — unless the reply is 2xx — an engine
// left exactly as it was.
func fuzzPost(t *testing.T, s *Server, path string, body []byte) {
	t.Helper()
	gen, total := s.Engine().Generation(), s.Engine().TotalCount()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code >= 500 {
		t.Fatalf("POST %s %q: status %d (%s)", path, body, rec.Code, rec.Body.String())
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("POST %s %q: status %d with a non-JSON reply %q", path, body, rec.Code, rec.Body.String())
	}
	if rec.Code/100 == 2 {
		return
	}
	if g, n := s.Engine().Generation(), s.Engine().TotalCount(); g != gen || n != total {
		t.Fatalf("POST %s %q: status %d moved the engine (generation %d -> %d, records %d -> %d)",
			path, body, rec.Code, gen, g, total, n)
	}
}

func newFuzzServer(f *testing.F) *Server {
	c, err := core.NewCondenser(3, core.WithSeed(1))
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Dim: 2, Condenser: c, MaxBatch: 64, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	return s
}

// FuzzRecordsRequest feeds arbitrary bodies to POST /v1/records.
func FuzzRecordsRequest(f *testing.F) {
	fuzzBodySeeds(f,
		`{"records":[[1,2],[3,4],[5,6]]}`,
		`{"records":[[1,2,3]]}`,
		`{"records":[["a",true],[null,{}]]}`)
	f.Add([]byte(`{"records":[[1e308,-1e308],[-1e308,1e308],[1e308,1e308],[1,1]]}`))
	s := newFuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, s, "/v1/records", body)
	})
}

// FuzzExplainRequest feeds arbitrary bodies to POST /v1/explain against a
// populated engine, so the dry-run reaches candidate ranking.
func FuzzExplainRequest(f *testing.F) {
	fuzzBodySeeds(f,
		`{"record":[0.25,-0.5],"top":3}`,
		`{"record":[1]}`,
		`{"record":["x",null],"top":"3"}`)
	f.Add([]byte(`{"record":[1e308,-1e308]}`))
	s := newFuzzServer(f)
	for _, x := range genRecords(3, 40) {
		if err := s.Engine().Add(x); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, s, "/v1/explain", body)
	})
}
