package core

import (
	"bytes"
	"math"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
)

// FuzzReadCondensation feeds arbitrary bytes to the condensation decoder;
// it must reject or produce a consistent condensation, never panic or
// over-allocate catastrophically.
func FuzzReadCondensation(f *testing.F) {
	cond, err := Static(clusteredRecords(200, 8, 8), 4, rng.New(201), Options{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cond.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:10])
	f.Add(bytes.Repeat([]byte{0xff}, 80))
	// A single group with Fs_0 = +Inf: if accepted, the first Add to a
	// restored engine panics.
	f.Add(oneGroupCheckpoint(f, map[int]uint64{ckptFs0: math.Float64bits(math.Inf(1))}))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCondensation(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.Dim() <= 0 || got.K() < 1 {
			t.Fatalf("accepted condensation dim=%d k=%d", got.Dim(), got.K())
		}
		// Accepted input must round-trip to an equal re-encoding of itself.
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadCondensation(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.NumGroups() != got.NumGroups() || again.TotalCount() != got.TotalCount() {
			t.Fatal("round trip changed group structure")
		}
		// A restored engine must absorb a valid record without panicking
		// (low dimensions only, to keep split eigensolves cheap).
		if got.Dim() > 16 || got.NumGroups() == 0 {
			return
		}
		c, err := NewCondenser(got.K())
		if err != nil {
			t.Fatal(err)
		}
		sh, err := c.ShardedFrom(got, 1)
		if err != nil {
			return
		}
		_ = sh.Add(make(mat.Vector, got.Dim()))
	})
}
