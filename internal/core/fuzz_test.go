package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
)

// FuzzReadCondensation feeds arbitrary bytes to the condensation decoder;
// it must reject or produce a consistent condensation, never panic or
// over-allocate catastrophically.
func FuzzReadCondensation(f *testing.F) {
	cond, err := condenseStatic(clusteredRecords(200, 8, 8), 4, rng.New(201), Options{})
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

// checkCheckpointRoundTrip checks that ReadCondensation accepts the
// checkpoint s writes and that an engine restored from it writes the same
// bytes.
func checkCheckpointRoundTrip(t *testing.T, s *Sharded) {
	t.Helper()
	want := checkpointBytes(t, s)
	cond, err := ReadCondensation(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("engine wrote a checkpoint it refuses: %v", err)
	}
	c, err := NewCondenser(s.K())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := c.ShardedFrom(cond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := checkpointBytes(t, restored); !bytes.Equal(got, want) {
		t.Fatal("restored engine writes a different checkpoint")
	}
}

// TestCheckpointAtRecordBound is the regression test for an engine that
// wrote a checkpoint it then refused to read: at k = 2 the Eq. 3 split of
// the group {M, M, M, −M} puts a child's first-order sum at 2.5·M, beyond
// the screen's n·M when records could reach the screen's own scale
// M = 1e100. Such records are no longer admitted, and the same stream at
// the admitted bound round-trips.
func TestCheckpointAtRecordBound(t *testing.T) {
	c, err := NewCondenser(2, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Sharded(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(mat.Vector{1e100}); !errors.Is(err, ErrInvalidRecord) {
		t.Fatalf("record at the screen's scale: err %v, want ErrInvalidRecord", err)
	}
	for _, v := range []float64{maxRecord, maxRecord, maxRecord, -maxRecord} {
		if err := s.Add(mat.Vector{v}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Splits() != 1 {
		t.Fatalf("%d splits, want the one split that pushes a child mean past the data", s.Splits())
	}
	checkCheckpointRoundTrip(t, s)
}

// FuzzIngestCheckpointRoundTrip: for any admitted stream — small k and
// dimension, values anywhere up to ±maxRecord — ReadCondensation must
// accept the engine's checkpoint and restore byte-identical state. Each 8
// input bytes are one attribute value; NaN becomes 0 and values beyond
// the bound are clamped to it, so every record is admitted.
func FuzzIngestCheckpointRoundTrip(f *testing.F) {
	values := func(vs ...float64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(uint8(1), uint8(0), values(maxRecord, maxRecord, maxRecord, -maxRecord))
	f.Add(uint8(2), uint8(1), values(1, 2, 3, 4, 5, 6, -7, 8, 9, -10, 11, 12, 13, 14))
	f.Add(uint8(0), uint8(2), values(maxRecord, -maxRecord, 0, -maxRecord, maxRecord, 1e89))

	f.Fuzz(func(t *testing.T, kb, dimb uint8, data []byte) {
		k, dim := 1+int(kb%4), 1+int(dimb%3)
		c, err := NewCondenser(k, WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Sharded(dim, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := make(mat.Vector, dim)
		for len(data) >= 8*dim && s.TotalCount() < 256 {
			for j := range x {
				v := math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
				if math.IsNaN(v) {
					v = 0
				}
				x[j] = math.Max(-maxRecord, math.Min(maxRecord, v))
			}
			if err := s.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		checkCheckpointRoundTrip(t, s)
	})
}
