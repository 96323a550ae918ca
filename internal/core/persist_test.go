package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

func TestCondensationRoundTrip(t *testing.T) {
	recs := clusteredRecords(61, 20, 20)
	orig, err := condenseStatic(recs, 5, rng.New(62), Options{
		Synthesis: SynthesisGaussian,
		SplitAxis: SplitRandom,
		Leftover:  LeftoverOwnGroup,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCondensation(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim() != orig.Dim() || got.K() != orig.K() || got.NumGroups() != orig.NumGroups() {
		t.Fatalf("round trip: dim=%d k=%d groups=%d, want dim=%d k=%d groups=%d",
			got.Dim(), got.K(), got.NumGroups(), orig.Dim(), orig.K(), orig.NumGroups())
	}
	if got.opts != orig.opts {
		t.Errorf("options %+v, want %+v", got.opts, orig.opts)
	}
	og, gg := orig.Groups(), got.Groups()
	for i := range og {
		if og[i].N() != gg[i].N() {
			t.Fatalf("group %d count %d, want %d", i, gg[i].N(), og[i].N())
		}
		if !og[i].FirstOrderSums().Equal(gg[i].FirstOrderSums(), 0) {
			t.Fatalf("group %d Fs not preserved", i)
		}
		if !og[i].SecondOrderSums().Equal(gg[i].SecondOrderSums(), 0) {
			t.Fatalf("group %d Sc not preserved", i)
		}
	}
	// Synthesis from the loaded condensation must match bit for bit.
	s1, err := orig.Synthesize(rng.New(63))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := got.Synthesize(rng.New(63))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if !s1[i].Equal(s2[i], 0) {
			t.Fatal("synthesis differs after round trip")
		}
	}
}

func TestReadCondensationRejectsGarbage(t *testing.T) {
	if _, err := ReadCondensation(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := ReadCondensation(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Error("zero stream accepted")
	}
	// Corrupt a valid stream's version field.
	recs := clusteredRecords(64, 6, 0)
	cond, err := condenseStatic(recs, 2, rng.New(65), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cond.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[8] = 99 // version
	if _, err := ReadCondensation(bytes.NewReader(data)); err == nil {
		t.Error("bad version accepted")
	}
	// Truncated stream.
	buf.Reset()
	if _, err := cond.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadCondensation(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
}

// Byte offsets in a one-group, dim-2 checkpoint: the 64-byte file header
// and the group's 8-byte length, then the group's magic, dim, n, Fs and the
// upper triangle of Sc.
const (
	ckptN    = 72 + 12
	ckptFs0  = 72 + 20
	ckptSc00 = ckptFs0 + 16
	ckptSc01 = ckptSc00 + 8
	ckptSc11 = ckptSc01 + 8
)

// oneGroupCheckpoint encodes a k = 2 condensation holding the single group
// {(1, 2), (3, 4)}, then overwrites the 8-byte word at each offset in
// patch — the way a corrupted or hostile checkpoint file differs.
func oneGroupCheckpoint(tb testing.TB, patch map[int]uint64) []byte {
	tb.Helper()
	g, err := stats.FromRecords([]mat.Vector{{1, 2}, {3, 4}})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := newCondensation(2, 2, Options{}, []*stats.Group{g}).WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	data := buf.Bytes()
	for off, v := range patch {
		binary.LittleEndian.PutUint64(data[off:off+8], v)
	}
	return data
}

// TestReadCondensationRejectsNonFinite screens restored groups: a group
// with a non-positive count, a non-finite moment, or moments beyond what
// n records within ±maxMagnitude can sum to must be refused. Were a
// checkpoint whose only group has Fs_0 = +Inf accepted, the first Add to
// a Sharded built from it would panic: routing finds no finite distance.
func TestReadCondensationRejectsNonFinite(t *testing.T) {
	bits := math.Float64bits
	if _, err := ReadCondensation(bytes.NewReader(oneGroupCheckpoint(t, nil))); err != nil {
		t.Fatalf("valid checkpoint refused: %v", err)
	}
	atBound := map[int]uint64{ckptFs0: bits(-2 * maxMagnitude), ckptSc11: bits(2 * maxMagnitude * maxMagnitude)}
	if _, err := ReadCondensation(bytes.NewReader(oneGroupCheckpoint(t, atBound))); err != nil {
		t.Fatalf("moments at the magnitude bound refused: %v", err)
	}
	for name, patch := range map[string]map[int]uint64{
		"Fs +Inf":          {ckptFs0: bits(math.Inf(1))},
		"Fs NaN":           {ckptFs0 + 8: bits(math.NaN())},
		"Sc -Inf":          {ckptSc00: bits(math.Inf(-1))},
		"off-diagonal NaN": {ckptSc01: bits(math.NaN())},
		"n = 0":            {ckptN: 0},
		"n negative":       {ckptN: 1 << 63},
		"Fs too large":     {ckptFs0: bits(-2.5 * maxMagnitude)},
		"Sc too large":     {ckptSc11: bits(2.5 * maxMagnitude * maxMagnitude)},
	} {
		data := oneGroupCheckpoint(t, patch)
		cond, err := ReadCondensation(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: checkpoint accepted", name)
			// Show what the accepted state does to a restored engine.
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: Add after restore panicked: %v", name, r)
					}
				}()
				c, err := NewCondenser(2)
				if err != nil {
					t.Fatal(err)
				}
				if sh, err := c.ShardedFrom(cond, 1); err == nil {
					_ = sh.Add(mat.Vector{1, 1})
				}
			}()
		}
	}
}

func TestReadCondensationRejectsBadOptions(t *testing.T) {
	recs := clusteredRecords(66, 6, 0)
	cond, err := condenseStatic(recs, 2, rng.New(67), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cond.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[32] = 200 // synthesis enum (header words: magic, version, dim, k, synthesis, ...)
	if _, err := ReadCondensation(bytes.NewReader(data)); err == nil {
		t.Error("bad synthesis option accepted")
	}
}

func TestClassCondensationsRoundTrip(t *testing.T) {
	a, err := condenseStatic(clusteredRecords(70, 10, 0), 3, rng.New(71), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := condenseStatic(clusteredRecords(72, 0, 14), 4, rng.New(73), Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := map[int]*Condensation{0: a, 1: b, -1: a}
	var buf bytes.Buffer
	if _, err := WriteClassCondensations(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadClassCondensations(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("%d classes, want 3", len(out))
	}
	for label, cond := range in {
		got, ok := out[label]
		if !ok {
			t.Fatalf("class %d missing", label)
		}
		if got.TotalCount() != cond.TotalCount() || got.K() != cond.K() {
			t.Errorf("class %d: count=%d k=%d, want count=%d k=%d",
				label, got.TotalCount(), got.K(), cond.TotalCount(), cond.K())
		}
	}
}

func TestClassCondensationsErrors(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteClassCondensations(&buf, nil); err == nil {
		t.Error("empty map accepted")
	}
	if _, err := WriteClassCondensations(&buf, map[int]*Condensation{0: nil}); err == nil {
		t.Error("nil condensation accepted")
	}
	if _, err := ReadClassCondensations(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := ReadClassCondensations(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Error("zero stream accepted")
	}
	// Valid stream, truncated body.
	a, err := condenseStatic(clusteredRecords(74, 8, 0), 2, rng.New(75), Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := WriteClassCondensations(&buf, map[int]*Condensation{0: a}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadClassCondensations(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
}
