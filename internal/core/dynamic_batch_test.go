package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// dynamicFingerprint captures everything the batch-equivalence contract
// promises byte for byte: every group's exact moment encoding, the cached
// centroids, and a synthesized sample.
func dynamicFingerprint(t *testing.T, d *Dynamic) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, g := range d.groups {
		enc, err := g.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(enc)
	}
	for _, c := range d.centroids {
		for _, v := range c {
			var b [8]byte
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			buf.Write(b[:])
		}
	}
	synth, err := d.Condensation().Synthesize(rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range synth {
		for _, v := range x {
			var b [8]byte
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			buf.Write(b[:])
		}
	}
	return buf.Bytes()
}

// TestAddBatchEquivalence is the determinism contract of the batch ingest
// engine: AddBatch with any batch slicing produces bit-identical groups,
// centroids, and synthesized output to the sequential Add loop on the same
// seed — both from an empty condenser and from a static bootstrap. At
// k = 2 the stream founds more than dynamicIndexCutoff groups, so the
// scan → kd-index promotion happens mid-stream (at a different record
// offset within each slicing's batches).
func TestAddBatchEquivalence(t *testing.T) {
	const dim = 4
	stream := gaussianRecords(21, 1200, dim)

	for _, k := range []int{6, 2} {
		build := func(boot bool) *Dynamic {
			t.Helper()
			c, err := NewCondenser(k, WithRandomSource(rng.New(24)))
			if err != nil {
				t.Fatal(err)
			}
			var d *Dynamic
			if boot {
				cond, serr := Static(gaussianRecords(22, 80, dim), k, rng.New(23), Options{})
				if serr != nil {
					t.Fatal(serr)
				}
				d, err = c.DynamicFrom(cond)
			} else {
				d, err = c.Dynamic(dim)
			}
			if err != nil {
				t.Fatal(err)
			}
			return d
		}

		for _, boot := range []bool{false, true} {
			// Reference: the sequential Add loop.
			ref := build(boot)
			for _, x := range stream {
				if err := ref.Add(x); err != nil {
					t.Fatal(err)
				}
			}
			if _, isKD := ref.router.(*kdRouter); isKD != (k == 2) {
				t.Fatalf("k=%d boot=%v: ended on %s router with %d groups",
					k, boot, ref.router.label(), ref.NumGroups())
			}
			want := dynamicFingerprint(t, ref)

			for _, batch := range []int{1, 7, 256, len(stream)} {
				d := build(boot)
				for lo := 0; lo < len(stream); lo += batch {
					hi := min(lo+batch, len(stream))
					if err := d.AddBatch(stream[lo:hi]); err != nil {
						t.Fatal(err)
					}
				}
				if got := dynamicFingerprint(t, d); !bytes.Equal(got, want) {
					t.Fatalf("k=%d boot=%v batch=%d: AddBatch diverged from sequential Add loop",
						k, boot, batch)
				}
			}
		}
	}
}

// Telemetry on the batch path is observe-only: with a registry attached,
// AddBatch must produce the same bytes, and the stream counter must still
// count every record exactly once.
func TestAddBatchTelemetryObserveOnly(t *testing.T) {
	const k, dim = 5, 3
	stream := gaussianRecords(31, 500, dim)

	plain, err := NewDynamicEmpty(dim, k, Options{}, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.AddBatch(stream); err != nil {
		t.Fatal(err)
	}
	want := dynamicFingerprint(t, plain)

	reg := telemetry.NewRegistry()
	instr, err := NewDynamicEmpty(dim, k, Options{}, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	instr.SetTelemetry(reg)
	if err := instr.AddBatch(stream[:200]); err != nil {
		t.Fatal(err)
	}
	if err := instr.AddBatch(stream[200:]); err != nil {
		t.Fatal(err)
	}
	if got := dynamicFingerprint(t, instr); !bytes.Equal(got, want) {
		t.Fatal("telemetry changed AddBatch output")
	}
	if got := reg.Counter(metricStreamRecords).Value(); got != 500 {
		t.Errorf("stream_records = %d, want 500", got)
	}
	if got, want := reg.Gauge(metricGroups).Value(), float64(instr.NumGroups()); got != want {
		t.Errorf("groups gauge = %g, want %g", got, want)
	}
	if reg.Counter(metricSplitEvents).Value() == 0 {
		t.Error("no split events recorded over 500 records at k=5")
	}
}

func TestAddBatchValidatesUpFront(t *testing.T) {
	d, err := NewDynamicEmpty(2, 3, Options{}, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	batch := []mat.Vector{{1, 2}, {3, 4}, {5}}
	if err := d.AddBatch(batch); err == nil {
		t.Fatal("short record accepted")
	}
	if d.TotalCount() != 0 {
		t.Errorf("TotalCount = %d after rejected batch, want 0", d.TotalCount())
	}
	if err := d.AddBatch([]mat.Vector{{1, math.NaN()}}); err == nil {
		t.Error("non-finite record accepted")
	}
	if err := d.AddBatch(nil); err != nil {
		t.Errorf("empty batch rejected: %v", err)
	}
}

func TestAddBatchCancelled(t *testing.T) {
	d, err := NewDynamicEmpty(2, 3, Options{}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.AddBatchContext(ctx, gaussianRecords(43, 50, 2)); err == nil {
		t.Fatal("cancelled context accepted")
	}
	if d.TotalCount() != 0 {
		t.Errorf("TotalCount = %d after pre-cancelled batch, want 0", d.TotalCount())
	}
	// A live context ingests normally afterwards.
	if err := d.AddBatch(gaussianRecords(43, 50, 2)); err != nil {
		t.Fatal(err)
	}
	if d.TotalCount() != 50 {
		t.Errorf("TotalCount = %d, want 50", d.TotalCount())
	}
}

// Routing promotes to the centroid kd-index once the group count crosses
// the cutoff, and the promotion is visible in the telemetry
// backend label without disturbing the condensation.
func TestDynamicAutoPromotion(t *testing.T) {
	const k = 2
	reg := telemetry.NewRegistry()
	d, err := NewDynamicEmpty(3, k, Options{}, rng.New(44))
	if err != nil {
		t.Fatal(err)
	}
	d.SetTelemetry(reg)
	if _, isScan := d.router.(*scanRouter); !isScan {
		t.Fatal("routing did not start on the scan router")
	}
	// Enough records to push the group count past the cutoff: groups hold
	// at most 2k−1 = 3 records, so 4·cutoff records guarantee promotion.
	if err := d.AddBatch(gaussianRecords(45, 4*dynamicIndexCutoff, 3)); err != nil {
		t.Fatal(err)
	}
	if d.NumGroups() < dynamicIndexCutoff {
		t.Fatalf("only %d groups formed, wanted ≥ %d", d.NumGroups(), dynamicIndexCutoff)
	}
	if _, isKD := d.router.(*kdRouter); !isKD {
		t.Error("routing did not promote to the kd router")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`backend="centroid-kdtree"`)) {
		t.Error("exposition missing centroid-kdtree neighbor_search series after promotion")
	}
}

// liveOnceCtx is a context whose Err reports nil on its first call and
// Canceled on every later one: a client that disconnects right after the
// ingest path has decided to apply.
type liveOnceCtx struct {
	context.Context
	calls atomic.Int32
}

func (c *liveOnceCtx) Err() error {
	if c.calls.Add(1) == 1 {
		return nil
	}
	return context.Canceled
}

// TestAddBatchAllOrNothing: batch ingest decides cancellation once, before
// any record is applied. A context cancelled after that decision still
// gets the whole batch, identical to an Add loop; a context cancelled
// before it gets none of it.
func TestAddBatchAllOrNothing(t *testing.T) {
	const k, dim = 4, 3
	stream := gaussianRecords(51, 600, dim)
	c, err := NewCondenser(k, WithSeed(52))
	if err != nil {
		t.Fatal(err)
	}

	ref, err := c.Dynamic(dim)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range stream {
		if err := ref.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	d, err := c.Dynamic(dim)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddBatchContext(&liveOnceCtx{Context: context.Background()}, stream); err != nil {
		t.Fatalf("Dynamic: cancellation after the apply decision returned %v, want nil", err)
	}
	if !bytes.Equal(dynamicFingerprint(t, d), dynamicFingerprint(t, ref)) {
		t.Fatal("Dynamic: batch under a late-cancelled context differs from the Add loop")
	}

	for _, shards := range []int{1, 4} {
		refS, err := c.Sharded(dim, shards)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range stream {
			if err := refS.Add(x); err != nil {
				t.Fatal(err)
			}
		}
		s, err := c.Sharded(dim, shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.AddBatchContext(&liveOnceCtx{Context: context.Background()}, stream); err != nil {
			t.Fatalf("%d shards: cancellation after the apply decision returned %v, want nil", shards, err)
		}
		if got := s.TotalCount(); got != len(stream) {
			t.Fatalf("%d shards: %d records applied, want the whole batch of %d", shards, got, len(stream))
		}
		if !bytes.Equal(checkpointBytes(t, s), checkpointBytes(t, refS)) {
			t.Fatalf("%d shards: batch under a late-cancelled context differs from the Add loop", shards)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		gen := s.Generation()
		if err := s.AddBatchContext(ctx, stream); !errors.Is(err, context.Canceled) {
			t.Fatalf("%d shards: pre-cancelled batch returned %v, want context.Canceled", shards, err)
		}
		if s.TotalCount() != len(stream) || s.Generation() != gen {
			t.Fatalf("%d shards: pre-cancelled batch applied records (count %d, generation %d -> %d)",
				shards, s.TotalCount(), gen, s.Generation())
		}
	}
}
