package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// checkpointBytes serializes an engine's merged snapshot — the exact
// byte-level fingerprint the reproducibility contract is stated over.
func checkpointBytes(t *testing.T, eng interface{ Condensation() *Condensation }) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := eng.Condensation().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineInterfaceEquivalence is the compatibility contract of the
// sharded engine: a 1-shard Sharded is bit-identical to its per-shard
// unit driven bare from the same Condenser configuration — same groups,
// centroids, rng stream, and serialized snapshot — through both the Add
// loop and the batch path, from empty and from a static bootstrap.
func TestEngineInterfaceEquivalence(t *testing.T) {
	const k, dim = 6, 4
	stream := gaussianRecords(7, 900, dim)
	initial, err := condenseStatic(gaussianRecords(8, 120, dim), k, rng.New(9), Options{})
	if err != nil {
		t.Fatal(err)
	}

	build := func(t *testing.T, fromInitial bool) (*dynamic, *Sharded) {
		t.Helper()
		c, err := NewCondenser(k, WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		var dyn *dynamic
		var shd *Sharded
		if fromInitial {
			dyn, err = newDynamic(initial, c.rng())
			if err == nil {
				shd, err = c.ShardedFrom(initial, 1)
			}
		} else {
			dyn, err = newDynamicEmpty(dim, k, c.opts, c.rng())
			if err == nil {
				shd, err = c.Sharded(dim, 1)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return dyn, shd
	}

	for _, tc := range []struct {
		name        string
		fromInitial bool
		batch       bool
	}{
		{"empty/add", false, false},
		{"empty/batch", false, true},
		{"bootstrap/add", true, false},
		{"bootstrap/batch", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dyn, shd := build(t, tc.fromInitial)
			if tc.batch {
				if err := dyn.applyBatch(context.Background(), stream); err != nil {
					t.Fatal(err)
				}
				if err := shd.AddBatchContext(context.Background(), stream); err != nil {
					t.Fatal(err)
				}
			} else {
				for _, x := range stream {
					if err := dyn.Add(x); err != nil {
						t.Fatal(err)
					}
					if err := shd.Add(x); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got, want := checkpointBytes(t, shd), checkpointBytes(t, dyn); !bytes.Equal(got, want) {
				t.Fatalf("1-shard Sharded snapshot differs from the bare unit (%d vs %d bytes)", len(got), len(want))
			}
			if shd.TotalCount() != dyn.TotalCount() || shd.NumGroups() != dyn.NumGroups() || shd.Splits() != dyn.Splits() {
				t.Fatalf("counters differ: sharded (n=%d g=%d s=%d) vs dynamic (n=%d g=%d s=%d)",
					shd.TotalCount(), shd.NumGroups(), shd.Splits(),
					dyn.TotalCount(), dyn.NumGroups(), dyn.Splits())
			}
			if shd.NumShards() != 1 {
				t.Fatalf("NumShards = %d, want 1", shd.NumShards())
			}
		})
	}
}

// TestShardedMergedSnapshotDeterministic is the reproducibility contract
// at every shard count: the same seed, shard count, and stream produce a
// bit-identical merged snapshot — across independent engines, across
// batch slicing, and across the Add/AddBatchContext paths —
// and every shard independently upholds the paper's k ≤ n ≤ 2k−1 group
// size invariant.
func TestShardedMergedSnapshotDeterministic(t *testing.T) {
	const k, dim = 6, 4
	stream := gaussianRecords(11, 1600, dim)
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			build := func(t *testing.T) *Sharded {
				t.Helper()
				c, err := NewCondenser(k, WithSeed(3))
				if err != nil {
					t.Fatal(err)
				}
				s, err := c.Sharded(dim, shards)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}

			a := build(t)
			for lo := 0; lo < len(stream); lo += 128 {
				hi := lo + 128
				if hi > len(stream) {
					hi = len(stream)
				}
				if err := a.AddBatchContext(context.Background(), stream[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}

			b := build(t)
			if err := b.AddBatchContext(context.Background(), stream); err != nil {
				t.Fatal(err)
			}

			c := build(t)
			for _, x := range stream {
				if err := c.Add(x); err != nil {
					t.Fatal(err)
				}
			}

			ref := checkpointBytes(t, a)
			if !bytes.Equal(ref, checkpointBytes(t, b)) {
				t.Fatal("merged snapshot differs across batch slicing")
			}
			if !bytes.Equal(ref, checkpointBytes(t, c)) {
				t.Fatal("merged snapshot differs between AddBatchContext and Add loop")
			}
			// Snapshotting must be repeatable and observe-only.
			if !bytes.Equal(ref, checkpointBytes(t, a)) {
				t.Fatal("repeated snapshots of the same state differ")
			}

			total, groups := 0, 0
			for i := 0; i < a.NumShards(); i++ {
				shard := a.Shard(i)
				if shard.NumGroups() == 0 {
					t.Fatalf("shard %d received no records", i)
				}
				for j, g := range shard.Groups() {
					if n := g.N(); n < k || n > 2*k-1 {
						t.Fatalf("shard %d group %d holds %d records, outside [%d,%d]", i, j, n, k, 2*k-1)
					}
				}
				total += shard.TotalCount()
				groups += shard.NumGroups()
			}
			if total != len(stream) {
				t.Fatalf("shards condensed %d records in total, want %d", total, len(stream))
			}
			if got := a.TotalCount(); got != len(stream) {
				t.Fatalf("TotalCount = %d, want %d", got, len(stream))
			}
			if got := a.NumGroups(); got != groups {
				t.Fatalf("NumGroups = %d, want per-shard sum %d", got, groups)
			}
		})
	}
}

// TestShardedRoutingDeterministic pins the routing rule: the hash depends
// only on record values, so identical records route identically on
// independent engines.
func TestShardedRoutingDeterministic(t *testing.T) {
	const dim = 5
	c, err := NewCondenser(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Sharded(dim, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Sharded(dim, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range gaussianRecords(13, 200, dim) {
		if a.shardOf(x) != b.shardOf(x) {
			t.Fatal("identical records routed to different shards on independent engines")
		}
	}
}

// TestShardedValidation covers the construction and ingest error paths.
func TestShardedValidation(t *testing.T) {
	c, err := NewCondenser(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Sharded(2, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if _, err := c.ShardedFrom(nil, 2); err == nil {
		t.Fatal("nil initial condensation accepted")
	}
	s, err := c.Sharded(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(mat.Vector{1}); err == nil {
		t.Fatal("wrong-dimension record accepted")
	}
	if err := s.AddBatchContext(context.Background(), []mat.Vector{{1, 2}, {3}}); err == nil {
		t.Fatal("batch with wrong-dimension record accepted")
	}
	if s.TotalCount() != 0 {
		t.Fatal("rejected batch left records behind")
	}
	if err := s.AddBatchContext(context.Background(), nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestShardedFromDistributesGroups seeds a sharded engine from a static
// condensation and checks the round-robin deal: every initial group lands
// on a shard, none are lost or duplicated, and more shards than groups
// leaves the excess shards empty but serviceable.
func TestShardedFromDistributesGroups(t *testing.T) {
	const k, dim = 5, 3
	initial, err := condenseStatic(gaussianRecords(19, 60, dim), k, rng.New(21), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCondenser(k, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, initial.NumGroups() + 3} {
		s, err := c.ShardedFrom(initial, shards)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.NumGroups(); got != initial.NumGroups() {
			t.Fatalf("%d shards: %d groups after seeding, want %d", shards, got, initial.NumGroups())
		}
		if got := s.TotalCount(); got != initial.TotalCount() {
			t.Fatalf("%d shards: %d records after seeding, want %d", shards, got, initial.TotalCount())
		}
		if err := s.AddBatchContext(context.Background(), gaussianRecords(23, 40, dim)); err != nil {
			t.Fatalf("%d shards: ingest after seeding: %v", shards, err)
		}
	}
}

// TestShardedTelemetryLabels checks the metric contract: with N ≥ 2 every
// engine series carries a shard label per shard, while a single-shard
// engine registers the same series unlabeled.
func TestShardedTelemetryLabels(t *testing.T) {
	const dim = 3
	c, err := NewCondenser(3, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	stream := gaussianRecords(29, 300, dim)

	expo := func(t *testing.T, shards int) string {
		t.Helper()
		reg := telemetry.NewRegistry()
		s, err := c.Sharded(dim, shards)
		if err != nil {
			t.Fatal(err)
		}
		s.SetTelemetry(reg)
		if err := s.AddBatchContext(context.Background(), stream); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	single := expo(t, 1)
	if !strings.Contains(single, "condense_stream_records_total 300") {
		t.Fatalf("single shard: unlabeled stream counter missing:\n%s", single)
	}
	if strings.Contains(single, `shard="`) {
		t.Fatal("single shard: unexpected shard label")
	}

	multi := expo(t, 4)
	for i := 0; i < 4; i++ {
		if !strings.Contains(multi, fmt.Sprintf(`condense_stream_records_total{shard="%d"}`, i)) {
			t.Fatalf("4 shards: stream counter for shard %d missing:\n%s", i, multi)
		}
		if !strings.Contains(multi, fmt.Sprintf(`condense_groups{shard="%d"}`, i)) {
			t.Fatalf("4 shards: group gauge for shard %d missing", i)
		}
	}
}

// TestDynamicTotalCountCached pins the cached running count against the
// ground truth (the sum over live group statistics) through founding,
// routing, splitting, batch ingest, and bootstrap seeding.
func TestDynamicTotalCountCached(t *testing.T) {
	const k, dim = 4, 3
	groundTruth := func(d *dynamic) int {
		var n int
		for _, g := range d.groups {
			n += g.N()
		}
		return n
	}

	d, err := newDynamicEmpty(dim, k, Options{}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range gaussianRecords(33, 200, dim) {
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
		if got, want := d.TotalCount(), groundTruth(d); got != want || want != i+1 {
			t.Fatalf("after %d adds: TotalCount = %d, groups hold %d", i+1, got, want)
		}
	}
	if got, want := d.Splits(), d.NumGroups()-1; got != want {
		t.Fatalf("Splits = %d, want %d (empty start: one split per extra group)", got, want)
	}
	if err := d.applyBatch(context.Background(), gaussianRecords(35, 300, dim)); err != nil {
		t.Fatal(err)
	}
	if got, want := d.TotalCount(), groundTruth(d); got != want || want != 500 {
		t.Fatalf("after batch: TotalCount = %d, groups hold %d, want 500", got, want)
	}

	initial, err := condenseStatic(gaussianRecords(37, 90, dim), k, rng.New(39), Options{})
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := newDynamic(initial, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := seeded.TotalCount(), groundTruth(seeded); got != want || want != 90 {
		t.Fatalf("seeded: TotalCount = %d, groups hold %d, want 90", got, want)
	}
}

// TestShardCounts: the cheap per-shard accessor must agree with the full
// snapshots on both engine shapes, and its totals with the engine-wide
// counts.
func TestShardCounts(t *testing.T) {
	const k, dim, shards = 5, 3, 4
	stream := gaussianRecords(13, 900, dim)

	c, err := NewCondenser(k, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Sharded(dim, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddBatchContext(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	var records, groups, splits int
	for i := 0; i < shards; i++ {
		r, g, sp := s.ShardCounts(i)
		cond := s.Shard(i)
		if r != cond.TotalCount() || g != cond.NumGroups() {
			t.Errorf("shard %d counts = (%d,%d), snapshot says (%d,%d)",
				i, r, g, cond.TotalCount(), cond.NumGroups())
		}
		records += r
		groups += g
		splits += sp
	}
	if records != s.TotalCount() || groups != s.NumGroups() || splits != s.Splits() {
		t.Errorf("summed shard counts = (%d,%d,%d), engine says (%d,%d,%d)",
			records, groups, splits, s.TotalCount(), s.NumGroups(), s.Splits())
	}

	d, err := c.Sharded(dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddBatchContext(context.Background(), stream[:100]); err != nil {
		t.Fatal(err)
	}
	r, g, sp := d.ShardCounts(0)
	if r != d.TotalCount() || g != d.NumGroups() || sp != d.Splits() {
		t.Errorf("1-shard ShardCounts = (%d,%d,%d), want (%d,%d,%d)",
			r, g, sp, d.TotalCount(), d.NumGroups(), d.Splits())
	}
	for name, f := range map[string]func(){
		"1-shard": func() { d.ShardCounts(1) },
		"sharded": func() { s.ShardCounts(shards) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range ShardCounts did not panic", name)
				}
			}()
			f()
		}()
	}
}
