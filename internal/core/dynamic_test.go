package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
)

func TestDynamicSteadyStateGroupSizes(t *testing.T) {
	base := clusteredRecords(31, 20, 20)
	stream := clusteredRecords(32, 100, 100)
	k := 5

	cond, err := condenseStatic(base, k, rng.New(33), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := newDynamic(cond, rng.New(34))
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.applyBatch(context.Background(), stream); err != nil {
		t.Fatal(err)
	}
	snap := dyn.Condensation()
	if got, want := snap.TotalCount(), len(base)+len(stream); got != want {
		t.Errorf("TotalCount = %d, want %d", got, want)
	}
	for i, g := range snap.Groups() {
		if g.N() >= 2*k {
			t.Errorf("group %d has %d ≥ 2k records after maintenance", i, g.N())
		}
	}
}

func TestDynamicSplitsHappen(t *testing.T) {
	base := clusteredRecords(35, 10, 0)
	k := 5
	cond, err := condenseStatic(base, k, rng.New(36), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := cond.NumGroups()
	dyn, err := newDynamic(cond, rng.New(37))
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.applyBatch(context.Background(), clusteredRecords(38, 100, 0)); err != nil {
		t.Fatal(err)
	}
	if dyn.NumGroups() <= before {
		t.Errorf("NumGroups = %d after 100 additions, started at %d; expected splits", dyn.NumGroups(), before)
	}
}

func TestDynamicRoutesToNearestCluster(t *testing.T) {
	// Seed with both clusters, stream points near cluster B only, and
	// check the total mass near B grows accordingly.
	base := clusteredRecords(39, 20, 20)
	k := 4
	cond, err := condenseStatic(base, k, rng.New(40), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := newDynamic(cond, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	streamB := clusteredRecords(42, 0, 60)
	if err := dyn.applyBatch(context.Background(), streamB); err != nil {
		t.Fatal(err)
	}
	snap := dyn.Condensation()
	cents, err := snap.Centroids()
	if err != nil {
		t.Fatal(err)
	}
	var massNearB int
	for i, c := range cents {
		if c.Dist(mat.Vector{20, 20}) < 5 {
			massNearB += snap.Groups()[i].N()
		}
	}
	if massNearB < 70 { // 20 original + 60 streamed, allow boundary slack
		t.Errorf("mass near cluster B = %d, want ≈ 80", massNearB)
	}
}

func TestDynamicEmptyStart(t *testing.T) {
	dyn, err := newDynamicEmpty(2, 3, Options{}, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.applyBatch(context.Background(), clusteredRecords(44, 30, 0)); err != nil {
		t.Fatal(err)
	}
	if dyn.NumGroups() == 0 {
		t.Fatal("no groups formed")
	}
	if got := dyn.Condensation().TotalCount(); got != 30 {
		t.Errorf("TotalCount = %d, want 30", got)
	}
}

func TestDynamicAddErrors(t *testing.T) {
	dyn := singleShard(t, 2, 2, 45)
	if err := dyn.Add(mat.Vector{1}); err == nil {
		t.Error("wrong dimension accepted")
	}
	if err := dyn.Add(mat.Vector{1, math.Inf(1)}); err == nil {
		t.Error("non-finite record accepted")
	}
	// A finite value whose square overflows would turn the group moments
	// into +Inf and leave routing without a finite distance.
	for _, v := range []float64{1e308, -1e91} {
		if err := dyn.Add(mat.Vector{1, v}); !errors.Is(err, ErrInvalidRecord) {
			t.Errorf("attribute %g: err %v, want ErrInvalidRecord", v, err)
		}
	}
	if err := dyn.Add(mat.Vector{1, maxRecord}); err != nil {
		t.Errorf("attribute at the magnitude bound rejected: %v", err)
	}
}

func TestDynamicConstructorErrors(t *testing.T) {
	c, err := NewCondenser(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShardedFrom(nil, 1); err == nil {
		t.Error("nil condensation accepted")
	}
	if _, err := c.Sharded(0, 1); err == nil {
		t.Error("dim=0 accepted")
	}
	if _, err := NewCondenser(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewCondenser(2, WithSplitAxis(SplitAxis(9))); err == nil {
		t.Error("bad options accepted")
	}
}

func TestDynamicAccessors(t *testing.T) {
	dyn := singleShard(t, 4, 3, 47)
	if dyn.K() != 4 || dyn.Dim() != 3 || dyn.NumGroups() != 0 {
		t.Errorf("K=%d Dim=%d NumGroups=%d", dyn.K(), dyn.Dim(), dyn.NumGroups())
	}
}

func TestDynamicCondensationSnapshotIsolated(t *testing.T) {
	dyn, err := newDynamicEmpty(2, 2, Options{}, rng.New(48))
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.applyBatch(context.Background(), clusteredRecords(49, 10, 0)); err != nil {
		t.Fatal(err)
	}
	snap := dyn.Condensation()
	before := snap.TotalCount()
	if err := dyn.applyBatch(context.Background(), clusteredRecords(50, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if snap.TotalCount() != before {
		t.Error("snapshot shares state with live condenser")
	}
}

func TestDynamicK1(t *testing.T) {
	// The paper notes dynamic condensation with group size 1 does not
	// reproduce the original data (splits at size 2 use the uniform
	// approximation); it must still preserve counts and stay at size 1.
	dyn, err := newDynamicEmpty(2, 1, Options{}, rng.New(51))
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.applyBatch(context.Background(), clusteredRecords(52, 20, 0)); err != nil {
		t.Fatal(err)
	}
	snap := dyn.Condensation()
	if snap.TotalCount() != 20 {
		t.Errorf("TotalCount = %d, want 20", snap.TotalCount())
	}
	for _, g := range snap.Groups() {
		if g.N() != 1 {
			t.Errorf("k=1 steady-state group of size %d", g.N())
		}
	}
}
