package core

import (
	"math"
	"strings"
	"testing"

	"condensation/internal/telemetry"
)

// bruteNearestCentroid is the routing oracle: the lexicographic (squared
// distance, group id) argmin over the engine's cached centroids — the
// paper's linear scan over H, written without the kernels.
func bruteNearestCentroid(d *Dynamic, x []float64) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for id, c := range d.centroids {
		var dist float64
		for j := range x {
			diff := x[j] - c[j]
			dist += diff * diff
		}
		if dist < bestD {
			best, bestD = id, dist
		}
	}
	return best, bestD
}

// TestRoutingOracleAcrossPromotion drives an empty engine past
// dynamicIndexCutoff groups and checks, before every Add, that the live
// router answers exactly what the brute-force scan does — both before and
// after the scan → kd-index promotion. The records are duplicated points
// of a 3×3 integer lattice, so many groups share a centroid and the
// group-id tie-break decides dozens of routings after the promotion. The
// router must be the scan exactly while the group count is below the
// cutoff and the kd-index from the cutoff on, and the journal must record
// that promotion once.
func TestRoutingOracleAcrossPromotion(t *testing.T) {
	const k, dim = 2, 2
	stream := latticeRecords(61, 4*dynamicIndexCutoff, dim)
	j := telemetry.NewJournal(1 << 14)
	c, err := NewCondenser(k, WithSeed(62), WithJournal(j))
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Dynamic(dim)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range stream {
		_, isKD := d.router.(*kdRouter)
		if want := len(d.groups) >= dynamicIndexCutoff; isKD != want {
			t.Fatalf("record %d: %d groups on the %s router", i, len(d.groups), d.router.label())
		}
		if len(d.groups) > 0 {
			gotID, gotD := d.router.nearest(x)
			wantID, wantD := bruteNearestCentroid(d, x)
			if gotID != wantID || gotD != wantD {
				t.Fatalf("record %d (%d groups, %s): router (%d, %v), brute force (%d, %v)",
					i, len(d.groups), d.router.label(), gotID, gotD, wantID, wantD)
			}
		}
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumGroups() < dynamicIndexCutoff+100 {
		t.Fatalf("only %d groups formed; the stream must run well past the cutoff", d.NumGroups())
	}
	rebuilds := j.Events(0, telemetry.EventIndexRebuild)
	if len(rebuilds) != 1 || !strings.Contains(rebuilds[0].Detail, "auto-promoted") {
		t.Fatalf("journal index rebuilds = %+v, want one auto-promotion", rebuilds)
	}
}
