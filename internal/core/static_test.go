package core

import (
	"math"
	"strconv"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
	"condensation/internal/telemetry"
)

// clusteredRecords returns two well-separated 2-D clusters of the given
// sizes, deterministic for a seed.
func clusteredRecords(seed uint64, nA, nB int) []mat.Vector {
	r := rng.New(seed)
	out := make([]mat.Vector, 0, nA+nB)
	for i := 0; i < nA; i++ {
		out = append(out, mat.Vector{r.NormMeanStd(0, 1), r.NormMeanStd(0, 1)})
	}
	for i := 0; i < nB; i++ {
		out = append(out, mat.Vector{r.NormMeanStd(20, 1), r.NormMeanStd(20, 1)})
	}
	return out
}

// condenseStaticMembers condenses records at level k with opts through the
// Condenser's static path, drawing from r.
func condenseStaticMembers(records []mat.Vector, k int, r *rng.Source, opts Options) (*Condensation, [][]int, error) {
	c, err := NewCondenser(k, WithRandomSource(r), WithOptions(opts))
	if err != nil {
		return nil, nil, err
	}
	return c.StaticWithMembers(records)
}

// condenseStatic is condenseStaticMembers without the membership map.
func condenseStatic(records []mat.Vector, k int, r *rng.Source, opts Options) (*Condensation, error) {
	cond, _, err := condenseStaticMembers(records, k, r, opts)
	return cond, err
}

func TestStaticBasicInvariants(t *testing.T) {
	recs := clusteredRecords(1, 30, 30)
	for _, k := range []int{1, 2, 5, 7, 10} {
		cond, err := condenseStatic(recs, k, rng.New(2), Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := cond.TotalCount(); got != len(recs) {
			t.Errorf("k=%d: TotalCount = %d, want %d", k, got, len(recs))
		}
		if got := cond.MinGroupSize(); got < k {
			t.Errorf("k=%d: MinGroupSize = %d < k", k, got)
		}
		if cond.K() != k || cond.Dim() != 2 {
			t.Errorf("k=%d: K=%d Dim=%d", k, cond.K(), cond.Dim())
		}
		if avg := cond.AverageGroupSize(); avg < float64(k) {
			t.Errorf("k=%d: AverageGroupSize = %g < k", k, avg)
		}
	}
}

func TestStaticGroupCountExact(t *testing.T) {
	// 20 records with k=5 and no leftovers: exactly 4 groups of 5.
	recs := clusteredRecords(3, 10, 10)
	cond, err := condenseStatic(recs, 5, rng.New(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cond.NumGroups() != 4 {
		t.Fatalf("NumGroups = %d, want 4", cond.NumGroups())
	}
	for _, g := range cond.Groups() {
		if g.N() != 5 {
			t.Errorf("group size %d, want 5", g.N())
		}
	}
}

func TestStaticLeftoverNearestGroup(t *testing.T) {
	// 23 records with k=5: 4 groups plus 3 leftovers absorbed, so sizes
	// sum to 23 and every group has ≥ 5.
	recs := clusteredRecords(5, 12, 11)
	cond, err := condenseStatic(recs, 5, rng.New(6), Options{Leftover: LeftoverNearestGroup})
	if err != nil {
		t.Fatal(err)
	}
	if cond.NumGroups() != 4 {
		t.Fatalf("NumGroups = %d, want 4", cond.NumGroups())
	}
	if cond.TotalCount() != 23 {
		t.Errorf("TotalCount = %d, want 23", cond.TotalCount())
	}
	if cond.MinGroupSize() < 5 {
		t.Errorf("MinGroupSize = %d < 5", cond.MinGroupSize())
	}
}

func TestStaticLeftoverOwnGroup(t *testing.T) {
	recs := clusteredRecords(7, 12, 11)
	cond, err := condenseStatic(recs, 5, rng.New(8), Options{Leftover: LeftoverOwnGroup})
	if err != nil {
		t.Fatal(err)
	}
	if cond.NumGroups() != 5 {
		t.Fatalf("NumGroups = %d, want 5 (4 full + 1 leftover)", cond.NumGroups())
	}
	if cond.MinGroupSize() != 3 {
		t.Errorf("MinGroupSize = %d, want 3", cond.MinGroupSize())
	}
}

func TestStaticFewerRecordsThanK(t *testing.T) {
	recs := clusteredRecords(9, 3, 0)
	cond, err := condenseStatic(recs, 10, rng.New(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cond.NumGroups() != 1 || cond.TotalCount() != 3 {
		t.Errorf("NumGroups = %d TotalCount = %d", cond.NumGroups(), cond.TotalCount())
	}
}

func TestStaticLocality(t *testing.T) {
	// With two clusters 20σ apart and k well below the cluster size, no
	// group should straddle the clusters: every group centroid lies near
	// one cluster center, never in the middle.
	recs := clusteredRecords(11, 40, 40)
	cond, err := condenseStatic(recs, 8, rng.New(12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cents, err := cond.Centroids()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cents {
		dA := c.Dist(mat.Vector{0, 0})
		dB := c.Dist(mat.Vector{20, 20})
		if math.Min(dA, dB) > 5 {
			t.Errorf("group %d centroid %v is between clusters (dA=%.1f dB=%.1f)", i, c, dA, dB)
		}
	}
}

func TestStaticPreservesGlobalMoments(t *testing.T) {
	// Merging all group statistics must reproduce the exact global moments
	// — condensation loses within-group detail, not totals.
	recs := clusteredRecords(13, 25, 25)
	cond, err := condenseStatic(recs, 5, rng.New(14), Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged := stats.NewGroup(2)
	for _, g := range cond.Groups() {
		if err := merged.Merge(g); err != nil {
			t.Fatal(err)
		}
	}
	bulk, err := stats.FromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.FirstOrderSums().Equal(bulk.FirstOrderSums(), 1e-8) {
		t.Error("merged first-order sums differ from bulk")
	}
	if !merged.SecondOrderSums().Equal(bulk.SecondOrderSums(), 1e-6) {
		t.Error("merged second-order sums differ from bulk")
	}
}

func TestStaticErrors(t *testing.T) {
	recs := clusteredRecords(15, 5, 5)
	if _, err := condenseStatic(nil, 2, rng.New(1), Options{}); err == nil {
		t.Error("empty records accepted")
	}
	if _, err := condenseStatic(recs, 0, rng.New(1), Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := condenseStatic(recs, 2, rng.New(1), Options{Synthesis: Synthesis(9)}); err == nil {
		t.Error("bad options accepted")
	}
	ragged := []mat.Vector{{1, 2}, {3}}
	if _, err := condenseStatic(ragged, 1, rng.New(1), Options{}); err == nil {
		t.Error("ragged records accepted")
	}
	nan := []mat.Vector{{1, math.NaN()}}
	if _, err := condenseStatic(nan, 1, rng.New(1), Options{}); err == nil {
		t.Error("NaN records accepted")
	}
}

func TestStaticDoesNotMutateInput(t *testing.T) {
	recs := clusteredRecords(17, 10, 10)
	orig := make([]mat.Vector, len(recs))
	for i, x := range recs {
		orig[i] = x.Clone()
	}
	if _, err := condenseStatic(recs, 3, rng.New(18), Options{}); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if !recs[i].Equal(orig[i], 0) {
			t.Fatalf("record %d mutated", i)
		}
	}
}

func TestStaticDeterministicGivenSeed(t *testing.T) {
	recs := clusteredRecords(19, 20, 20)
	c1, err := condenseStatic(recs, 4, rng.New(20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := condenseStatic(recs, 4, rng.New(20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c1.NumGroups() != c2.NumGroups() {
		t.Fatal("group counts differ across identical runs")
	}
	g1, g2 := c1.Groups(), c2.Groups()
	for i := range g1 {
		if g1[i].N() != g2[i].N() || !g1[i].FirstOrderSums().Equal(g2[i].FirstOrderSums(), 0) {
			t.Fatalf("group %d differs across identical runs", i)
		}
	}
}

func TestStaticK1GroupsAreSingletons(t *testing.T) {
	recs := clusteredRecords(21, 7, 0)
	cond, err := condenseStatic(recs, 1, rng.New(22), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cond.NumGroups() != len(recs) {
		t.Fatalf("NumGroups = %d, want %d", cond.NumGroups(), len(recs))
	}
	for _, g := range cond.Groups() {
		if g.N() != 1 {
			t.Errorf("k=1 group has %d records", g.N())
		}
	}
}

func TestCondensationGroupsAreCopies(t *testing.T) {
	recs := clusteredRecords(23, 6, 0)
	cond, err := condenseStatic(recs, 3, rng.New(24), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gs := cond.Groups()
	if err := gs[0].Add(mat.Vector{100, 100}); err != nil {
		t.Fatal(err)
	}
	if cond.TotalCount() != 6 {
		t.Error("Groups() exposes internal state")
	}
}

func TestCondensationEmptyAccessors(t *testing.T) {
	c := newCondensation(2, 3, Options{}, nil)
	if c.AverageGroupSize() != 0 || c.MinGroupSize() != 0 || c.NumGroups() != 0 {
		t.Error("empty condensation accessors nonzero")
	}
}

func TestStaticWithMembersPartition(t *testing.T) {
	recs := clusteredRecords(25, 13, 14)
	for _, k := range []int{1, 4, 9} {
		cond, members, err := condenseStaticMembers(recs, k, rng.New(26), Options{})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(members) != cond.NumGroups() {
			t.Fatalf("k=%d: %d member lists for %d groups", k, len(members), cond.NumGroups())
		}
		seen := make([]bool, len(recs))
		for gi, member := range members {
			if len(member) != cond.Groups()[gi].N() {
				t.Errorf("k=%d: group %d lists %d members but holds %d records",
					k, gi, len(member), cond.Groups()[gi].N())
			}
			for _, idx := range member {
				if idx < 0 || idx >= len(recs) || seen[idx] {
					t.Fatalf("k=%d: invalid or duplicated member index %d", k, idx)
				}
				seen[idx] = true
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("k=%d: record %d not in any group", k, i)
			}
		}
	}
}

func TestStaticWithMembersStatsMatchMembers(t *testing.T) {
	recs := clusteredRecords(27, 10, 10)
	cond, members, err := condenseStaticMembers(recs, 4, rng.New(28), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for gi, member := range members {
		rebuilt := stats.NewGroup(2)
		for _, idx := range member {
			if err := rebuilt.Add(recs[idx]); err != nil {
				t.Fatal(err)
			}
		}
		g := cond.Groups()[gi]
		if !rebuilt.FirstOrderSums().Equal(g.FirstOrderSums(), 1e-9) {
			t.Errorf("group %d statistics do not match its member list", gi)
		}
	}
}

// factorRecords returns n records of dimension d from a rank-3 factor
// model x = Az + 0.1ε with fixed loadings A: records lie near a
// 3-dimensional subspace, the correlated regime of the anonymize
// benchmark, where the projection window skips most rows.
func factorRecords(seed uint64, n, d int) []mat.Vector {
	shape := rng.New(2004)
	a := make([]float64, d*3)
	for i := range a {
		a[i] = shape.Norm()
	}
	r := rng.New(seed)
	out := make([]mat.Vector, n)
	for i := range out {
		z := [3]float64{r.Norm(), r.Norm(), r.Norm()}
		x := make(mat.Vector, d)
		for j := range x {
			s := 0.1 * r.Norm()
			for l, zv := range z {
				s += a[j*3+l] * zv
			}
			x[j] = s
		}
		out[i] = x
	}
	return out
}

// staticSearchAttrs condenses records through c on the given search path
// with a tracer attached and returns the static.condense span's search
// attributes.
func staticSearchAttrs(t *testing.T, c *Condenser, records []mat.Vector, path searchPath) (backend string, windowQueries, visited int) {
	t.Helper()
	tr := telemetry.NewTracer(0, 1)
	c.trace = tr
	if _, _, err := staticCondensePath(c, records, c.rng(), path); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events(0) {
		if ev.Name != "static.condense" {
			continue
		}
		for _, kv := range ev.Attrs {
			switch kv[0] {
			case "backend":
				backend = kv[1]
			case "window_queries":
				windowQueries, _ = strconv.Atoi(kv[1])
			case "rows_visited":
				visited, _ = strconv.Atoi(kv[1])
			}
		}
		return backend, windowQueries, visited
	}
	t.Fatal("no static.condense span")
	return
}

// TestStaticDistanceEvaluations pins the exact number of rows the static
// search hands to the distance kernel, counted at the call sites, at fixed
// seeds. On the correlated factor data the engine keeps the projection
// window and reads under a fifth of the sweep's rows. On i.i.d. d = 8 data
// the window's probe reads over half the live rows, and the engine hands
// off to the sweep after windowProbeQueries queries — with two workers,
// and with one on a class below parallelSweepCutoff, where only the
// window's higher cost per row (windowRowCost) tips the choice. A change
// to the pruning bound, the slab scan or the hand-off rule moves these
// counts.
func TestStaticDistanceEvaluations(t *testing.T) {
	if testing.Short() {
		t.Skip("condenses 20k-record classes")
	}
	const k = 25
	for _, tc := range []struct {
		name          string
		records       []mat.Vector
		workers       int
		backend       string
		windowQueries int
		visited       int
	}{
		{"factor-d8", factorRecords(5, 20000, 8), 2, "window", 20000 / k, 1626564},
		{"iid-d8", gaussianRecords(6, 20000, 8), 2, "scan", windowProbeQueries, 7971615},
		{"iid-d8-n6k-w1", gaussianRecords(8, 6000, 8), 1, "scan", windowProbeQueries, 709782},
	} {
		n := len(tc.records)
		c, err := NewCondenser(k, WithSeed(7), WithParallelism(tc.workers))
		if err != nil {
			t.Fatal(err)
		}
		backend, queries, visited := staticSearchAttrs(t, c, tc.records, pathAuto)
		_, _, sweep := staticSearchAttrs(t, c, tc.records, pathScan)
		t.Logf("%s: backend %s, %d window queries, %d rows visited (%.1f per record), sweep %d (%.1f per record)",
			tc.name, backend, queries, visited, float64(visited)/float64(n), sweep, float64(sweep)/float64(n))
		if backend != tc.backend || queries != tc.windowQueries || visited != tc.visited {
			t.Errorf("%s: backend %s, %d window queries, %d rows visited; want %s, %d, %d",
				tc.name, backend, queries, visited, tc.backend, tc.windowQueries, tc.visited)
		}
		// The sweep reads every live row once per group.
		if want := n * (n/k + 1) / 2; sweep != want {
			t.Errorf("%s: sweep visited %d rows, want %d", tc.name, sweep, want)
		}
	}
}
