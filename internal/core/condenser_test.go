package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// gaussianRecords returns n records of dimension d with i.i.d. standard
// normal attributes — pairwise distances are distinct almost surely, which
// is the regime where every neighbour-search backend must form identical
// groups.
func gaussianRecords(seed uint64, n, d int) []mat.Vector {
	r := rng.New(seed)
	out := make([]mat.Vector, n)
	for i := range out {
		v := make(mat.Vector, d)
		for j := range v {
			v[j] = r.Norm()
		}
		out[i] = v
	}
	return out
}

// latticeRecords returns n records of dimension d on the integer lattice
// {0, 1, 2}^d, a third of them exact copies of earlier records: distances
// tie heavily, so every backend's (distance, record index) tie-break
// decides which records form each group.
func latticeRecords(seed uint64, n, d int) []mat.Vector {
	r := rng.New(seed)
	out := make([]mat.Vector, n)
	for i := range out {
		if i > 0 && r.IntN(3) == 0 {
			out[i] = out[r.IntN(i)].Clone()
			continue
		}
		v := make(mat.Vector, d)
		for j := range v {
			v[j] = float64(r.IntN(3))
		}
		out[i] = v
	}
	return out
}

// groupKey renders a group's exact aggregate statistics for comparison.
func groupKey(g *stats.Group) string {
	return fmt.Sprintf("n=%d fs=%v sc=%v", g.N(), g.FirstOrderSums(), g.SecondOrderSums())
}

// fullSortCondense is the reference the search backends are checked
// against: Figure 1 written plainly, with a full distance scan and a full
// (distance, record index) sort per group. It keeps the engine's alive-set
// bookkeeping — swap-delete from the highest chosen position down — so
// each rng draw samples the same record, and folds leftovers into the
// nearest group centroid (LeftoverNearestGroup).
func fullSortCondense(t *testing.T, records []mat.Vector, k int, r *rng.Source) ([]*stats.Group, [][]int) {
	t.Helper()
	newGroup := func(idx []int) *stats.Group {
		g := stats.NewGroup(len(records[0]))
		for _, i := range idx {
			if err := g.Add(records[i]); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	alive := make([]int, len(records))
	for i := range alive {
		alive[i] = i
	}
	var groups []*stats.Group
	var members [][]int
	for len(alive) >= k {
		seed := records[alive[r.IntN(len(alive))]]
		dist := make([]float64, len(alive))
		order := make([]int, len(alive))
		for pos, idx := range alive {
			dist[pos] = seed.DistSq(records[idx])
			order[pos] = pos
		}
		sort.Slice(order, func(a, b int) bool {
			da, db := dist[order[a]], dist[order[b]]
			return da < db || da == db && alive[order[a]] < alive[order[b]]
		})
		group := make([]int, k)
		for i, pos := range order[:k] {
			group[i] = alive[pos]
		}
		groups = append(groups, newGroup(group))
		members = append(members, group)
		chosen := append([]int(nil), order[:k]...)
		sort.Sort(sort.Reverse(sort.IntSlice(chosen)))
		for _, pos := range chosen {
			last := len(alive) - 1
			alive[pos] = alive[last]
			alive = alive[:last]
		}
	}
	if len(alive) == 0 {
		return groups, members
	}
	if len(groups) == 0 {
		return []*stats.Group{newGroup(alive)}, [][]int{alive}
	}
	centroids := make([]mat.Vector, len(groups))
	for i, g := range groups {
		m, err := g.Mean()
		if err != nil {
			t.Fatal(err)
		}
		centroids[i] = m
	}
	for _, idx := range alive {
		best := 0
		for i, c := range centroids {
			if records[idx].DistSq(c) < records[idx].DistSq(centroids[best]) {
				best = i
			}
		}
		if err := groups[best].Add(records[idx]); err != nil {
			t.Fatal(err)
		}
		members[best] = append(members[best], idx)
	}
	return groups, members
}

// boundRecords returns n records of dimension d whose attributes sit near
// the admitted ±maxRecord bound: a few shared offsets of ±0.9·maxRecord
// plus a spread that is tiny relative to them, the regime where the
// window's rounding margin, not its geometry, decides what is pruned.
func boundRecords(seed uint64, n, d int) []mat.Vector {
	r := rng.New(seed)
	out := make([]mat.Vector, n)
	for i := range out {
		v := make(mat.Vector, d)
		for j := range v {
			off := 0.9 * maxRecord
			if r.IntN(2) == 0 {
				off = -off
			}
			v[j] = off + r.Norm()*1e75
		}
		out[i] = v
	}
	return out
}

// TestSearchBackendEquivalence is the fast-path cross-check: under the
// same rng seed, each static search path — the sweep, the projection
// window, and the window handing off to the sweep after its probe
// queries — must produce groups with aggregate statistics identical (bit
// for bit — members are added in the same ascending-distance order) to the
// full-sort reference, and the same member record indices. The lattice
// cases tie heavily, so only the (distance, record index) tie-break picks
// among duplicate records; the d = 1 cases make the projection the record
// itself, and on the integer case rows tie with the k-th distance exactly
// at the window's edge; the line case puts about 64 copies of each of 8
// points of the line t·(1, 2) in each of two clusters 2⁴⁰ apart, so the
// axis is the line, projection gaps equal distances, the rounding of Δ at
// |p| ≈ 10¹² decides ties at the k-th distance, and the lowest-indexed
// tied rows lie beyond the first slab; the bound cases put every record
// near ±maxRecord.
func TestSearchBackendEquivalence(t *testing.T) {
	for _, tc := range []struct {
		n, d, k int
		data    string
	}{
		{60, 2, 5, "gaussian"},
		{237, 3, 10, "gaussian"}, // leftovers exercise the nearest-group fold-in
		{500, 4, 25, "gaussian"},
		{120, 8, 7, "gaussian"}, // moderate dimension
		{40, 2, 40, "gaussian"}, // one group swallows everything
		{35, 2, 50, "gaussian"}, // fewer records than k: single undersized group
		{300, 8, 7, "lattice"},  // unrolled d = 8 kernel path
		{611, 8, 25, "lattice"}, // leftovers
		{200, 2, 10, "lattice"},
		{400, 1, 6, "gaussian"}, // d = 1: the axis is the attribute
		{300, 1, 5, "lattice"},
		{512, 1, 20, "ints"},  // n = 2⁹: every projection and Δ is exact, ties at Δ² = k-th
		{1024, 2, 80, "line"}, // on-axis ties past the first slab; Δ rounds
		{400, 3, 8, "bound"},
		{300, 8, 5, "bound"},
	} {
		seed := uint64(tc.n)*31 + uint64(tc.d)
		records := gaussianRecords(seed, tc.n, tc.d)
		switch tc.data {
		case "lattice":
			records = latticeRecords(seed, tc.n, tc.d)
		case "bound":
			records = boundRecords(seed, tc.n, tc.d)
		case "line":
			r := rng.New(seed)
			for _, x := range records {
				t := float64(r.IntN(8) + r.IntN(2)<<40)
				x[0], x[1] = t, 2*t
			}
		case "ints":
			r := rng.New(seed)
			for _, x := range records {
				for j := range x {
					x[j] = float64(r.IntN(64))
				}
			}
		}
		refGroups, refMembers := fullSortCondense(t, records, tc.k, rng.New(9))
		for _, path := range []searchPath{pathScan, pathWindow, pathHandOff} {
			name := fmt.Sprintf("%s n=%d d=%d k=%d path=%d", tc.data, tc.n, tc.d, tc.k, path)
			c, err := NewCondenser(tc.k, WithSeed(9))
			if err != nil {
				t.Fatal(err)
			}
			cond, members, err := staticCondensePath(c, records, c.rng(), path)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if cond.NumGroups() != len(refGroups) {
				t.Fatalf("%s: %d groups, reference has %d", name, cond.NumGroups(), len(refGroups))
			}
			gotGroups := cond.Groups()
			for gi := range refGroups {
				want, got := groupKey(refGroups[gi]), groupKey(gotGroups[gi])
				if got != want {
					t.Errorf("%s group %d:\n got %s\nwant %s", name, gi, got, want)
				}
			}
			for gi := range refMembers {
				if fmt.Sprint(members[gi]) != fmt.Sprint(refMembers[gi]) {
					t.Errorf("%s group %d: members %v, reference %v", name, gi, members[gi], refMembers[gi])
				}
			}
		}
	}
}

// TestParallelSweepEquivalence forces the chunked parallel sweep (the
// cutoff that normally hides it at test sizes is bypassed by record count)
// and checks it against the single-threaded sweep, member for member. On
// the d = 8 lattice, exact ties straddle the chunk boundaries, so merging
// the per-worker heaps must apply the record-index tie-break across them.
func TestParallelSweepEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("large record set")
	}
	for _, tc := range []struct {
		name    string
		records []mat.Vector
	}{
		{"gaussian-d3", gaussianRecords(77, parallelSweepCutoff+500, 3)},
		{"lattice-d8", latticeRecords(78, parallelSweepCutoff+500, 8)},
	} {
		serial, err := NewCondenser(40, WithSeed(3), WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := NewCondenser(40, WithSeed(3), WithParallelism(8))
		if err != nil {
			t.Fatal(err)
		}
		want, wantMembers, err := serial.StaticWithMembers(tc.records)
		if err != nil {
			t.Fatal(err)
		}
		got, gotMembers, err := parallel.StaticWithMembers(tc.records)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumGroups() != want.NumGroups() {
			t.Fatalf("%s: parallel sweep: %d groups, serial %d", tc.name, got.NumGroups(), want.NumGroups())
		}
		wantGroups, gotGroups := want.Groups(), got.Groups()
		for gi := range wantGroups {
			if groupKey(gotGroups[gi]) != groupKey(wantGroups[gi]) ||
				fmt.Sprint(gotMembers[gi]) != fmt.Sprint(wantMembers[gi]) {
				t.Fatalf("%s: parallel sweep diverged at group %d", tc.name, gi)
			}
		}
	}
}

// TestCondenserDefaultsMatchDeprecatedAPI pins the compatibility contract:
// the zero-option facade with seed s equals the deprecated positional call
// with rng.New(s).
func TestCondenserDefaultsMatchDeprecatedAPI(t *testing.T) {
	records := gaussianRecords(5, 90, 3)
	c, err := NewCondenser(6, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	facade, err := c.Static(records)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := condenseStatic(records, 6, rng.New(42), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if facade.NumGroups() != legacy.NumGroups() {
		t.Fatalf("facade %d groups, legacy %d", facade.NumGroups(), legacy.NumGroups())
	}
	fg, lg := facade.Groups(), legacy.Groups()
	for gi := range fg {
		if groupKey(fg[gi]) != groupKey(lg[gi]) {
			t.Fatalf("facade diverged from legacy API at group %d", gi)
		}
	}
}

// TestCondenserSharedAcrossGoroutines exercises the documented concurrency
// contract (seed-configured Condensers are shareable) under -race.
func TestCondenserSharedAcrossGoroutines(t *testing.T) {
	records := gaussianRecords(6, 300, 3)
	c, err := NewCondenser(10, WithSeed(1), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	conds := make([]*Condensation, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			cond, err := c.Static(records)
			conds[w] = cond
			errs <- err
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for w := 1; w < workers; w++ {
		if conds[w].NumGroups() != conds[0].NumGroups() {
			t.Fatalf("worker %d saw %d groups, worker 0 saw %d",
				w, conds[w].NumGroups(), conds[0].NumGroups())
		}
	}
}

func TestCondenserDynamic(t *testing.T) {
	c, err := NewCondenser(4, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := c.Sharded(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.AddBatchContext(context.Background(), gaussianRecords(8, 50, 2)); err != nil {
		t.Fatal(err)
	}
	cond := dyn.Condensation()
	if cond.TotalCount() != 50 || cond.K() != 4 {
		t.Errorf("dynamic condensation: %d records k=%d", cond.TotalCount(), cond.K())
	}

	// Static init + dynamic maintenance: the paper's full dynamic setting.
	base, err := c.Static(gaussianRecords(9, 40, 2))
	if err != nil {
		t.Fatal(err)
	}
	dyn2, err := c.ShardedFrom(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn2.AddBatchContext(context.Background(), gaussianRecords(10, 30, 2)); err != nil {
		t.Fatal(err)
	}
	if got := dyn2.Condensation().TotalCount(); got != 70 {
		t.Errorf("bootstrap total = %d, want 70", got)
	}
}

func TestCondenserValidation(t *testing.T) {
	if _, err := NewCondenser(0); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := NewCondenser(2, WithSynthesis(Synthesis(9))); err == nil {
		t.Error("bad synthesis accepted")
	}
	if _, err := NewCondenser(2, WithNeighborSearch(SearchAuto)); err != nil {
		t.Errorf("SearchAuto rejected: %v", err)
	}
	for _, s := range []NeighborSearch{1, 2, 9} {
		if _, err := NewCondenser(2, WithNeighborSearch(s)); err == nil {
			t.Errorf("NeighborSearch(%d) accepted", int(s))
		}
	}
	if _, err := NewCondenser(2, WithMode(Mode(9))); err == nil {
		t.Error("bad mode accepted")
	}
	c, err := NewCondenser(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ShardedFrom(nil, 1); err == nil {
		t.Error("nil initial condensation accepted")
	}
	if c.K() != 3 {
		t.Errorf("K = %d", c.K())
	}
}

// TestIndexPrecisionOnlyFloat64: the deprecated precision option accepts
// Float64 and rejects every other value.
func TestIndexPrecisionOnlyFloat64(t *testing.T) {
	if _, err := NewCondenser(3, WithIndexPrecision(Float64)); err != nil {
		t.Fatalf("Float64 rejected: %v", err)
	}
	if _, err := NewCondenser(3, WithIndexPrecision(IndexPrecision(1))); err == nil {
		t.Fatal("IndexPrecision(1) accepted")
	}
}
