package core

import (
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

// TestSearchBackendEquivalence is the fast-path cross-check: under the
// same rng seed, the fused sweep + bounded top-k must produce groups with
// aggregate statistics identical (bit for bit — members are added in the
// same ascending-distance order) to the full-sort reference, and the same
// member record indices. The lattice cases tie heavily, so only the
// (distance, record index) tie-break picks among duplicate records.
func TestSearchBackendEquivalence(t *testing.T) {
	for _, tc := range []struct {
		n, d, k int
		lattice bool
	}{
		{60, 2, 5, false},
		{237, 3, 10, false}, // leftovers exercise the nearest-group fold-in
		{500, 4, 25, false},
		{120, 8, 7, false}, // moderate dimension
		{40, 2, 40, false}, // one group swallows everything
		{35, 2, 50, false}, // fewer records than k: single undersized group
		{300, 8, 7, true},  // unrolled d = 8 kernel path
		{611, 8, 25, true}, // leftovers
		{200, 2, 10, true},
	} {
		records := gaussianRecords(uint64(tc.n)*31+uint64(tc.d), tc.n, tc.d)
		if tc.lattice {
			records = latticeRecords(uint64(tc.n)*31+uint64(tc.d), tc.n, tc.d)
		}
		refGroups, refMembers := fullSortCondense(t, records, tc.k, rng.New(9))
		c, err := NewCondenser(tc.k, WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		cond, members, err := c.StaticWithMembers(records)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if cond.NumGroups() != len(refGroups) {
			t.Fatalf("n=%d k=%d: %d groups, reference has %d",
				tc.n, tc.k, cond.NumGroups(), len(refGroups))
		}
		gotGroups := cond.Groups()
		for gi := range refGroups {
			want, got := groupKey(refGroups[gi]), groupKey(gotGroups[gi])
			if got != want {
				t.Errorf("n=%d k=%d group %d:\n got %s\nwant %s",
					tc.n, tc.k, gi, got, want)
			}
		}
		for gi := range refMembers {
			if len(members[gi]) != len(refMembers[gi]) {
				t.Errorf("n=%d k=%d group %d: %d members, reference %d",
					tc.n, tc.k, gi, len(members[gi]), len(refMembers[gi]))
				continue
			}
			for mi := range refMembers[gi] {
				if members[gi][mi] != refMembers[gi][mi] {
					t.Errorf("n=%d k=%d group %d member %d: %d, reference %d",
						tc.n, tc.k, gi, mi, members[gi][mi], refMembers[gi][mi])
					break
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
	legacy, err := Static(records, 6, rng.New(42), Options{})
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
	dyn, err := c.Dynamic(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn.AddBatch(gaussianRecords(8, 50, 2)); err != nil {
		t.Fatal(err)
	}
	cond := dyn.Condensation()
	if cond.TotalCount() != 50 || cond.K() != 4 {
		t.Errorf("dynamic condensation: %d records k=%d", cond.TotalCount(), cond.K())
	}

	// Bootstrap = static init + dynamic maintenance in one call.
	dyn2, err := c.Bootstrap(gaussianRecords(9, 40, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := dyn2.AddBatch(gaussianRecords(10, 30, 2)); err != nil {
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
	if _, err := c.DynamicFrom(nil); err == nil {
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
