package kernel

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// refDistSq is the scalar reference: mat.Vector.DistSq's exact loop.
func refDistSq(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func randVec(r *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = r.NormFloat64() * 3
	}
	return v
}

// randBlock returns n rows of dimension d both as a flat arena and as a
// gathered point set, with deliberate exact duplicates so argmin ties are
// exercised.
func randBlock(r *rand.Rand, n, d int) ([]float64, [][]float64) {
	flat := make([]float64, 0, n*d)
	pts := make([][]float64, n)
	for i := range pts {
		var row []float64
		if i > 0 && r.IntN(4) == 0 {
			row = append([]float64(nil), pts[r.IntN(i)]...)
		} else {
			row = randVec(r, d)
		}
		pts[i] = row
		flat = append(flat, row...)
	}
	return flat, pts
}

func TestDistSqMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 31, 40} {
		for trial := 0; trial < 50; trial++ {
			a, b := randVec(r, d), randVec(r, d)
			got, want := DistSq(a, b), refDistSq(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d: DistSq=%x ref=%x", d, got, want)
			}
		}
	}
}

func TestArgminFlatMatchesScan(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for _, d := range []int{1, 8, 9} {
		for trial := 0; trial < 30; trial++ {
			flat, pts := randBlock(r, 1+r.IntN(80), d)
			q := randVec(r, d)
			if trial%5 == 0 {
				// Query equal to an arena row: exact zero-distance ties.
				q = append([]float64(nil), pts[r.IntN(len(pts))]...)
			}
			wantID, wantD := -1, math.Inf(1)
			for i, p := range pts {
				if dd := refDistSq(q, p); dd < wantD {
					wantID, wantD = i, dd
				}
			}
			gotID, gotD := ArgminFlat(q, flat)
			if gotID != wantID || math.Float64bits(gotD) != math.Float64bits(wantD) {
				t.Fatalf("d=%d: got (%d,%v) want (%d,%v)", d, gotID, gotD, wantID, wantD)
			}
		}
	}
	if id, dd := ArgminFlat([]float64{1, 2}, nil); id != -1 || !math.IsInf(dd, 1) {
		t.Fatalf("empty arena: got (%d,%v)", id, dd)
	}
}

func TestArgminFlatIDsMatchesFold(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	for _, d := range []int{2, 8} {
		for trial := 0; trial < 40; trial++ {
			flat, pts := randBlock(r, 1+r.IntN(60), d)
			ids := make([]int, len(pts))
			for i := range ids {
				ids[i] = r.IntN(40) // duplicates and arbitrary order on purpose
			}
			q := randVec(r, d)
			if trial%4 == 0 {
				q = append([]float64(nil), pts[r.IntN(len(pts))]...)
			}
			seedID, seedD := 17, refDistSq(q, pts[0]) // a live incumbent
			wantID, wantD := seedID, seedD
			for i, p := range pts {
				dd := refDistSq(q, p)
				if dd < wantD || (dd == wantD && ids[i] < wantID) {
					wantID, wantD = ids[i], dd
				}
			}
			gotID, gotD := ArgminFlatIDs(q, flat, ids, seedID, seedD)
			if gotID != wantID || math.Float64bits(gotD) != math.Float64bits(wantD) {
				t.Fatalf("d=%d: got (%d,%v) want (%d,%v)", d, gotID, gotD, wantID, wantD)
			}
		}
	}
}

func TestArgminIndexedMatchesFold(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 10))
	_, pts := randBlock(r, 50, 8)
	for trial := 0; trial < 30; trial++ {
		ids := make([]int, r.IntN(len(pts)))
		for i := range ids {
			ids[i] = r.IntN(len(pts))
		}
		q := randVec(r, 8)
		wantID, wantD := -1, math.Inf(1)
		for _, id := range ids {
			dd := refDistSq(q, pts[id])
			if dd < wantD || (dd == wantD && id < wantID) {
				wantID, wantD = id, dd
			}
		}
		gotID, gotD := ArgminIndexed(q, pts, ids, -1, math.Inf(1))
		if gotID != wantID || math.Float64bits(gotD) != math.Float64bits(wantD) {
			t.Fatalf("got (%d,%v) want (%d,%v)", gotID, gotD, wantID, wantD)
		}
	}
}

// latticeBlock returns n rows of dimension d with small integer
// coordinates, a third of them exact copies of earlier rows, so distances
// to a lattice query tie heavily.
func latticeBlock(r *rand.Rand, n, d int) ([]float64, [][]float64) {
	flat := make([]float64, 0, n*d)
	pts := make([][]float64, n)
	for i := range pts {
		row := make([]float64, d)
		if i > 0 && r.IntN(3) == 0 {
			copy(row, pts[r.IntN(i)])
		} else {
			for j := range row {
				row[j] = float64(r.IntN(3))
			}
		}
		pts[i] = row
		flat = append(flat, row...)
	}
	return flat, pts
}

// TestNearestKMatchesSort checks the fused sweep + bounded top-k against a
// full sort of every (distance, id) key: lattice data with heavy exact
// ties, k up to beyond n, and the rows folded through arbitrary chunk
// splits whose heaps are merged the way the static condensation merges
// its per-worker heaps.
func TestNearestKMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	for _, d := range []int{1, 3, 8, 11} {
		for trial := 0; trial < 60; trial++ {
			n := 1 + r.IntN(150)
			var flat []float64
			var pts [][]float64
			if trial%3 == 0 {
				flat, pts = randBlock(r, n, d)
			} else {
				flat, pts = latticeBlock(r, n, d)
			}
			ids := r.Perm(3 * n)[:n] // distinct, in arbitrary order
			q := make([]float64, d)
			for j := range q {
				q[j] = float64(r.IntN(3))
			}
			if trial%4 == 0 {
				copy(q, pts[r.IntN(n)])
			}
			want := make([]Neighbor, n)
			for i, p := range pts {
				want[i] = Neighbor{refDistSq(q, p), ids[i], i}
			}
			sort.Slice(want, func(a, b int) bool { return want[a].before(want[b]) })

			k := 1 + r.IntN(n+3) // sometimes k > n
			var merged []Neighbor
			for lo := 0; lo < n; {
				hi := lo + 1 + r.IntN(n-lo)
				heap := NearestK(make([]Neighbor, 0, k), q, flat[lo*d:hi*d], ids[lo:hi], lo, k)
				merged = append(merged, heap...)
				lo = hi
			}
			SortNeighbors(merged)
			top := min(k, n)
			if len(merged) < top {
				t.Fatalf("d=%d n=%d k=%d: %d candidates, want at least %d", d, n, k, len(merged), top)
			}
			for i := 0; i < top; i++ {
				g, w := merged[i], want[i]
				if g != w || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
					t.Fatalf("d=%d n=%d k=%d rank %d: got %+v want %+v", d, n, k, i, g, w)
				}
			}
		}
	}
}

func TestNearestKNoAllocs(t *testing.T) {
	flat, q := benchArena(2000, 8)
	ids := make([]int, 2000)
	for i := range ids {
		ids[i] = i
	}
	heap := make([]Neighbor, 0, 25)
	if a := testing.AllocsPerRun(10, func() { heap = NearestK(heap[:0], q, flat, ids, 0, 25) }); a != 0 {
		t.Fatalf("NearestK allocated %v times per call", a)
	}
}
