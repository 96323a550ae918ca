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

func TestSweepMatchesDistSq(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 4))
	for _, d := range []int{1, 3, 8, 11} {
		flat, pts := randBlock(r, 57, d)
		q := randVec(r, d)
		dist := make([]float64, len(pts))
		Sweep(dist, q, flat)
		for i, p := range pts {
			if math.Float64bits(dist[i]) != math.Float64bits(refDistSq(q, p)) {
				t.Fatalf("d=%d row=%d: sweep mismatch", d, i)
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

func TestTopKMatchesSort(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.IntN(120)
		dist := make([]float64, n)
		ids := make([]int, n)
		for i := range dist {
			dist[i] = float64(r.IntN(12)) // heavy exact ties
			ids[i] = r.IntN(200)
		}
		k := 1 + r.IntN(n+3) // sometimes k > n
		order := make([]int, n)
		want := make([]int, n)
		for i := range order {
			order[i], want[i] = i, i
		}
		sort.SliceStable(want, func(a, b int) bool {
			return lessByDist(dist, ids, want[a], want[b])
		})
		TopK(order, dist, ids, k)
		top := k
		if top > n {
			top = n
		}
		for i := 0; i < top; i++ {
			g, w := order[i], want[i]
			if dist[g] != dist[w] || ids[g] != ids[w] {
				t.Fatalf("k=%d pos=%d: got key (%v,%d) want (%v,%d)", k, i, dist[g], ids[g], dist[w], ids[w])
			}
		}
	}
}

// TestF32CollectContainsExactArgmin is the safety-margin property test:
// for adversarial near-tie arenas the f32 candidate set must contain
// every row achieving the exact f64 minimum, so the f64 re-verification
// of candidates reproduces the full-precision lexicographic argmin.
func TestF32CollectContainsExactArgmin(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 16))
	for trial := 0; trial < 300; trial++ {
		d := 1 + r.IntN(12)
		n := 2 + r.IntN(60)
		scale := math.Pow(10, float64(r.IntN(7)-3))
		pts := make([][]float64, n)
		maxAbs := 0.0
		base := randVec(r, d)
		for i := range pts {
			p := make([]float64, d)
			for j := range p {
				// Cluster tightly around base so f32 rounding collides
				// distances that f64 still separates.
				p[j] = (base[j] + r.NormFloat64()*1e-7) * scale
				if a := math.Abs(p[j]); a > maxAbs {
					maxAbs = a
				}
			}
			pts[i] = p
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = (base[j] + r.NormFloat64()*1e-7) * scale
			if a := math.Abs(q[j]); a > maxAbs {
				maxAbs = a
			}
		}
		flat32 := make([]float32, 0, n*d)
		for _, p := range pts {
			for _, x := range p {
				flat32 = append(flat32, float32(x))
			}
		}
		q32 := make([]float32, d)
		for j, x := range q {
			q32[j] = float32(x)
		}
		min32 := MinF32(q32, flat32)
		margin := MarginF32(d, maxAbs)
		cand := CollectWithinF32(q32, flat32, float64(min32)+2*margin, nil)

		// The fused single-pass kernel must find the identical minimum and
		// a candidate superset of the two-pass collection.
		fusedMin, fusedCand := MinCollectF32(q32, flat32, 2*margin, nil)
		if math.Float32bits(fusedMin) != math.Float32bits(min32) {
			t.Fatalf("trial %d: MinCollectF32 min %v, MinF32 %v", trial, fusedMin, min32)
		}
		inFused := make(map[int]bool, len(fusedCand))
		for _, id := range fusedCand {
			inFused[id] = true
		}
		for _, id := range cand {
			if !inFused[id] {
				t.Fatalf("trial %d: row %d within final threshold but missing from fused candidates", trial, id)
			}
		}

		wantID, wantD := -1, math.Inf(1)
		for i, p := range pts {
			if dd := refDistSq(q, p); dd < wantD {
				wantID, wantD = i, dd
			}
		}
		inCand := false
		gotID, gotD := -1, math.Inf(1)
		for _, id := range cand {
			dd := refDistSq(q, pts[id])
			if dd < gotD {
				gotID, gotD = id, dd
			}
			if id == wantID {
				inCand = true
			}
		}
		if !inCand {
			t.Fatalf("trial %d: exact argmin %d missing from %d candidates (margin %v)", trial, wantID, len(cand), margin)
		}
		if gotID != wantID || math.Float64bits(gotD) != math.Float64bits(wantD) {
			t.Fatalf("trial %d: candidate re-verify picked (%d,%v), exact (%d,%v)", trial, gotID, gotD, wantID, wantD)
		}
	}
}
