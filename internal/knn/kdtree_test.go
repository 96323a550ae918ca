package knn

import (
	"fmt"
	"testing"
	"testing/quick"

	"condensation/internal/mat"
	"condensation/internal/rng"
)

func randomPoints(seed uint64, n, d int) []mat.Vector {
	r := rng.New(seed)
	out := make([]mat.Vector, n)
	for i := range out {
		p := make(mat.Vector, d)
		for j := range p {
			p[j] = r.Uniform(-10, 10)
		}
		out[i] = p
	}
	return out
}

func TestKDTreeBuildErrors(t *testing.T) {
	if _, err := NewKDTree(nil); err == nil {
		t.Error("empty point set accepted")
	}
	if _, err := NewKDTree([]mat.Vector{{}}); err == nil {
		t.Error("zero-dimensional points accepted")
	}
	if _, err := NewKDTree([]mat.Vector{{1, 2}, {1}}); err == nil {
		t.Error("ragged points accepted")
	}
}

func TestKDTreeNearestSingle(t *testing.T) {
	pts := []mat.Vector{{0, 0}, {5, 5}, {1, 1}}
	tree, err := NewKDTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	nbrs, err := tree.Nearest(mat.Vector{0.9, 0.9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 1 || nbrs[0].Index != 2 {
		t.Errorf("Nearest = %+v, want index 2", nbrs)
	}
}

func TestKDTreeNearestMatchesBrute(t *testing.T) {
	for _, d := range []int{1, 2, 3, 7} {
		pts := randomPoints(uint64(d), 200, d)
		tree, err := NewKDTree(pts)
		if err != nil {
			t.Fatal(err)
		}
		queries := randomPoints(uint64(d)+100, 50, d)
		for _, k := range []int{1, 3, 10} {
			for qi, q := range queries {
				got, err := tree.Nearest(q, k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := BruteNearest(pts, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("d=%d k=%d query %d: %d results, want %d", d, k, qi, len(got), len(want))
				}
				for i := range got {
					// Indices may differ under exact distance ties;
					// distances must agree exactly.
					if got[i].DistSq != want[i].DistSq {
						t.Fatalf("d=%d k=%d query %d: dist[%d] = %g, want %g",
							d, k, qi, i, got[i].DistSq, want[i].DistSq)
					}
				}
			}
		}
	}
}

func TestKDTreeNearestOrdering(t *testing.T) {
	pts := randomPoints(5, 100, 3)
	tree, err := NewKDTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	nbrs, err := tree.Nearest(mat.Vector{0, 0, 0}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i].DistSq < nbrs[i-1].DistSq {
			t.Fatalf("results not sorted: %v", nbrs)
		}
	}
}

func TestKDTreeKLargerThanN(t *testing.T) {
	pts := randomPoints(6, 5, 2)
	tree, err := NewKDTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	nbrs, err := tree.Nearest(mat.Vector{0, 0}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 5 {
		t.Errorf("k > n returned %d results, want 5", len(nbrs))
	}
}

func TestKDTreeQueryErrors(t *testing.T) {
	tree, err := NewKDTree(randomPoints(7, 5, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Nearest(mat.Vector{0}, 1); err == nil {
		t.Error("wrong query dimension accepted")
	}
	if _, err := tree.Nearest(mat.Vector{0, 0}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestKDTreeDuplicatePoints(t *testing.T) {
	pts := []mat.Vector{{1, 1}, {1, 1}, {1, 1}, {2, 2}}
	tree, err := NewKDTree(pts)
	if err != nil {
		t.Fatal(err)
	}
	nbrs, err := tree.Nearest(mat.Vector{1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range nbrs {
		if nb.DistSq != 0 {
			t.Errorf("duplicate query found non-zero distance %g", nb.DistSq)
		}
	}
}

func TestKDTreeAccessors(t *testing.T) {
	tree, err := NewKDTree(randomPoints(8, 9, 4))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 9 || tree.Dim() != 4 {
		t.Errorf("Len=%d Dim=%d", tree.Len(), tree.Dim())
	}
}

func TestBruteNearestErrors(t *testing.T) {
	if _, err := BruteNearest(nil, mat.Vector{1}, 1); err == nil {
		t.Error("empty points accepted")
	}
	pts := randomPoints(9, 4, 2)
	if _, err := BruteNearest(pts, mat.Vector{1}, 1); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := BruteNearest(pts, mat.Vector{1, 2}, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// Property: the k-th nearest distance from the tree equals brute force for
// random configurations.
func TestKDTreeBruteEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.IntN(60)
		pts := randomPoints(seed+1, n, 3)
		tree, err := NewKDTree(pts)
		if err != nil {
			return false
		}
		q := mat.Vector{r.Uniform(-10, 10), r.Uniform(-10, 10), r.Uniform(-10, 10)}
		k := 1 + r.IntN(n)
		got, err := tree.Nearest(q, k)
		if err != nil {
			return false
		}
		want, err := BruteNearest(pts, q, k)
		if err != nil {
			return false
		}
		for i := range got {
			if got[i].DistSq != want[i].DistSq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// bruteSorted is the tie-break reference: every point ordered by the
// lexicographic (distance, index) key the tree promises, first k kept.
func bruteSorted(points []mat.Vector, query mat.Vector, k int) []Neighbor {
	all := make([]Neighbor, len(points))
	for i, p := range points {
		all[i] = Neighbor{Index: i, DistSq: query.DistSq(p)}
	}
	for i := 1; i < len(all); i++ {
		for j := i; j > 0; j-- {
			a, b := all[j-1], all[j]
			if b.DistSq < a.DistSq || (b.DistSq == a.DistSq && b.Index < a.Index) {
				all[j-1], all[j] = b, a
			} else {
				break
			}
		}
	}
	return all[:min(k, len(all))]
}

// TestKDTreesBreakTiesByIndex runs the kd-tree on an integer lattice with
// duplicated points, where nearly every k-th distance is shared by several
// points: the k returned must be the lowest-index ones, as in bruteSorted.
func TestKDTreesBreakTiesByIndex(t *testing.T) {
	r := rng.New(3)
	points := make([]mat.Vector, 300)
	for i := range points {
		v := make(mat.Vector, 3)
		for j := range v {
			v[j] = float64(r.IntN(3))
		}
		points[i] = v
	}
	tree, err := NewKDTree(points)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		query := points[r.IntN(len(points))]
		k := 1 + r.IntN(12)
		got, err := tree.Nearest(query, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteSorted(points, query, k); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: KDTree got %v, want %v", round, got, want)
		}
	}
}

func BenchmarkKDTreeNearest(b *testing.B) {
	pts := randomPoints(10, 4000, 8)
	tree, err := NewKDTree(pts)
	if err != nil {
		b.Fatal(err)
	}
	q := mat.Vector{0, 0, 0, 0, 0, 0, 0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Nearest(q, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBruteNearest(b *testing.B) {
	pts := randomPoints(11, 4000, 8)
	q := mat.Vector{0, 0, 0, 0, 0, 0, 0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BruteNearest(pts, q, 5); err != nil {
			b.Fatal(err)
		}
	}
}
