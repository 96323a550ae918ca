package knn

import (
	"fmt"
	"testing"

	"condensation/internal/mat"
	"condensation/internal/rng"
)

func dynPoints(seed uint64, n, d int) []mat.Vector {
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

// bruteAlive is the reference: linear scan over the live subset with the
// same (distance, index) ordering the tree promises.
func bruteAlive(points []mat.Vector, dead map[int]bool, query mat.Vector, k int) []Neighbor {
	var all []Neighbor
	for i, p := range points {
		if dead[i] {
			continue
		}
		all = append(all, Neighbor{Index: i, DistSq: query.DistSq(p)})
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
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

func TestDynamicKDTreeMatchesBruteForceUnderDeletion(t *testing.T) {
	points := dynPoints(1, 200, 3)
	tree, err := NewDynamicKDTree(points)
	if err != nil {
		t.Fatal(err)
	}
	dead := make(map[int]bool)
	r := rng.New(2)
	query := mat.Vector{0.1, -0.2, 0.3}
	// Interleave queries and deletions; deletions eventually trigger the
	// 50% rebuild several times over.
	for round := 0; round < 180; round++ {
		got, err := tree.NearestAlive(query, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteAlive(points, dead, query, 5)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d neighbours, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d neighbour %d: got %+v, want %+v", round, i, got[i], want[i])
			}
		}
		// Delete one live point at random.
		var live []int
		for i := range points {
			if !dead[i] {
				live = append(live, i)
			}
		}
		victim := live[r.IntN(len(live))]
		if err := tree.Delete(victim); err != nil {
			t.Fatal(err)
		}
		dead[victim] = true
		if tree.Len() != len(live)-1 {
			t.Fatalf("round %d: Len = %d, want %d", round, tree.Len(), len(live)-1)
		}
	}
}

// TestKDTreesBreakTiesByIndex runs both trees on an integer lattice with
// duplicated points, where nearly every k-th distance is shared by several
// points: the k returned must be the lowest-index ones, as in bruteAlive.
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
	static, err := NewKDTree(points)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicKDTree(points)
	if err != nil {
		t.Fatal(err)
	}
	dead := make(map[int]bool)
	for round := 0; round < 200; round++ {
		query := points[r.IntN(len(points))]
		k := 1 + r.IntN(12)
		got, err := static.Nearest(query, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteAlive(points, nil, query, k); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: KDTree got %v, want %v", round, got, want)
		}
		got, err = dyn.NearestAlive(query, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteAlive(points, dead, query, k); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: DynamicKDTree got %v, want %v", round, got, want)
		}
		victim := r.IntN(len(points))
		if !dead[victim] {
			if err := dyn.Delete(victim); err != nil {
				t.Fatal(err)
			}
			dead[victim] = true
		}
	}
}

func TestDynamicKDTreeDeleteErrors(t *testing.T) {
	tree, err := NewDynamicKDTree(dynPoints(3, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Delete(-1); err == nil {
		t.Error("negative index accepted")
	}
	if err := tree.Delete(10); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := tree.Delete(4); err != nil {
		t.Fatal(err)
	}
	if err := tree.Delete(4); err == nil {
		t.Error("double delete accepted")
	}
}

func TestDynamicKDTreeExhaustion(t *testing.T) {
	points := dynPoints(4, 33, 2)
	tree, err := NewDynamicKDTree(points)
	if err != nil {
		t.Fatal(err)
	}
	for i := range points {
		if err := tree.Delete(i); err != nil {
			t.Fatalf("deleting %d: %v", i, err)
		}
	}
	if tree.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tree.Len())
	}
	if _, err := tree.NearestAlive(points[0], 1); err == nil {
		t.Error("query against empty tree accepted")
	}
}

func TestDynamicKDTreeValidation(t *testing.T) {
	if _, err := NewDynamicKDTree(nil); err == nil {
		t.Error("empty point set accepted")
	}
	if _, err := NewDynamicKDTree([]mat.Vector{{}}); err == nil {
		t.Error("zero-dimensional points accepted")
	}
	if _, err := NewDynamicKDTree([]mat.Vector{{1, 2}, {3}}); err == nil {
		t.Error("ragged points accepted")
	}
	tree, err := NewDynamicKDTree(dynPoints(5, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.NearestAlive(mat.Vector{1}, 1); err == nil {
		t.Error("wrong-dimension query accepted")
	}
	if _, err := tree.NearestAlive(mat.Vector{1, 2}, 0); err == nil {
		t.Error("k = 0 accepted")
	}
	if got, err := tree.NearestAlive(mat.Vector{0, 0}, 100); err != nil || len(got) != 8 {
		t.Errorf("oversized k: got %d neighbours, err %v; want all 8", len(got), err)
	}
}
