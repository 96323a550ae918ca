// Package knn implements nearest-neighbour classification and regression —
// the unmodified data mining algorithm the paper runs on condensed
// (anonymized) data to demonstrate that condensation needs no
// problem-specific algorithm redesign.
//
// Two search backends are provided: exact brute force, and an exact
// KD-tree that is asymptotically faster in low-to-moderate dimension. Both
// return identical results; the KD-tree simply prunes.
package knn

import (
	"fmt"
	"sort"

	"condensation/internal/kernel"
	"condensation/internal/mat"
)

// kdNode is one node of a KD-tree over record indices.
type kdNode struct {
	idx         int // index into the backing points
	axis        int
	left, right *kdNode
}

// KDTree is an exact nearest-neighbour index over a fixed point set.
type KDTree struct {
	points []mat.Vector
	root   *kdNode
	dim    int
}

// NewKDTree builds a balanced KD-tree by recursive median splits. The
// points slice is retained (not copied); callers must not mutate it.
func NewKDTree(points []mat.Vector) (*KDTree, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("knn: empty point set")
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("knn: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("knn: point %d has dimension %d, want %d", i, len(p), dim)
		}
		if !p.IsFinite() {
			return nil, fmt.Errorf("knn: point %d has non-finite values", i)
		}
	}
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	t := &KDTree{points: points, dim: dim}
	t.root = t.build(idx, 0)
	return t, nil
}

// build recursively constructs the subtree for the given indices.
func (t *KDTree) build(idx []int, depth int) *kdNode {
	if len(idx) == 0 {
		return nil
	}
	axis := depth % t.dim
	sort.Slice(idx, func(a, b int) bool {
		return t.points[idx[a]][axis] < t.points[idx[b]][axis]
	})
	mid := len(idx) / 2
	node := &kdNode{idx: idx[mid], axis: axis}
	node.left = t.build(idx[:mid], depth+1)
	node.right = t.build(idx[mid+1:], depth+1)
	return node
}

// Len returns the number of indexed points.
func (t *KDTree) Len() int { return len(t.points) }

// Dim returns the dimensionality of the indexed points.
func (t *KDTree) Dim() int { return t.dim }

// Neighbor is one nearest-neighbour result.
type Neighbor struct {
	// Index identifies the point in the training order.
	Index int
	// DistSq is the squared Euclidean distance to the query.
	DistSq float64
}

// neighborHeap is a max-heap under the lexicographic (DistSq, Index)
// order, so the current worst of the best-k sits at the root and can be
// evicted in O(log k). The sift operations are hand-rolled rather than
// going through container/heap, whose interface methods box one Neighbor
// per push — a per-visited-node allocation in what is the innermost loop
// of every experiment.
type neighborHeap []Neighbor

// before is the (DistSq, Index) order: exact distance ties go to the lower
// index, so the k nearest are unique.
func (a Neighbor) before(b Neighbor) bool {
	return a.DistSq < b.DistSq || (a.DistSq == b.DistSq && a.Index < b.Index)
}

// offer keeps x if the heap holds fewer than k neighbours or x comes
// before the current worst.
func (h *neighborHeap) offer(x Neighbor, k int) {
	if len(*h) < k {
		h.push(x)
	} else if x.before((*h)[0]) {
		h.replaceRoot(x)
	}
}

// push appends x and restores the heap invariant (sift up).
func (h *neighborHeap) push(x Neighbor) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[parent].before(s[i]) {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

// replaceRoot overwrites the current worst neighbour and restores the
// invariant (sift down).
func (h neighborHeap) replaceRoot(x Neighbor) {
	h[0] = x
	i := 0
	for {
		largest := i
		if l := 2*i + 1; l < len(h) && h[largest].before(h[l]) {
			largest = l
		}
		if r := 2*i + 2; r < len(h) && h[largest].before(h[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

// sortNeighbors orders results by ascending distance, breaking exact ties
// by training index so the ordering is deterministic. Insertion sort: k is
// small and, unlike sort.Slice, it allocates nothing.
func sortNeighbors(ns []Neighbor) {
	for i := 1; i < len(ns); i++ {
		x := ns[i]
		j := i - 1
		for j >= 0 && x.before(ns[j]) {
			ns[j+1] = ns[j]
			j--
		}
		ns[j+1] = x
	}
}

// Nearest returns the k nearest indexed points to the query, ordered by
// ascending distance. If fewer than k points are indexed, all are
// returned.
func (t *KDTree) Nearest(query mat.Vector, k int) ([]Neighbor, error) {
	return t.NearestInto(query, k, nil)
}

// NearestInto is Nearest with a caller-provided buffer: the result reuses
// buf's backing array when it has capacity, so a caller sweeping many
// queries (one scratch buffer per worker) performs no per-query
// allocation. buf's contents are overwritten; pass the previous return
// value on the next call.
func (t *KDTree) NearestInto(query mat.Vector, k int, buf []Neighbor) ([]Neighbor, error) {
	if len(query) != t.dim {
		return nil, fmt.Errorf("knn: query dimension %d, index dimension %d", len(query), t.dim)
	}
	if k < 1 {
		return nil, fmt.Errorf("knn: k = %d, must be ≥ 1", k)
	}
	if k > len(t.points) {
		k = len(t.points)
	}
	h := neighborHeap(buf[:0])
	t.search(t.root, query, k, &h)
	sortNeighbors(h)
	return h, nil
}

// search walks the tree, pruning subtrees whose bounding half-space cannot
// contain a point closer than the current k-th best.
func (t *KDTree) search(node *kdNode, query mat.Vector, k int, h *neighborHeap) {
	if node == nil {
		return
	}
	p := t.points[node.idx]
	h.offer(Neighbor{Index: node.idx, DistSq: kernel.DistSq(query, p)}, k)

	diff := query[node.axis] - p[node.axis]
	near, far := node.left, node.right
	if diff > 0 {
		near, far = far, near
	}
	t.search(near, query, k, h)
	// Visit the far side only if the splitting plane is no farther than
	// the current k-th best distance (or the heap is not yet full): a
	// point on the far side at exactly that distance can still displace
	// the k-th best on index.
	if len(*h) < k || diff*diff <= (*h)[0].DistSq {
		t.search(far, query, k, h)
	}
}

// BruteNearest performs exact k-nearest-neighbour search by linear scan —
// the reference implementation the KD-tree is tested against, and the
// faster choice for very small training sets.
func BruteNearest(points []mat.Vector, query mat.Vector, k int) ([]Neighbor, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("knn: empty point set")
	}
	if len(query) != len(points[0]) {
		return nil, fmt.Errorf("knn: query dimension %d, points dimension %d", len(query), len(points[0]))
	}
	if k < 1 {
		return nil, fmt.Errorf("knn: k = %d, must be ≥ 1", k)
	}
	if k > len(points) {
		k = len(points)
	}
	h := make(neighborHeap, 0, k)
	for i, p := range points {
		h.offer(Neighbor{Index: i, DistSq: kernel.DistSq(query, p)}, k)
	}
	sortNeighbors(h)
	return h, nil
}
