package knn

import (
	"fmt"
	"sort"

	"condensation/internal/kernel"
	"condensation/internal/mat"
)

// dynNode is one node of a DynamicKDTree. Unlike the static kdNode it
// carries a parent pointer and a live-descendant count so that deletions
// can tombstone a point in O(depth) and searches can prune fully-dead
// subtrees.
type dynNode struct {
	idx         int // index into the backing points
	axis        int
	left, right *dynNode
	parent      *dynNode
	alive       int // live points in this subtree, including this node
	dead        bool
}

// DynamicKDTree is an exact nearest-neighbour index that supports point
// deletion. Deletions are tombstones: the node stays in place but is
// skipped as a candidate, and per-subtree live counts let the search prune
// entirely-dead subtrees. Once fewer than half of the points indexed at the
// last (re)build remain alive, the tree is rebuilt over the survivors, so a
// workload that deletes all n points pays O(n log n) total rebuild cost.
//
// It exists for the condensation construction of Figure 1, which repeatedly
// asks "k nearest among the records not yet grouped" and then removes the
// group it just formed.
type DynamicKDTree struct {
	points  []mat.Vector
	dim     int
	root    *dynNode
	nodes   []*dynNode // point index -> its node (nil once dead)
	alive   int
	rebuilt int // alive count at the last (re)build
}

// NewDynamicKDTree builds a deletable KD-tree over the given points. The
// points slice is retained (not copied); callers must not mutate it.
func NewDynamicKDTree(points []mat.Vector) (*DynamicKDTree, error) {
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
	t := &DynamicKDTree{
		points: points,
		dim:    dim,
		nodes:  make([]*dynNode, len(points)),
	}
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(idx, 0, nil)
	t.alive = len(points)
	t.rebuilt = len(points)
	return t, nil
}

// build recursively constructs a balanced subtree by median splits.
func (t *DynamicKDTree) build(idx []int, depth int, parent *dynNode) *dynNode {
	if len(idx) == 0 {
		return nil
	}
	axis := depth % t.dim
	sort.Slice(idx, func(a, b int) bool {
		return t.points[idx[a]][axis] < t.points[idx[b]][axis]
	})
	mid := len(idx) / 2
	node := &dynNode{idx: idx[mid], axis: axis, parent: parent, alive: len(idx)}
	t.nodes[idx[mid]] = node
	node.left = t.build(idx[:mid], depth+1, node)
	node.right = t.build(idx[mid+1:], depth+1, node)
	return node
}

// Len returns the number of live (undeleted) points.
func (t *DynamicKDTree) Len() int { return t.alive }

// Dim returns the dimensionality of the indexed points.
func (t *DynamicKDTree) Dim() int { return t.dim }

// Delete tombstones the point with the given index. Deleting an
// out-of-range or already-deleted index is an error. When fewer than half
// of the points present at the last rebuild remain, the tree is compacted.
func (t *DynamicKDTree) Delete(idx int) error {
	if idx < 0 || idx >= len(t.points) {
		return fmt.Errorf("knn: delete index %d out of range [0,%d)", idx, len(t.points))
	}
	node := t.nodes[idx]
	if node == nil {
		return fmt.Errorf("knn: point %d already deleted", idx)
	}
	node.dead = true
	t.nodes[idx] = nil
	for n := node; n != nil; n = n.parent {
		n.alive--
	}
	t.alive--
	if t.alive > 0 && t.alive*2 < t.rebuilt {
		t.rebuild()
	}
	return nil
}

// rebuild compacts the tree over the surviving points, preserving their
// original indices.
func (t *DynamicKDTree) rebuild() {
	idx := make([]int, 0, t.alive)
	for i, n := range t.nodes {
		if n != nil {
			idx = append(idx, i)
		}
	}
	for i := range t.nodes {
		t.nodes[i] = nil
	}
	t.root = t.build(idx, 0, nil)
	t.rebuilt = t.alive
}

// NearestAlive returns the k nearest live points to the query, ordered by
// ascending distance with ties broken by ascending point index. If fewer
// than k live points remain, all of them are returned.
func (t *DynamicKDTree) NearestAlive(query mat.Vector, k int) ([]Neighbor, error) {
	if len(query) != t.dim {
		return nil, fmt.Errorf("knn: query dimension %d, index dimension %d", len(query), t.dim)
	}
	if k < 1 {
		return nil, fmt.Errorf("knn: k = %d, must be ≥ 1", k)
	}
	if t.alive == 0 {
		return nil, fmt.Errorf("knn: all points deleted")
	}
	if k > t.alive {
		k = t.alive
	}
	h := make(neighborHeap, 0, k)
	t.search(t.root, query, k, &h)
	sortNeighbors(h)
	return h, nil
}

// search walks the tree, skipping tombstoned nodes as candidates, pruning
// subtrees with no live points, and pruning half-spaces that cannot beat
// the current k-th best distance.
func (t *DynamicKDTree) search(node *dynNode, query mat.Vector, k int, h *neighborHeap) {
	if node == nil || node.alive == 0 {
		return
	}
	p := t.points[node.idx]
	if !node.dead {
		h.offer(Neighbor{Index: node.idx, DistSq: kernel.DistSq(query, p)}, k)
	}
	diff := query[node.axis] - p[node.axis]
	near, far := node.left, node.right
	if diff > 0 {
		near, far = far, near
	}
	t.search(near, query, k, h)
	if len(*h) < k || diff*diff <= (*h)[0].DistSq {
		t.search(far, query, k, h)
	}
}
