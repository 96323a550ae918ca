// Package kernel holds the cache-blocked, bounds-check-eliminated distance
// kernels behind the condensation hot loops: one-query-vs-block
// squared-distance scans over a flat row-major []float64 coordinate arena
// (the knn.CentroidIndex arena layout), each fused with the reduction that
// every caller's lexicographic (distance, id) tie-break contract rests on
// — the argmin folds, and NearestK, the fused sweep + bounded top-k of the
// static condensation.
//
// Bit-identity contract: every float64 kernel accumulates each squared
// distance with a SINGLE accumulator in ascending index order — the exact
// operation order of mat.Vector.DistSq — so results are byte-identical to
// the scalar loops they replace. Unrolling only reorders the independent
// subtract/multiply steps, never the additions into the accumulator.
// Early-exit pruning abandons a row only when its partial sum already
// EXCEEDS the incumbent best (strictly); a monotone non-decreasing partial
// sum then proves the full distance exceeds it too, so no row that could
// win — or tie and win on id — is ever skipped, and the winner's distance
// is always the fully accumulated value.
//
// The package is dependency-free on purpose: callers pass mat.Vector
// values through the ~[]float64 generic constraints or as plain slices.
package kernel

import (
	"cmp"
	"math"
	"slices"
)

// DistSq returns the squared Euclidean distance between a and b,
// bit-identical to mat.Vector.DistSq. The slices must have equal length.
func DistSq(a, b []float64) float64 {
	if len(a) == 8 && len(b) == 8 {
		return distSq8(a, b)
	}
	return distSqGeneric(a, b)
}

// distSq8 is the fully unrolled dim-8 specialization (the benchmark and
// paper-experiment dimensionality). Single accumulator, ascending order.
func distSq8(a, b []float64) float64 {
	_ = a[7]
	_ = b[7]
	d0 := a[0] - b[0]
	s := d0 * d0
	d1 := a[1] - b[1]
	s += d1 * d1
	d2 := a[2] - b[2]
	s += d2 * d2
	d3 := a[3] - b[3]
	s += d3 * d3
	d4 := a[4] - b[4]
	s += d4 * d4
	d5 := a[5] - b[5]
	s += d5 * d5
	d6 := a[6] - b[6]
	s += d6 * d6
	d7 := a[7] - b[7]
	s += d7 * d7
	return s
}

// distSqGeneric is the any-dimension path, unrolled by four. The double
// bound in the loop condition lets the compiler drop the checks on both
// slices.
func distSqGeneric(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("kernel: dimension mismatch")
	}
	var s float64
	i := 0
	for ; i+3 < len(a) && i+3 < len(b); i += 4 {
		d0 := a[i] - b[i]
		s += d0 * d0
		d1 := a[i+1] - b[i+1]
		s += d1 * d1
		d2 := a[i+2] - b[i+2]
		s += d2 * d2
		d3 := a[i+3] - b[i+3]
		s += d3 * d3
	}
	for ; i < len(a) && i < len(b); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// distSqBound accumulates DistSq(a, b) but abandons once the partial sum
// strictly exceeds bound, returning (partial, false). When it returns
// (d, true), d is the bit-exact full distance. Abandoning on strict
// excess keeps exact ties alive for the caller's id tie-break.
func distSqBound(a, b []float64, bound float64) (float64, bool) {
	if len(a) != len(b) {
		panic("kernel: dimension mismatch")
	}
	var s float64
	i := 0
	for ; i+3 < len(a) && i+3 < len(b); i += 4 {
		d0 := a[i] - b[i]
		s += d0 * d0
		d1 := a[i+1] - b[i+1]
		s += d1 * d1
		d2 := a[i+2] - b[i+2]
		s += d2 * d2
		d3 := a[i+3] - b[i+3]
		s += d3 * d3
		if s > bound {
			return s, false
		}
	}
	for ; i < len(a) && i < len(b); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	if s > bound {
		return s, false
	}
	return s, true
}

// ArgminFlat scans the rows of a flat arena for the nearest row to q,
// returning (row, distance) with ties broken toward the lower row index —
// the same answer as a strict `<` ascending scan of the gathered points.
// Returns (-1, +Inf) for an empty arena. Rows whose partial sum exceeds
// the incumbent best are abandoned early; the winner's distance is always
// the full bit-exact accumulation.
func ArgminFlat[Q ~[]float64](q Q, block []float64) (int, float64) {
	bestID, bestD := -1, inf()
	d := len(q)
	rows := len(block) / d
	if len(block) != rows*d {
		panic("kernel: arena size mismatch")
	}
	if d == 8 {
		// Same hand-inlined form as ArgminFlatIDs; here row order is id
		// order, so an exact tie can never displace the incumbent and the
		// final strict `<` is the complete update condition.
		q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
		for i := 0; i < rows; i++ {
			r := block[i*8 : i*8+8]
			_ = r[7]
			d0 := r[0] - q0
			s := d0 * d0
			d1 := r[1] - q1
			s += d1 * d1
			d2 := r[2] - q2
			s += d2 * d2
			d3 := r[3] - q3
			s += d3 * d3
			if s > bestD {
				continue
			}
			d4 := r[4] - q4
			s += d4 * d4
			d5 := r[5] - q5
			s += d5 * d5
			d6 := r[6] - q6
			s += d6 * d6
			d7 := r[7] - q7
			s += d7 * d7
			if s < bestD {
				bestID, bestD = i, s
			}
		}
		return bestID, bestD
	}
	for i := 0; i < rows; i++ {
		dd, ok := distSqBound(block[i*d:i*d+d], q, bestD)
		if ok && dd < bestD {
			bestID, bestD = i, dd
		}
	}
	return bestID, bestD
}

// ArgminFlatIDs folds the rows of a flat arena into an incumbent
// (bestID, bestD) under the lexicographic (distance, id) order, with row
// i of block carrying external identity ids[i]. It is bit-identical to
//
//	for i, id := range ids {
//	    d := DistSq(q, row i)
//	    if d < bestD || (d == bestD && id < bestID) { bestID, bestD = id, d }
//	}
//
// and is the kernel behind the CentroidIndex leaf scan.
func ArgminFlatIDs[Q ~[]float64](q Q, block []float64, ids []int, bestID int, bestD float64) (int, float64) {
	d := len(q)
	if len(block) != len(ids)*d {
		panic("kernel: arena size mismatch")
	}
	if d == 8 {
		// Hand-inlined distSqBound with the query hoisted into locals:
		// at dim 8 the call boundary and the per-row query reloads are
		// the scan's dominant cost. One prune check at the halfway point.
		q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
		for i, id := range ids {
			r := block[i*8 : i*8+8]
			_ = r[7]
			d0 := r[0] - q0
			s := d0 * d0
			d1 := r[1] - q1
			s += d1 * d1
			d2 := r[2] - q2
			s += d2 * d2
			d3 := r[3] - q3
			s += d3 * d3
			if s > bestD {
				continue
			}
			d4 := r[4] - q4
			s += d4 * d4
			d5 := r[5] - q5
			s += d5 * d5
			d6 := r[6] - q6
			s += d6 * d6
			d7 := r[7] - q7
			s += d7 * d7
			if s < bestD || (s == bestD && id < bestID) {
				bestID, bestD = id, s
			}
		}
		return bestID, bestD
	}
	for i, id := range ids {
		dd, ok := distSqBound(block[i*d:i*d+d], q, bestD)
		if !ok {
			continue
		}
		if dd < bestD || (dd == bestD && id < bestID) {
			bestID, bestD = id, dd
		}
	}
	return bestID, bestD
}

// ArgminIndexed is the gather form of ArgminFlatIDs for point sets that
// are not arena-backed (dirty lists, leftover centroids): it folds
// points[ids[i]] with identity ids[i] into the incumbent under the same
// lexicographic (distance, id) order.
func ArgminIndexed[Q ~[]float64, S ~[]float64](q Q, points []S, ids []int, bestID int, bestD float64) (int, float64) {
	for _, id := range ids {
		dd, ok := distSqBound(points[id], q, bestD)
		if !ok {
			continue
		}
		if dd < bestD || (dd == bestD && id < bestID) {
			bestID, bestD = id, dd
		}
	}
	return bestID, bestD
}

// Neighbor is one candidate of a bounded nearest-k search: the squared
// distance to the query, the row's tie-breaking identity, and the row's
// position in the caller's arena.
type Neighbor struct {
	Dist float64
	ID   int
	Pos  int
}

// before is the lexicographic (distance, id) order every nearest-k caller
// shares.
func (a Neighbor) before(b Neighbor) bool {
	return a.Dist < b.Dist || (a.Dist == b.Dist && a.ID < b.ID)
}

// NearestK folds the rows of a flat arena into heap, a max-heap (worst key
// at heap[0]) of at most k neighbours under the (distance, id) order. Row i
// of block carries identity ids[i] and is recorded at position base+i.
// Once the heap is full a row enters only if it comes strictly before the
// worst key — d < worstD, or d == worstD and id < worstID — so folding any
// split of the rows, in any order, into per-chunk heaps and keeping the k
// smallest of their union yields exactly the k smallest keys. The heap is
// caller-owned; with cap(heap) ≥ k the call allocates nothing. Rows whose
// partial sum already exceeds the worst distance are abandoned early, as
// in ArgminFlatIDs, and every kept distance is the full bit-exact value.
func NearestK[Q ~[]float64](heap []Neighbor, q Q, block []float64, ids []int, base, k int) []Neighbor {
	d := len(q)
	if len(block) != len(ids)*d {
		panic("kernel: arena size mismatch")
	}
	i := 0
	for ; i < len(ids) && len(heap) < k; i++ {
		heap = append(heap, Neighbor{DistSq(block[i*d:i*d+d], q), ids[i], base + i})
		siftUp(heap)
	}
	if i == len(ids) {
		return heap
	}
	worstD, worstID := heap[0].Dist, heap[0].ID
	if d == 8 {
		// Hand-inlined distSqBound with the query hoisted into locals and
		// one prune check at the halfway point, as in ArgminFlatIDs.
		q0, q1, q2, q3, q4, q5, q6, q7 := q[0], q[1], q[2], q[3], q[4], q[5], q[6], q[7]
		for ; i < len(ids); i++ {
			r := block[i*8 : i*8+8]
			_ = r[7]
			d0 := r[0] - q0
			s := d0 * d0
			d1 := r[1] - q1
			s += d1 * d1
			d2 := r[2] - q2
			s += d2 * d2
			d3 := r[3] - q3
			s += d3 * d3
			if s > worstD {
				continue
			}
			d4 := r[4] - q4
			s += d4 * d4
			d5 := r[5] - q5
			s += d5 * d5
			d6 := r[6] - q6
			s += d6 * d6
			d7 := r[7] - q7
			s += d7 * d7
			if id := ids[i]; s < worstD || (s == worstD && id < worstID) {
				heap[0] = Neighbor{s, id, base + i}
				siftDown(heap)
				worstD, worstID = heap[0].Dist, heap[0].ID
			}
		}
		return heap
	}
	for ; i < len(ids); i++ {
		s, ok := distSqBound(block[i*d:i*d+d], q, worstD)
		if !ok {
			continue
		}
		if id := ids[i]; s < worstD || (s == worstD && id < worstID) {
			heap[0] = Neighbor{s, id, base + i}
			siftDown(heap)
			worstD, worstID = heap[0].Dist, heap[0].ID
		}
	}
	return heap
}

// SortNeighbors orders ns ascending under the (distance, id) order — the
// final step after NearestK, and the merge of several per-chunk heaps.
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// siftUp restores the max-heap after an append at the end of h.
func siftUp(h []Neighbor) {
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[p].before(h[i]) {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the max-heap after h[0] was replaced.
func siftDown(h []Neighbor) {
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[c].before(h[r]) {
			c = r
		}
		if !h[i].before(h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// inf is the fold identity for argmin incumbents.
func inf() float64 {
	return math.Inf(1)
}
