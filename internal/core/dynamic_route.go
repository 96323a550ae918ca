package core

import (
	"fmt"

	"condensation/internal/kernel"
	"condensation/internal/knn"
	"condensation/internal/mat"
	"condensation/internal/telemetry"
)

// dynamicIndexCutoff is the group count at which dynamic routing stops
// scanning centroids linearly and switches to the maintained kd-index:
// below it the scan's tight loop wins, above it the index's pruned descent
// does (BenchmarkDynamicAddAll: at G=800 on correlated d=8 data the scan
// cost 4623 ns/record against the index's 1632, 2 vCPU). The true
// crossover depends on how correlated the data is — a few hundred groups
// when attributes are correlated (the regime the paper targets), higher
// for isotropic noise where box pruning is weakest — so the cutoff splits
// the difference. The engine picks the router from its own group count;
// nothing else selects it. The switch is behaviour-neutral — both routers
// are exact with the same (distance, id) tie-break — so the cutoff is
// purely a speed constant.
const dynamicIndexCutoff = 256

// centroidRouter answers "which group centroid is nearest to x" for the
// dynamic engine. Implementations must be exact and deterministic: nearest
// returns the lexicographic (squared distance, group id) minimum — the
// answer the paper's linear scan over H produces — so every router routes
// every record identically and the condensed statistics are bit-identical
// across backends. update/add keep the router in sync with the engine's
// in-place centroid cache.
type centroidRouter interface {
	// nearest returns the nearest centroid's group id and squared
	// distance. The engine never calls it with zero groups.
	nearest(x mat.Vector) (int, float64)
	// update tells the router centroid id moved (d.centroids[id] holds
	// the new position).
	update(id int)
	// add tells the router centroid id was appended.
	add(id int)
	// label names the backend for the neighbor_search telemetry series.
	label() string
}

// scanRouter is the reference backend: the paper's linear scan over the
// group centroids, kept as a flat row-major arena so nearest is one
// contiguous kernel sweep (O(G·d), no pointer chasing). update and add
// mirror the engine's in-place centroid cache into the arena.
type scanRouter struct {
	d     *dynamic
	arena []float64 // row i = d.centroids[i], kept current
}

func newScanRouter(d *dynamic) *scanRouter {
	s := &scanRouter{d: d, arena: make([]float64, 0, len(d.centroids)*d.dim)}
	for _, c := range d.centroids {
		s.arena = append(s.arena, c...)
	}
	return s
}

func (s *scanRouter) nearest(x mat.Vector) (int, float64) {
	return kernel.ArgminFlat(x, s.arena)
}

func (s *scanRouter) update(id int) {
	copy(s.arena[id*s.d.dim:(id+1)*s.d.dim], s.d.centroids[id])
}

func (s *scanRouter) add(id int) {
	s.arena = append(s.arena, s.d.centroids[id]...)
}

func (*scanRouter) label() string { return "centroid-scan" }

// kdRouter answers queries from a knn.CentroidIndex: a kd-tree over a
// centroid snapshot plus a linear "drifted since snapshot" list, rebuilt
// when the list outgrows its threshold. Exactness and the (distance, id)
// tie-break are the index's contract, proven against the scan by
// TestCentroidIndexMatchesScan and TestAddBatchEquivalence.
type kdRouter struct {
	d   *dynamic
	idx *knn.CentroidIndex
}

func newKDRouter(d *dynamic) *kdRouter {
	idx, err := knn.NewCentroidIndex(d.dim, d.centroids)
	if err != nil {
		// Unreachable: the engine validated every centroid's dimension.
		panic(fmt.Sprintf("core: building centroid index: %v", err))
	}
	return &kdRouter{d: d, idx: idx}
}

func (k *kdRouter) nearest(x mat.Vector) (int, float64) { return k.idx.Nearest(x) }

func (k *kdRouter) update(id int) {
	if err := k.idx.Update(id, k.d.centroids[id]); err != nil {
		// Unreachable: ids are dense and dimensions fixed.
		panic(fmt.Sprintf("core: centroid index update: %v", err))
	}
}

func (k *kdRouter) add(id int) {
	if _, err := k.idx.Add(k.d.centroids[id]); err != nil {
		panic(fmt.Sprintf("core: centroid index add: %v", err))
	}
}

func (*kdRouter) label() string { return "centroid-kdtree" }

// initRouter builds the router for the current group count: the scan
// below dynamicIndexCutoff groups, the kd-index at or above it.
func (d *dynamic) initRouter() {
	if len(d.groups) >= dynamicIndexCutoff {
		d.router = newKDRouter(d)
	} else {
		d.router = newScanRouter(d)
	}
	d.met.withSearchBackend(d.tel, d.router.label(), d.telLabels...)
}

// maybePromote upgrades the scan router to the kd-index once the group
// count reaches the cutoff. Called after every group append; both routers
// are exact, so promotion never changes routing.
func (d *dynamic) maybePromote() {
	if len(d.groups) < dynamicIndexCutoff {
		return
	}
	if _, isScan := d.router.(*scanRouter); isScan {
		d.router = newKDRouter(d)
		d.met.withSearchBackend(d.tel, d.router.label(), d.telLabels...)
		if d.jr != nil {
			d.jr.Record(telemetry.JournalEvent{
				Type:       telemetry.EventIndexRebuild,
				Shard:      d.shardIndex,
				Generation: d.lastMut,
				Detail:     fmt.Sprintf("auto-promoted scan to %s at %d groups", d.router.label(), len(d.groups)),
			})
		}
	}
}
