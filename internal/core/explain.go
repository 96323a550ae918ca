package core

import (
	"sort"

	"condensation/internal/mat"
	"condensation/internal/stats"
)

// This file is the engine's explainability surface: per-group lifecycle
// diagnostics (GroupInfos, GroupByID) and the routing dry-run (Explain).
// Everything here is strictly read-only — no method mutates groups,
// centroids, routers, the rng stream, counters, or shared scratch — so the
// whole surface is safe under a read lock concurrent with other readers,
// and calling it any number of times leaves checkpoint bytes untouched.

// Explain outcomes: what ingesting the explained record would do.
const (
	// ExplainAbsorb: the record would be absorbed by the nearest group.
	ExplainAbsorb = "absorb"
	// ExplainSplit: absorbing the record would bring the nearest group to
	// 2k records and trigger the paper's split.
	ExplainSplit = "split"
	// ExplainFound: the engine (or the record's shard) holds no groups yet,
	// so the record would found the first one.
	ExplainFound = "found"
)

// explainDefaultTop is the candidate count Explain reports when the caller
// does not ask for a specific one.
const explainDefaultTop = 5

// GroupInfo is one group's lifecycle summary, computed from the retained
// moments and the observe-only birth annotations alone.
type GroupInfo struct {
	// ID is the group's stable engine-wide id (see groupIDShardShift).
	ID uint64 `json:"id"`
	// Shard is the engine shard holding the group.
	Shard int `json:"shard"`
	// Size is n(G), the number of condensed records.
	Size int `json:"size"`
	// BirthGeneration is the mutation generation the group was born at
	// (0 for groups seeded from an initial condensation or checkpoint).
	BirthGeneration uint64 `json:"birth_generation"`
	// Parent is the id of the split parent the group was born from, or 0
	// for founded and initial groups.
	Parent uint64 `json:"parent,omitempty"`
	// CentroidDrift is the Euclidean distance between the group's current
	// centroid and its centroid at birth — how far absorbed records have
	// dragged the group since it was created.
	CentroidDrift float64 `json:"centroid_drift"`
}

// GroupDetail extends GroupInfo with the group's centroids and covariance
// conditioning for the per-group diagnostics endpoint.
type GroupDetail struct {
	GroupInfo
	// Centroid is the group's current centroid Y(G).
	Centroid mat.Vector `json:"centroid"`
	// BirthCentroid is the centroid at the group's birth.
	BirthCentroid mat.Vector `json:"birth_centroid"`
	// CondNumber is the covariance condition number λmax/λmin, the same
	// convention the audit uses; 0 when Degenerate.
	CondNumber float64 `json:"condition_number,omitempty"`
	// Degenerate reports a covariance with a non-positive extreme
	// eigenvalue (singleton groups, collapsed attributes), for which the
	// condition number is undefined.
	Degenerate bool `json:"degenerate"`
}

// ExplainCandidate is one nearest-centroid candidate of a routing dry-run.
type ExplainCandidate struct {
	// ID is the candidate group's stable id.
	ID uint64 `json:"id"`
	// DistanceSq is the exact float64 squared Euclidean distance from the
	// explained record to the candidate's centroid — the quantity routing
	// minimizes.
	DistanceSq float64 `json:"distance_sq"`
	// Size is the candidate's current record count.
	Size int `json:"size"`
}

// Explanation is the result of a routing dry-run: where a record would go
// and what would happen to it, computed without ingesting it.
type Explanation struct {
	// Shard is the shard the record routes to.
	Shard int `json:"shard"`
	// Generation is the mutation generation the dry-run observed; the
	// explanation is exact for this state.
	Generation uint64 `json:"generation"`
	// Groups is the group count of the routed shard.
	Groups int `json:"groups"`
	// Outcome is one of the Explain* constants.
	Outcome string `json:"outcome"`
	// Routed is the winning candidate — the exact lexicographic
	// (distance, id) minimum every router backend agrees on. Nil when the
	// outcome is ExplainFound.
	Routed *ExplainCandidate `json:"routed,omitempty"`
	// Candidates are the top-M nearest groups in exact (distance, id)
	// order; Candidates[0] equals *Routed.
	Candidates []ExplainCandidate `json:"candidates,omitempty"`
}

// groupInfoAt summarizes group slot i. Read-only; caller holds the lock.
func (d *dynamic) groupInfoAt(i int, g *stats.Group) GroupInfo {
	b := d.births[i]
	return GroupInfo{
		ID:              d.ids[i],
		Shard:           d.shardIndex,
		Size:            g.N(),
		BirthGeneration: b.gen,
		Parent:          b.parent,
		CentroidDrift:   d.centroids[i].Dist(b.centroid),
	}
}

// appendGroupInfos appends every group's summary to buf in slot order.
func (d *dynamic) appendGroupInfos(buf []GroupInfo) []GroupInfo {
	for i, g := range d.groups {
		buf = append(buf, d.groupInfoAt(i, g))
	}
	return buf
}

// GroupByID returns the diagnostics detail of the live group with the
// given stable id. The lookup is a linear scan over the group slots —
// diagnostics cadence, not serving cadence. Pure read; the eigensolve
// uses fresh workspaces, never the engine's split scratch.
func (d *dynamic) GroupByID(id uint64) (GroupDetail, bool) {
	for i := range d.ids {
		if d.ids[i] == id {
			return d.groupDetailAt(i), true
		}
	}
	return GroupDetail{}, false
}

// groupDetailAt builds the detail view of group slot i.
func (d *dynamic) groupDetailAt(i int) GroupDetail {
	g := d.groups[i]
	det := GroupDetail{
		GroupInfo:     d.groupInfoAt(i, g),
		Centroid:      d.centroids[i].Clone(),
		BirthCentroid: d.births[i].centroid.Clone(),
	}
	eig, err := g.Eigen()
	if err != nil {
		det.Degenerate = true
		return det
	}
	// The audit's convention: eigenvalues sorted descending, condition
	// number defined only when both extremes are strictly positive.
	lmax := eig.Values[0]
	lmin := eig.Values[len(eig.Values)-1]
	if lmin <= 0 || lmax <= 0 {
		det.Degenerate = true
		return det
	}
	det.CondNumber = lmax / lmin
	return det
}

// Explain dry-runs routing one record: it reports the top candidate groups
// in the exact (squared distance, id) order every router backend produces,
// and the outcome ingesting the record would have — absorb, split (the
// nearest group sits at 2k−1), or found (no groups yet). top ≤ 0 asks for
// the default candidate count.
//
// The dry-run is strictly side-effect-free: it scans the engine's centroid
// cache directly instead of going through the router (whose sampled stage
// timing advances a counter), mutates nothing, and draws nothing from the
// rng stream — so checkpoint bytes and condensed output are bit-identical
// whether Explain was called or not. Callers sharing the engine across
// goroutines need only a read lock.
func (d *dynamic) Explain(x mat.Vector, top int) *Explanation {
	if top <= 0 {
		top = explainDefaultTop
	}
	ex := &Explanation{Shard: d.shardIndex, Generation: d.lastMut, Groups: len(d.groups)}
	if len(d.groups) == 0 {
		ex.Outcome = ExplainFound
		return ex
	}

	type slotDist struct {
		slot int
		d2   float64
	}
	order := make([]slotDist, len(d.centroids))
	for i, c := range d.centroids {
		order[i] = slotDist{slot: i, d2: x.DistSq(c)}
	}
	// The routers' lexicographic (squared distance, slot) minimum, extended
	// to a total order so Candidates[0] is exactly where Add would route.
	sort.Slice(order, func(a, b int) bool {
		if order[a].d2 != order[b].d2 {
			return order[a].d2 < order[b].d2
		}
		return order[a].slot < order[b].slot
	})
	if top > len(order) {
		top = len(order)
	}
	ex.Candidates = make([]ExplainCandidate, top)
	for i := 0; i < top; i++ {
		s := order[i]
		ex.Candidates[i] = ExplainCandidate{
			ID:         d.ids[s.slot],
			DistanceSq: s.d2,
			Size:       d.groups[s.slot].N(),
		}
	}
	routed := ex.Candidates[0]
	ex.Routed = &routed
	if d.groups[order[0].slot].N()+1 == 2*d.k {
		ex.Outcome = ExplainSplit
	} else {
		ex.Outcome = ExplainAbsorb
	}
	return ex
}

// GroupInfos appends every shard's group summaries to buf (resliced to
// zero length first) in shard-then-slot order, each shard read under its
// own read lock.
func (s *Sharded) GroupInfos(buf []GroupInfo) []GroupInfo {
	buf = buf[:0]
	for _, sh := range s.shards {
		sh.mu.RLock()
		buf = sh.dyn.appendGroupInfos(buf)
		sh.mu.RUnlock()
	}
	return buf
}

// GroupByID returns the detail of the live group with the given id. The
// owning shard is recovered from the id's base bits, so only that shard's
// read lock is taken.
func (s *Sharded) GroupByID(id uint64) (GroupDetail, bool) {
	i := int(id >> groupIDShardShift)
	if i < 0 || i >= len(s.shards) {
		return GroupDetail{}, false
	}
	sh := s.shards[i]
	sh.mu.RLock()
	det, ok := sh.dyn.GroupByID(id)
	sh.mu.RUnlock()
	return det, ok
}

// Explain dry-runs routing one record: the record's shard is resolved by
// the same stable hash ingestion uses, and the dry-run runs under that
// shard's read lock — strictly side-effect-free, concurrent with ingest on
// every other shard.
func (s *Sharded) Explain(x mat.Vector, top int) (*Explanation, error) {
	if err := validateRecord(x, s.dim); err != nil {
		return nil, err
	}
	sh := s.shards[s.shardOf(x)]
	sh.mu.RLock()
	ex := sh.dyn.Explain(x, top)
	sh.mu.RUnlock()
	return ex, nil
}
