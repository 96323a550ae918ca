package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"condensation/internal/kernel"
	"condensation/internal/mat"
	"condensation/internal/par"
	"condensation/internal/rng"
	"condensation/internal/stats"
	"condensation/internal/telemetry"
)

// Static runs the CreateCondensedGroups algorithm of Figure 1 on the full
// set of records: while at least k records remain, sample one uniformly at
// random, gather its k−1 nearest remaining neighbours into a group, record
// the group's aggregate statistics, and delete the group's records.
// Remaining records (between 1 and k−1 of them) are folded into the group
// with the nearest centroid, so a few groups may hold more than k records.
//
// The records slice is not modified. Passing k = 1 produces one group per
// record, in which case synthesis reproduces each record exactly — the
// paper's group-size-1 anchor where static condensation equals the
// original data.
//
// Deprecated: use the Condenser facade — NewCondenser(k, WithSeed(s),
// ...).Static(records) — which also exposes the parallelism of the
// distance sweep.
func Static(records []mat.Vector, k int, r *rng.Source, opts Options) (*Condensation, error) {
	cond, _, err := staticCondense(context.Background(), records, k, r, opts, 0, nil, nil)
	return cond, err
}

// StaticWithMembers is Static, additionally reporting which original
// records each group condensed: members[g] lists the record indices of
// group g. The membership map is exactly what a condensation deployment
// must *not* publish; it is exposed for privacy evaluation (re-
// identification attacks need the ground truth) and for tests.
//
// Deprecated: use NewCondenser(k, ...).StaticWithMembers(records).
func StaticWithMembers(records []mat.Vector, k int, r *rng.Source, opts Options) (*Condensation, [][]int, error) {
	return staticCondense(context.Background(), records, k, r, opts, 0, nil, nil)
}

// staticCondense is the engine behind Static and Condenser.Static. Per
// group it draws exactly one value from r (the seed-record sample) and
// takes the k−1 nearest remaining records under the (distance, record
// index) order, so it forms the same groups as the paper's full
// scan-and-sort, members added in ascending-distance order. parallelism
// bounds the distance sweep's workers and becomes the condensation's
// synthesis parallelism (values < 1 mean runtime.NumCPU()).
//
// ctx is consulted only for a parent trace span; cancellation is not
// checked (the static construction is one uninterruptible pass).
func staticCondense(ctx context.Context, records []mat.Vector, k int, r *rng.Source, opts Options, parallelism int, tel *telemetry.Registry, tr *telemetry.Tracer) (*Condensation, [][]int, error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	if k < 1 {
		return nil, nil, fmt.Errorf("core: indistinguishability level k = %d, must be ≥ 1", k)
	}
	if r == nil {
		return nil, nil, errors.New("core: nil random source")
	}
	if len(records) == 0 {
		return nil, nil, errors.New("core: no records to condense")
	}
	dim := len(records[0])
	for i, x := range records {
		if err := validateRecord(x, dim); err != nil {
			return nil, nil, fmt.Errorf("core: record %d: %w", i, err)
		}
	}

	met := newEngineMetrics(tel)
	met.withSearchBackend(tel, "scan")

	_, span := tr.Start(ctx, "static.condense")
	span.SetAttrInt("records", len(records))
	span.SetAttrInt("k", k)
	span.SetAttr("backend", "scan")
	defer span.End()

	// k = 1 needs no neighbour search: every record is its own group. This
	// is the paper's anchor case (static condensation at group size 1
	// equals the original data) and deserves the O(n) fast path.
	if k == 1 {
		groups := make([]*stats.Group, len(records))
		members := make([][]int, len(records))
		for i, x := range records {
			g := stats.NewGroup(dim)
			if err := g.Add(x); err != nil {
				return nil, nil, err
			}
			groups[i] = g
			members[i] = []int{i}
		}
		met.groupsFormed.Add(len(groups))
		cond := newCondensation(dim, k, opts, groups)
		cond.par = parallelism
		cond.met = met
		return cond, members, nil
	}

	search := newScanSearcher(records, dim, par.Workers(parallelism))

	var groups []*stats.Group
	var members [][]int
	var t0 time.Time
	loopSpan := childSpan(tr, span, "static.groups")
	for search.remaining() >= k {
		// Randomly sample a data point X from D, then pull X and its k−1
		// closest remaining records out of the alive set.
		pick := r.IntN(search.remaining())
		if met.enabled {
			t0 = time.Now()
		}
		group := search.takeGroup(pick, k)
		if met.enabled {
			met.search.ObserveSince(t0)
			t0 = time.Now()
		}
		g := stats.NewGroup(dim)
		for _, idx := range group {
			if err := g.Add(records[idx]); err != nil {
				return nil, nil, fmt.Errorf("core: adding record to group: %w", err)
			}
		}
		if met.enabled {
			met.stats.ObserveSince(t0)
		}
		met.groupsFormed.Inc()
		groups = append(groups, g)
		members = append(members, group)
	}
	loopSpan.SetAttrInt("groups", len(groups))
	loopSpan.End()

	// Handle the final < k leftover records.
	if leftover := search.leftover(); len(leftover) > 0 {
		leftSpan := childSpan(tr, span, "static.leftover")
		leftSpan.SetAttrInt("records", len(leftover))
		defer leftSpan.End()
		switch opts.Leftover {
		case LeftoverNearestGroup:
			if len(groups) == 0 {
				// Fewer than k records in total: the best available option
				// is a single undersized group (the caller asked for an
				// indistinguishability level the data cannot support).
				g := stats.NewGroup(dim)
				for _, idx := range leftover {
					if err := g.Add(records[idx]); err != nil {
						return nil, nil, err
					}
				}
				groups = append(groups, g)
				members = append(members, leftover)
				break
			}
			// Group centroids are snapshotted once into a flat arena (they
			// are deliberately not refreshed as leftovers merge in), so
			// each leftover record is one kernel argmin sweep.
			centroids := make([]float64, 0, len(groups)*dim)
			for _, g := range groups {
				m, err := g.Mean()
				if err != nil {
					return nil, nil, err
				}
				centroids = append(centroids, m...)
			}
			for _, idx := range leftover {
				best, _ := kernel.ArgminFlat(records[idx], centroids)
				if err := groups[best].Add(records[idx]); err != nil {
					return nil, nil, err
				}
				members[best] = append(members[best], idx)
			}
			met.leftovers.Add(len(leftover))
		case LeftoverOwnGroup:
			g := stats.NewGroup(dim)
			for _, idx := range leftover {
				if err := g.Add(records[idx]); err != nil {
					return nil, nil, err
				}
			}
			groups = append(groups, g)
			members = append(members, leftover)
		}
	}

	// The sweep parallelism doubles as the synthesis parallelism of the
	// resulting condensation — one knob end to end.
	cond := newCondensation(dim, k, opts, groups)
	cond.par = parallelism
	cond.met = met
	return cond, members, nil
}

// parallelSweepCutoff is the remaining-set size below which the static
// nearest-k sweep stays single-threaded: under ~8k distances the goroutine
// fan-out costs more than it saves.
const parallelSweepCutoff = 8192

// newScanSearcher builds the alive-set bookkeeping of the static
// construction over records of the given dimensionality.
func newScanSearcher(records []mat.Vector, dim, workers int) *scanSearcher {
	// alive holds indices of records not yet assigned to a group. Removal
	// is swap-delete, so order is not preserved — grouping is randomized by
	// the sampling step anyway. The arena mirrors the alive set row for
	// row: arena row i holds the coordinates of record alive[i], so the
	// kernel sweeps run over contiguous memory instead of gathering
	// through the records slice. Swap-deletes move rows in lockstep with
	// alive.
	alive := make([]int, len(records))
	arena := make([]float64, len(records)*dim)
	for i, x := range records {
		alive[i] = i
		copy(arena[i*dim:(i+1)*dim], x)
	}
	return &scanSearcher{
		dim:     dim,
		arena:   arena,
		alive:   alive,
		workers: workers,
		chosen:  make([]int, 0, len(records)),
	}
}

// scanSearcher finds neighbours by one fused pass over the alive set that
// computes distances and keeps a bounded top-k heap — in parallel chunks,
// one heap per worker, when the set is large. The heaps and the merge
// buffer are allocated once and reused across groups.
type scanSearcher struct {
	dim     int
	arena   []float64 // flat row-major coordinates, row i = record alive[i]
	alive   []int
	workers int

	heaps  [][]kernel.Neighbor // one bounded top-k heap per sweep chunk
	merged []kernel.Neighbor   // the chunks' candidates, sorted
	chosen []int               // alive positions picked for the current group
}

// remaining returns the number of not-yet-grouped records.
func (s *scanSearcher) remaining() int { return len(s.alive) }

// takeGroup removes the record at alive position pick plus its k−1
// nearest surviving records and returns their record indices in
// ascending-distance order (the seed record first).
func (s *scanSearcher) takeGroup(pick, k int) []int {
	seed := s.arena[pick*s.dim : (pick+1)*s.dim]
	nearest := s.nearest(seed, k)

	// The seed itself has distance 0 and comes first, unless an exact
	// duplicate with a lower record index precedes it.
	group := make([]int, k)
	s.chosen = s.chosen[:0]
	for i, nb := range nearest {
		group[i] = nb.ID
		s.chosen = append(s.chosen, nb.Pos)
	}

	// Delete the k chosen records from the alive set (descending positions
	// so swap-delete does not disturb pending positions).
	sort.Sort(sort.Reverse(sort.IntSlice(s.chosen)))
	for _, pos := range s.chosen {
		last := len(s.alive) - 1
		s.alive[pos] = s.alive[last]
		copy(s.arena[pos*s.dim:(pos+1)*s.dim], s.arena[last*s.dim:(last+1)*s.dim])
		s.alive = s.alive[:last]
	}
	return group
}

// nearest returns the k alive rows with the smallest (distance to seed,
// record index) keys, ascending. Large alive sets are split into at most
// s.workers chunks, each folded into its own heap by kernel.NearestK; the
// k smallest of the union of the chunk heaps are the global k smallest,
// because the key order is total.
func (s *scanSearcher) nearest(seed []float64, k int) []kernel.Neighbor {
	n, dim := len(s.alive), s.dim
	chunk := n
	if s.workers > 1 && n >= parallelSweepCutoff {
		chunk = (n + s.workers - 1) / s.workers
	}
	chunks := (n + chunk - 1) / chunk
	for len(s.heaps) < chunks {
		s.heaps = append(s.heaps, make([]kernel.Neighbor, 0, k))
	}
	sweep := func(c int) {
		lo := c * chunk
		hi := min(lo+chunk, n)
		s.heaps[c] = kernel.NearestK(s.heaps[c][:0], seed, s.arena[lo*dim:hi*dim], s.alive[lo:hi], lo, k)
	}
	if chunks == 1 {
		sweep(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < chunks; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				sweep(c)
			}(c)
		}
		wg.Wait()
	}
	s.merged = s.merged[:0]
	for _, h := range s.heaps[:chunks] {
		s.merged = append(s.merged, h...)
	}
	kernel.SortNeighbors(s.merged)
	return s.merged[:k]
}

// leftover removes and returns the record indices still alive, in
// alive-set order.
func (s *scanSearcher) leftover() []int {
	out := append([]int(nil), s.alive...)
	s.alive = s.alive[:0]
	return out
}
