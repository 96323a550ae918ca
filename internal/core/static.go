package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"condensation/internal/kernel"
	"condensation/internal/mat"
	"condensation/internal/par"
	"condensation/internal/rng"
	"condensation/internal/stats"
)

// staticCondense runs the CreateCondensedGroups algorithm of Figure 1 on
// the full set of records with c's k, options, parallelism, telemetry and
// tracer, drawing from r: while at least k records remain, sample one
// uniformly at random, gather its k−1 nearest remaining neighbours into a
// group, record the group's aggregate statistics, and delete the group's
// records. Remaining records (between 1 and k−1 of them) are folded into
// the group with the nearest centroid, so a few groups may hold more than
// k records. members[g] lists the record indices of group g.
//
// Per group it draws exactly one value from r (the seed-record sample)
// and takes the k−1 nearest remaining records under the (distance, record
// index) order, so it forms the same groups as the paper's full
// scan-and-sort, members added in ascending-distance order. Which exact
// search answers the queries — the projection window or the sweep — is
// the engine's choice (see staticSearch) and never changes a group. The
// parallelism bounds the sweep's workers and becomes the condensation's
// synthesis parallelism (values < 1 mean runtime.NumCPU()).
//
// The records slice is not modified. k = 1 produces one group per
// record, in which case synthesis reproduces each record exactly — the
// paper's group-size-1 anchor where static condensation equals the
// original data.
func staticCondense(c *Condenser, records []mat.Vector, r *rng.Source) (*Condensation, [][]int, error) {
	return staticCondensePath(c, records, r, pathAuto)
}

// staticCondensePath is staticCondense on the given search path.
func staticCondensePath(c *Condenser, records []mat.Vector, r *rng.Source, path searchPath) (*Condensation, [][]int, error) {
	if len(records) == 0 {
		return nil, nil, errors.New("core: no records to condense")
	}
	k := c.k
	dim := len(records[0])
	for i, x := range records {
		if err := validateRecord(x, dim); err != nil {
			return nil, nil, fmt.Errorf("core: record %d: %w", i, err)
		}
	}

	met := newEngineMetrics(c.tel)

	span := c.trace.StartChild(nil, "static.condense")
	span.SetAttrInt("records", len(records))
	span.SetAttrInt("k", k)
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
		cond := newCondensation(dim, k, c.opts, groups)
		cond.par = c.par
		cond.met = met
		return cond, members, nil
	}

	search := newStaticSearch(records, dim, k, par.Workers(c.par), path)
	met.withSearchBackend(c.tel, search.backend())

	var groups []*stats.Group
	var members [][]int
	var t0 time.Time
	loopSpan := childSpan(c.trace, span, "static.groups")
	for search.remaining() >= k {
		// Randomly sample a data point X from D, then pull X and its k−1
		// closest remaining records out of the alive set.
		pick := r.IntN(search.remaining())
		if met.enabled {
			t0 = time.Now()
		}
		group, handedOff := search.takeGroup(pick, k)
		if met.enabled {
			met.search.ObserveSince(t0)
			if handedOff {
				met.withSearchBackend(c.tel, search.backend())
			}
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
	span.SetAttr("backend", search.backend())
	span.SetAttrInt("window_queries", search.queries)
	span.SetAttrInt("rows_visited", search.visited)

	// Handle the final < k leftover records.
	if leftover := search.leftover(); len(leftover) > 0 {
		leftSpan := childSpan(c.trace, span, "static.leftover")
		leftSpan.SetAttrInt("records", len(leftover))
		defer leftSpan.End()
		switch c.opts.Leftover {
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
	cond := newCondensation(dim, k, c.opts, groups)
	cond.par = c.par
	cond.met = met
	return cond, members, nil
}

// searchPath selects the static search path. staticCondense always lets
// the engine choose; tests force a path through staticCondensePath.
type searchPath int

const (
	pathAuto    searchPath = iota // window on large classes, sweep if it visits too much
	pathScan                      // the sweep from the first group on
	pathWindow                    // the window to the end, never handing off
	pathHandOff                   // the window for windowProbeQueries groups, then the sweep
)

// The window path's tuning. A class of at least windowMinRecords records
// starts on the projection window. After windowProbeQueries queries the
// engine reads one signal: the rows the window handed to the kernel as a
// fraction f of the live rows a sweep would have read for the same
// queries. It hands off to the sweep for good once f·w·c > 1, where w is
// the sweep's workers (one below parallelSweepCutoff live rows). c =
// windowRowCost folds in two measured effects: a window row costs 1.08
// to 1.13 sweep rows (i.i.d. d = 8, one worker, where the window reads
// nearly every row), and f grows 1.4 to 1.6 times after the probe, which
// sees no tombstones yet while the arena carries up to half dead rows
// between compactions (mean overhead 2 ln 2); 1.5 sits near the low end
// of the product, leaning to the window. On correlated data f is about a
// tenth, on i.i.d. d = 8 data 0.6 to 0.8 (DESIGN.md §6b). When Anonymize
// condenses classes at once their sweeps share the CPUs, so w overstates
// the sweep's speed and the rule leans to the sweep.
const (
	windowMinRecords   = 4096
	windowProbeQueries = 8
	windowMaxSlab      = 1024
	windowRowCost      = 1.5
)

// staticSearch is the exact nearest-k search behind Figure 1's loop. It
// runs one of two paths that both return the k smallest (distance, record
// index) keys, so the choice between them never changes a group:
//
//   - the projection window (windowSearcher), which reads only the rows
//     whose projection on the class's principal axis is close enough to
//     the seed's to hold a neighbour;
//   - the sweep (scanSearcher), which reads every remaining row.
//
// Both keep the same swap-delete alive list, which the seed draw
// r.IntN(remaining) indexes, so the same seed records are drawn whichever
// path runs and wherever the hand-off happens.
type staticSearch struct {
	win  *windowSearcher // non-nil while the window path runs
	scan *scanSearcher   // non-nil once the sweep runs

	records []mat.Vector
	dim     int
	workers int
	path    searchPath

	// visited counts the rows handed to the distance kernel on both
	// paths, queries the queries the window answered, and probeLive the
	// live rows summed over those queries.
	visited, queries, probeLive int
}

func newStaticSearch(records []mat.Vector, dim, k, workers int, path searchPath) *staticSearch {
	s := &staticSearch{records: records, dim: dim, workers: workers, path: path}
	if path == pathWindow || path == pathHandOff || (path == pathAuto && len(records) >= windowMinRecords) {
		s.win = newWindowSearcher(records, dim, k)
	}
	if s.win == nil {
		alive := make([]int, len(records))
		for i := range alive {
			alive[i] = i
		}
		s.scan = newScanSearcher(records, alive, dim, workers)
	}
	return s
}

// backend names the path answering queries now: "window" or "scan".
func (s *staticSearch) backend() string {
	if s.win != nil {
		return "window"
	}
	return "scan"
}

// remaining returns the number of not-yet-grouped records.
func (s *staticSearch) remaining() int {
	if s.win != nil {
		return len(s.win.alive)
	}
	return len(s.scan.alive)
}

// takeGroup removes the record at alive position pick plus its k−1
// nearest surviving records and returns their record indices in
// ascending-distance order. handedOff reports that this query moved the
// search from the window to the sweep.
func (s *staticSearch) takeGroup(pick, k int) (group []int, handedOff bool) {
	if s.win == nil {
		s.visited += len(s.scan.alive)
		return s.scan.takeGroup(pick, k), false
	}
	live := len(s.win.alive)
	group, visited := s.win.takeGroup(pick, k)
	s.visited += visited
	s.queries++
	s.probeLive += live
	if s.queries != windowProbeQueries || !s.handOff(live) {
		return group, false
	}
	s.scan = newScanSearcher(s.records, s.win.alive, s.dim, s.workers)
	s.win = nil
	return group, true
}

// handOff reads the signal after the probe queries, with live rows before
// the last of them: whether the sweep takes over.
func (s *staticSearch) handOff(live int) bool {
	switch s.path {
	case pathWindow:
		return false
	case pathHandOff:
		return true
	}
	w := 1
	if live >= parallelSweepCutoff {
		w = s.workers
	}
	return float64(s.visited*w)*windowRowCost > float64(s.probeLive)
}

// leftover removes and returns the record indices still alive, in
// alive-set order.
func (s *staticSearch) leftover() []int {
	if s.win != nil {
		out := append([]int(nil), s.win.alive...)
		s.win.alive = s.win.alive[:0]
		return out
	}
	return s.scan.leftover()
}

// windowSearcher answers nearest-k queries from a copy of the records
// sorted by their projection onto the principal axis of the class's
// pooled moments. For unit axis v, |(x − s)·v| ≤ ‖x − s‖, so a row whose
// projection lies further than √(k-th distance) from the seed's cannot be
// a neighbour. A query therefore scans contiguous slabs outward from the
// seed's row, each side stopping at the first row the bound excludes
// (see pruned), and folds the slabs into one bounded top-k heap with
// kernel.NearestK — the sweep's kernel, so distances and the (distance,
// record index) tie-break are the sweep's bit for bit.
//
// Taken rows stay in place as +Inf tombstones, which no query can pick
// while k live rows remain, and the arena is compacted once half of it is
// dead. The alive list beside it is the sweep's: swap-deleted in the same
// order, so the seed draw indexes the same records.
type windowSearcher struct {
	dim   int
	alive []int // the sweep's swap-delete list; the seed draw indexes it
	where []int // where[rec] is record rec's position in alive

	proj  []float64 // row projections, ascending
	arena []float64 // rows in projection order; tombstones are +Inf
	ids   []int     // ids[i] is the record index of row i
	row   []int     // row[rec] is the row of live record rec
	dead  int       // tombstoned rows

	// A row is pruned when (|Δ|·shrink − margin)² > k-th distance, where Δ
	// is its projection minus the seed's; see pruned.
	shrink, margin float64

	query  []float64         // the current seed's coordinates
	heap   []kernel.Neighbor // the bounded top-k, reused across queries
	chosen []int             // alive positions of the current group
}

// newWindowSearcher computes the class's principal axis and builds the
// projection-ordered arena. It returns nil when there is no axis (the
// sampled records are all identical, or the eigensolve fails), leaving
// the class to the sweep.
func newWindowSearcher(records []mat.Vector, dim, k int) *windowSearcher {
	n := len(records)
	center, axis, ok := principalAxis(records)
	if !ok {
		return nil
	}

	// Project the centered records: p = Σ_l fl(x_l − μ_l)·v_l with one
	// accumulator in ascending l, and B = max Σ_l |x_l − μ_l|·|v_l| scales
	// the projection's rounding error.
	proj := make([]float64, n)
	keys := make([]uint64, n)
	var bound float64
	for i, x := range records {
		var p, b float64
		for l, v := range axis {
			y := x[l] - center[l]
			p += y * v
			b += math.Abs(y * v)
		}
		proj[i] = p
		keys[i] = orderKey(p)
		bound = max(bound, b)
	}
	order := radixOrder(keys)

	s := &windowSearcher{
		dim:    dim,
		alive:  make([]int, n),
		where:  make([]int, n),
		proj:   make([]float64, n),
		arena:  make([]float64, n*dim),
		ids:    make([]int, n),
		row:    make([]int, n),
		query:  make([]float64, dim),
		heap:   make([]kernel.Neighbor, 0, k),
		chosen: make([]int, 0, k),
	}
	for i := range s.alive {
		s.alive[i] = i
		s.where[i] = i
	}
	for i, rec := range order {
		s.proj[i] = proj[rec]
		s.ids[i] = rec
		s.row[rec] = i
		copy(s.arena[i*dim:(i+1)*dim], records[rec])
	}

	// The rounding margin. With u = 2⁻⁵³, the computed Δ differs from the
	// exact (x − s)·v by at most about 2u|Δ| + 2(d+1)·u·B (centering,
	// projection and subtraction), ‖v‖ ≤ 1 + (d+3)u after normalization,
	// and the kernel's distance is at least (1 − (d+3)u) times the exact
	// one. shrink and margin double those terms, which also covers the
	// rounding of the bound's own arithmetic, so a pruned row's computed
	// distance strictly exceeds the k-th and no row that could be picked —
	// or tie and win on record index — is ever skipped. The 1e-150 floor
	// keeps every distance the bound admits far above the subnormal range,
	// where relative rounding bounds fail.
	const u = 0x1p-53
	d := float64(dim)
	s.shrink = 1 - 4*(d+4)*u
	s.margin = max(4*(d+2)*u*bound, 1e-150)
	return s
}

// axisSample bounds the records whose moments estimate the principal axis.
const axisSample = 4096

// principalAxis returns the mean and the unit eigenvector of the largest
// eigenvalue of the covariance of at most axisSample evenly strided
// records. The covariance is divided by its largest diagonal entry before
// the eigensolve, so records near the admitted bound cannot overflow the
// solver; the scale changes no eigenvector. The window is exact for any
// unit axis and any center, so the sample and the moments' rounding cost
// at most pruning power. ok is false when the covariance vanishes or the
// eigensolve fails.
func principalAxis(records []mat.Vector) (center, axis mat.Vector, ok bool) {
	sample := records
	if n := len(records); n > axisSample {
		sample = make([]mat.Vector, axisSample)
		for i := range sample {
			sample[i] = records[i*n/axisSample]
		}
	}
	g, err := stats.FromRecords(sample)
	if err != nil {
		return nil, nil, false
	}
	center, err = g.Mean()
	if err != nil {
		return nil, nil, false
	}
	cov, err := g.Covariance()
	if err != nil {
		return nil, nil, false
	}
	var scale float64
	for a := 0; a < cov.Rows(); a++ {
		scale = max(scale, cov.At(a, a))
	}
	if !(scale > 0) || math.IsInf(scale, 0) {
		return nil, nil, false
	}
	e, err := mat.SymEigen(cov.Scale(1 / scale))
	if err != nil {
		return nil, nil, false
	}
	axis = e.Vector(0)
	norm := axis.Norm()
	if !(norm > 0) || math.IsInf(norm, 0) {
		return nil, nil, false
	}
	for l := range axis {
		axis[l] /= norm
	}
	return center, axis, true
}

// orderKey maps a float64 to a uint64 with the same order (−0 just
// below +0), for radixOrder.
func orderKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// radixOrder returns the permutation of 0..len(keys)−1 that sorts keys
// ascending, equal keys in index order: a stable LSD radix sort on 11-bit
// digits, skipping digits every key shares. It reorders keys in place.
func radixOrder(keys []uint64) []int {
	const bits = 11
	const mask = 1<<bits - 1
	n := len(keys)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	if n == 0 {
		return ids
	}
	keys2, ids2 := make([]uint64, n), make([]int, n)
	var count [1 << bits]int
	for shift := 0; shift < 64; shift += bits {
		clear(count[:])
		for _, k := range keys {
			count[k>>shift&mask]++
		}
		if count[keys[0]>>shift&mask] == n {
			continue
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for i, k := range keys {
			d := k >> shift & mask
			keys2[count[d]] = k
			ids2[count[d]] = ids[i]
			count[d]++
		}
		keys, keys2 = keys2, keys
		ids, ids2 = ids2, ids
	}
	return ids
}

// pruned reports whether a row whose projection differs from the seed's
// by delta ≥ 0 provably lies strictly further than worst from the seed.
// It is monotone in delta, so the first pruned row on a side ends that
// side.
func (s *windowSearcher) pruned(delta, worst float64) bool {
	g := delta*s.shrink - s.margin
	return g > 0 && g*g > worst
}

// takeGroup removes the record at alive position pick plus its k−1
// nearest surviving records and returns their record indices in
// ascending-distance order, with the number of rows it handed to the
// kernel.
func (s *windowSearcher) takeGroup(pick, k int) ([]int, int) {
	d, n := s.dim, len(s.ids)
	q := s.row[s.alive[pick]]
	copy(s.query, s.arena[q*d:(q+1)*d])
	ps := s.proj[q]

	// Scan [lo, hi) outward from the seed's row in slabs that double up to
	// windowMaxSlab. Once the heap holds k rows, each slab is cut at the
	// first row the bound excludes (a binary search, since the bound is
	// monotone along a side), and that side is done.
	h := s.heap[:0]
	visited := 0
	lo, hi := q, q
	right, left := true, true
	for w := k; right || left; w = min(2*w, windowMaxSlab) {
		if right {
			end := min(n, hi+w)
			cut := end
			if len(h) == k {
				worst := h[0].Dist
				cut = hi + sort.Search(end-hi, func(i int) bool { return s.pruned(s.proj[hi+i]-ps, worst) })
			}
			h = kernel.NearestK(h, s.query, s.arena[hi*d:cut*d], s.ids[hi:cut], hi, k)
			visited += cut - hi
			right = cut == end && end < n
			hi = cut
		}
		if left {
			start := max(0, lo-w)
			cut := start
			if len(h) == k {
				worst := h[0].Dist
				cut = start + sort.Search(lo-start, func(i int) bool { return !s.pruned(ps-s.proj[start+i], worst) })
			}
			h = kernel.NearestK(h, s.query, s.arena[cut*d:lo*d], s.ids[cut:lo], cut, k)
			visited += lo - cut
			left = cut == start && start > 0
			lo = cut
		}
	}
	kernel.SortNeighbors(h)
	s.heap = h

	group := make([]int, k)
	s.chosen = s.chosen[:0]
	for i, nb := range h {
		group[i] = nb.ID
		s.chosen = append(s.chosen, s.where[nb.ID])
		tomb := s.arena[nb.Pos*d : (nb.Pos+1)*d]
		for j := range tomb {
			tomb[j] = math.Inf(1)
		}
	}
	s.dead += k

	// Swap-delete from the alive list exactly as the sweep does: highest
	// chosen position first.
	sort.Sort(sort.Reverse(sort.IntSlice(s.chosen)))
	for _, pos := range s.chosen {
		last := len(s.alive) - 1
		s.alive[pos] = s.alive[last]
		s.where[s.alive[pos]] = pos
		s.alive = s.alive[:last]
	}
	if 2*s.dead >= len(s.ids) {
		s.compact()
	}
	return group, visited
}

// compact drops the tombstoned rows, keeping the projection order.
func (s *windowSearcher) compact() {
	d := s.dim
	out := 0
	for i, rec := range s.ids {
		if math.IsInf(s.arena[i*d], 1) {
			continue
		}
		copy(s.arena[out*d:(out+1)*d], s.arena[i*d:(i+1)*d])
		s.proj[out] = s.proj[i]
		s.ids[out] = rec
		s.row[rec] = out
		out++
	}
	s.arena = s.arena[:out*d]
	s.proj = s.proj[:out]
	s.ids = s.ids[:out]
	s.dead = 0
}

// parallelSweepCutoff is the remaining-set size below which the static
// nearest-k sweep stays single-threaded: under ~8k distances the goroutine
// fan-out costs more than it saves.
const parallelSweepCutoff = 8192

// newScanSearcher builds the sweep over the records listed in alive,
// which it takes over.
func newScanSearcher(records []mat.Vector, alive []int, dim, workers int) *scanSearcher {
	// alive holds indices of records not yet assigned to a group. Removal
	// is swap-delete, so order is not preserved — grouping is randomized by
	// the sampling step anyway. The arena mirrors the alive set row for
	// row: arena row i holds the coordinates of record alive[i], so the
	// kernel sweeps run over contiguous memory instead of gathering
	// through the records slice. Swap-deletes move rows in lockstep with
	// alive.
	arena := make([]float64, len(alive)*dim)
	for i, rec := range alive {
		copy(arena[i*dim:(i+1)*dim], records[rec])
	}
	return &scanSearcher{
		dim:     dim,
		arena:   arena,
		alive:   alive,
		workers: workers,
		chosen:  make([]int, 0, len(alive)),
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
