package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
	"condensation/internal/telemetry"
)

// searchSampleEvery is the sampling stride of the dynamic routing stage
// timer: one in every searchSampleEvery routed records is timed. Two
// time.Now() calls per record are measurable at high ingest rates, so the
// histogram trades completeness for throughput — the sampled latencies
// are representative (routing cost varies only with the group count,
// which moves slowly) and the counters remain exact.
const searchSampleEvery = 64

// dynamic maintains condensed groups over an incremental stream of records
// (DynamicGroupMaintenance, Figure 2 of the paper). Each arriving record is
// added to the group with the nearest centroid; as soon as a group reaches
// 2k records its statistics are split into two groups of k records each
// (SplitGroupStatistics), so every group holds between k and 2k−1 records
// in steady state. Only aggregate statistics are retained — never the raw
// stream records.
//
// Records are routed through a nearest-centroid router chosen by the group
// count: the paper's linear scan below dynamicIndexCutoff groups, and a
// maintained kd-index, exact under centroid drift and splits, from there
// on.
//
// A dynamic is the per-shard unit of a Sharded: it performs no locking
// and no input validation, runs under its shard's lock, and ingests only
// records the Sharded has already validated.
type dynamic struct {
	k    int
	dim  int
	opts Options
	r    *rng.Source

	groups    []*stats.Group
	centroids []mat.Vector // cached, updated in place, kept in sync with groups
	total     int          // cached running record count (Σ g.N()), updated on ingest
	splits    int          // group splits performed so far
	met       engineMetrics
	tel       *telemetry.Registry
	telLabels []string // label pairs applied to every engine series (sharding)
	tr        *telemetry.Tracer

	router centroidRouter   // maintained nearest-centroid structure
	routed int              // records routed, for sampled stage timing
	eig    mat.EigenScratch // reusable split eigensolve workspaces

	// Stable group identity and lineage, maintained in parallel with
	// groups/centroids: ids[i] is slot i's stable group id and births[i]
	// its birth annotation. Ids are allocated monotonically under idBase —
	// the per-shard partition of the id space a Sharded installs (see
	// groupIDShardShift) — so ids are unique engine-wide and never reused
	// after a split retires them. All of it is observe-only: ids never
	// influence routing, splits, or the rng stream, and they are not
	// serialized into checkpoints (a resumed engine renumbers from scratch).
	ids    []uint64
	births []groupBirth
	idBase uint64
	idSeq  uint64

	// shardIndex is this engine's position in a Sharded (0 standalone);
	// it stamps journal events and group diagnostics. jr is the lifecycle
	// journal; nil (the default) disables it at one nil check per site.
	shardIndex int
	jr         *telemetry.Journal

	// gen is the engine's mutation generation: a monotone counter advanced
	// before every state-changing apply and untouched by reads. The shards
	// of one Sharded share a single counter, so a generation value names a
	// unique prefix of the engine-wide mutation sequence — the property
	// that lets every read-side cache in the stack (the snapshot cache
	// below, the server's artifact memos, checkpoint ETags) use it as a
	// complete version key. lastMut is the counter value at this engine's
	// own most recent mutation, so a shard's snapshot cache invalidates
	// only when that shard changed, not when any sibling did.
	gen     *atomic.Uint64
	lastMut uint64

	// The generation-keyed snapshot cache: the group clones handed out by
	// the last Condensation call, valid while lastMut still equals snapGen.
	// Writers never touch it (they only advance the generation — copy on
	// write-invalidate, not copy on read); concurrent readers racing to
	// rebuild it under the caller's read lock serialize on snapMu. snapIDs
	// is the ids slice frozen with the clones, annotated onto snapshots.
	snapMu     sync.Mutex
	snapGen    uint64
	snapGroups []*stats.Group
	snapIDs    []uint64
}

// groupBirth is one group slot's observe-only birth annotation: the
// mutation generation it was created at, the id of the split parent it was
// born from (0 for founded or initial groups), and its centroid at birth —
// the reference point per-group drift diagnostics measure against.
type groupBirth struct {
	gen      uint64
	parent   uint64
	centroid mat.Vector
}

// groupIDShardShift partitions the 64-bit group-id space per shard: shard
// i allocates ids under base i<<48, so ids from different shards can never
// collide and the owning shard is recoverable as id>>48. 2^48 ids per
// shard outlasts any realistic stream; 2^16 shards outlasts any machine.
const groupIDShardShift = 48

// allocID hands out the next stable group id under this engine's base.
// Ids are 1-based within the shard so 0 stays the "no parent" sentinel.
func (d *dynamic) allocID() uint64 {
	d.idSeq++
	return d.idBase | d.idSeq
}

// annotate registers identity and birth for a group slot just appended to
// d.groups: a fresh id, the current mutation generation, the given split
// parent (0 when founded), and a clone of the group's centroid.
func (d *dynamic) annotate(parent uint64, centroid mat.Vector) uint64 {
	id := d.allocID()
	d.ids = append(d.ids, id)
	d.births = append(d.births, groupBirth{gen: d.lastMut, parent: parent, centroid: centroid.Clone()})
	return id
}

// rebaseIDs moves the engine's id space under base, renumbering any groups
// annotated before the base was known (the initial deal of ShardedFrom
// constructs each shard's dynamic first). Called once at construction,
// before any record is ingested.
func (d *dynamic) rebaseIDs(base uint64) {
	d.idBase = base
	d.idSeq = 0
	for i := range d.ids {
		d.idSeq++
		d.ids[i] = base | d.idSeq
	}
}

// bump advances the mutation generation at the start of a state change,
// so a generation-keyed cache can never mistake a pre-mutation snapshot
// for current state.
func (d *dynamic) bump() { d.lastMut = d.gen.Add(1) }

// setTelemetry attaches a metrics registry: ingest then counts stream
// records and split events, times the nearest-centroid routing (the
// dynamic engine's neighbour search — sampled one record in
// searchSampleEvery, so steady-state ingest pays no per-record clock
// reads) and the statistics splits, and keeps a live group-count gauge. A
// nil registry disables recording. Extra label pairs are stamped onto
// every engine series — the sharded engine passes shard="i" so per-shard
// rates stay separable — and retained so a later routing-backend change
// re-registers the search series with them intact. Telemetry is
// observe-only and never touches the split-axis rng.
func (d *dynamic) setTelemetry(reg *telemetry.Registry, labels ...string) {
	d.tel = reg
	d.telLabels = labels
	d.met = newEngineMetrics(reg, labels...)
	d.met.withSearchBackend(reg, d.router.label(), labels...)
	d.met.groups.Set(float64(len(d.groups)))
}

// newDynamic creates a dynamic condenser seeded from a static condensation
// of an initial database, per the paper's H = CreateCondensedGroups(k, D)
// initialization. The Condensation's groups are copied.
func newDynamic(initial *Condensation, r *rng.Source) (*dynamic, error) {
	d := &dynamic{
		k:      initial.k,
		dim:    initial.dim,
		opts:   initial.opts,
		r:      r,
		groups: initial.Groups(),
		gen:    new(atomic.Uint64),
	}
	d.centroids = make([]mat.Vector, len(d.groups))
	for i, g := range d.groups {
		m, err := g.Mean()
		if err != nil {
			return nil, fmt.Errorf("core: initial group %d: %w", i, err)
		}
		d.centroids[i] = m
		d.total += g.N()
		d.annotate(0, m)
	}
	d.initRouter()
	return d, nil
}

// newDynamicEmpty creates a dynamic condenser with no initial database.
// The first arriving record founds the first group. Until the first group
// reaches k records the structure cannot guarantee k-indistinguishability;
// the paper's setting always provides an initial database, so this
// constructor exists for pure-stream deployments.
func newDynamicEmpty(dim, k int, opts Options, r *rng.Source) (*dynamic, error) {
	if dim < 1 {
		return nil, fmt.Errorf("core: dimension %d, must be ≥ 1", dim)
	}
	d := &dynamic{k: k, dim: dim, opts: opts, r: r, gen: new(atomic.Uint64)}
	d.initRouter()
	return d, nil
}

// NumGroups returns the current number of groups.
func (d *dynamic) NumGroups() int { return len(d.groups) }

// TotalCount returns the number of records condensed so far. The count is
// maintained incrementally on ingest (splits conserve it), so frequent
// health and stats reads never scan the group list under the serving lock.
func (d *dynamic) TotalCount() int { return d.total }

// Splits returns the number of group splits performed so far.
func (d *dynamic) Splits() int { return d.splits }

// maxRecord bounds the attribute values the engines admit. It is chosen
// so that no group the engine can reach, split children included, fails
// the checkpoint screen of checkMomentBounds (|Fs_j| ≤ n·maxMagnitude,
// Sc_jj ≤ n·maxMagnitude²), even though an Eq. 3 split can put a child
// mean outside the range of the data. Every group keeps Sc_jj ≥ 0 (a sum
// of squares; for split children k·C_jj + Fs_j²/k with C clamped PSD),
// and the groups' Sc_jj sum to Σ x_j² over the stream because splits
// conserve the pooled moments. So for any group n·mean_j² ≤ Sc_jj ≤ N·M²
// on a stream of N records bounded by M, which gives |Fs_j| ≤ n·√N·M and
// Sc_jj ≤ N·M². With N < 2⁶³ (√N < 3.04e9) and M = 1e90 both stay at
// least a factor 3 inside the screen, which absorbs the rounding of the
// conservation.
const maxRecord = 1e90

// ErrInvalidRecord is wrapped by every error that rejects a record for
// its shape or values, so callers can tell bad input from engine faults.
var ErrInvalidRecord = errors.New("core: invalid record")

// validateRecord rejects records the engines cannot condense: a wrong
// dimension, or a value that is NaN, infinite, or beyond ±maxRecord.
func validateRecord(x mat.Vector, dim int) error {
	if len(x) != dim {
		return fmt.Errorf("%w: dimension %d, want %d", ErrInvalidRecord, len(x), dim)
	}
	for j, v := range x {
		if !(math.Abs(v) <= maxRecord) {
			return fmt.Errorf("%w: attribute %d is %g, outside ±%g", ErrInvalidRecord, j, v, maxRecord)
		}
	}
	return nil
}

// Add routes one validated stream record to the group with the nearest
// centroid and splits that group if it reaches 2k records.
func (d *dynamic) Add(x mat.Vector) error {
	sp := d.tr.StartChild(nil, "dynamic.add")
	if sp == nil {
		return d.add(x, nil)
	}
	err := d.add(x, sp)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}
	sp.End()
	return err
}

// add is Add's body, with sp the sampled per-record span (usually nil).
func (d *dynamic) add(x mat.Vector, sp *telemetry.Span) error {
	if len(d.groups) == 0 {
		return d.found(x)
	}
	best := d.route(x)
	sp.SetAttrInt("group", best)
	return d.ingest(best, x, sp)
}

// applyBatch applies an already validated batch in order under one
// dynamic.add_batch span (nested under ctx's span, if any). ctx carries
// only the trace parent: the cancellation decision was made by the
// caller, so the batch is applied whole.
func (d *dynamic) applyBatch(ctx context.Context, records []mat.Vector) error {
	_, sp := d.tr.Start(ctx, "dynamic.add_batch")
	sp.SetAttrInt("records", len(records))
	defer sp.End()
	for i, x := range records {
		var err error
		if len(d.groups) == 0 {
			err = d.found(x)
		} else {
			err = d.ingest(d.route(x), x, sp)
		}
		if err != nil {
			return fmt.Errorf("core: batch record %d: %w", i, err)
		}
	}
	return nil
}

// found admits the very first stream record of an empty condenser: it
// founds group 0.
func (d *dynamic) found(x mat.Vector) error {
	d.bump()
	g := stats.NewGroup(d.dim)
	if err := g.Add(x); err != nil {
		return err
	}
	d.groups = append(d.groups, g)
	m, err := g.Mean()
	if err != nil {
		return err
	}
	d.centroids = append(d.centroids, m)
	id := d.annotate(0, m)
	d.router.add(len(d.groups) - 1)
	d.total++
	d.met.streamRecords.Inc()
	d.met.groupsFormed.Inc()
	d.met.groups.Set(float64(len(d.groups)))
	if d.jr != nil {
		d.jr.Record(telemetry.JournalEvent{
			Type:       telemetry.EventGroupCreated,
			Shard:      d.shardIndex,
			Generation: d.lastMut,
			Group:      id,
			Detail:     "first stream record founded a group",
		})
	}
	return nil
}

// route finds the nearest centroid in H to x through the configured
// router, timing one record in searchSampleEvery.
func (d *dynamic) route(x mat.Vector) int {
	d.routed++
	if d.met.enabled && d.routed%searchSampleEvery == 1 {
		t0 := time.Now()
		best, _ := d.router.nearest(x)
		d.met.search.ObserveSince(t0)
		return best
	}
	best, _ := d.router.nearest(x)
	return best
}

// ingest folds x into group best, refreshes the group's cached centroid in
// place (no allocation), keeps the router in sync, and performs the
// paper's split once the group reaches 2k records: delete M from H, add
// M1 and M2 to H. sp, when non-nil, is the enclosing trace span (the
// sampled per-record span for Add, the batch span for applyBatch); a split
// then records a child span under it.
func (d *dynamic) ingest(best int, x mat.Vector, sp *telemetry.Span) error {
	d.bump()
	g := d.groups[best]
	if err := g.Add(x); err != nil {
		return err
	}
	d.total++
	d.met.streamRecords.Inc()
	if err := g.MeanInto(d.centroids[best]); err != nil {
		return err
	}
	d.router.update(best)

	if g.N() == 2*d.k {
		var t0 time.Time
		if d.met.enabled {
			t0 = time.Now()
		}
		splitSpan := childSpan(d.tr, sp, "dynamic.split")
		splitSpan.SetAttrInt("group", best)
		m1, m2, err := splitGroupWith(g, d.k, d.opts.SplitAxis, d.r, &d.eig)
		if err != nil {
			return fmt.Errorf("core: splitting group %d: %w", best, err)
		}
		parentID := d.ids[best]
		d.groups[best] = m1
		if err := m1.MeanInto(d.centroids[best]); err != nil {
			return err
		}
		d.router.update(best)
		c2, err := m2.Mean()
		if err != nil {
			return err
		}
		d.groups = append(d.groups, m2)
		d.centroids = append(d.centroids, c2)
		// The parent id retires with the split; both halves are new groups
		// with fresh ids and lineage back to the parent.
		id1 := d.allocID()
		d.ids[best] = id1
		d.births[best] = groupBirth{gen: d.lastMut, parent: parentID, centroid: d.centroids[best].Clone()}
		id2 := d.annotate(parentID, c2)
		d.router.add(len(d.groups) - 1)
		d.maybePromote()
		if d.jr != nil {
			d.jr.Record(telemetry.JournalEvent{
				Type:       telemetry.EventSplit,
				Shard:      d.shardIndex,
				Generation: d.lastMut,
				Group:      parentID,
				Parent:     parentID,
				Children:   []uint64{id1, id2},
				Detail:     fmt.Sprintf("group reached %d records (2k) and split into %d + %d", 2*d.k, m1.N(), m2.N()),
			})
		}
		splitSpan.End()
		if d.met.enabled {
			d.met.split.ObserveSince(t0)
		}
		d.splits++
		d.met.splitEvents.Inc()
		d.met.groupsFormed.Inc()
		d.met.groups.Set(float64(len(d.groups)))
	}
	return nil
}

// Condensation snapshots the current groups as an immutable Condensation
// that can be synthesized from. The group copies are cached per mutation
// generation: a snapshot taken with no intervening writes reuses the
// previous call's clones instead of re-copying O(G·d²) state, so repeated
// reads of unchanged state cost one slice header. The cached groups are
// never mutated afterwards — stats.Group read methods are pure and
// Condensation.Groups() clones on access — so sharing them across
// snapshots is safe; each call still gets a fresh Condensation header, so
// per-caller settings (parallelism, telemetry, tracer) never leak between
// snapshots.
func (d *dynamic) Condensation() *Condensation {
	d.snapMu.Lock()
	if d.snapGroups == nil || d.snapGen != d.lastMut {
		groups := make([]*stats.Group, len(d.groups))
		for i, g := range d.groups {
			groups[i] = g.Clone()
		}
		d.snapGroups = groups
		d.snapIDs = append([]uint64(nil), d.ids...)
		d.snapGen = d.lastMut
		d.met.snapMisses.Inc()
	} else {
		d.met.snapHits.Inc()
	}
	groups := d.snapGroups
	ids := d.snapIDs
	d.snapMu.Unlock()
	cond := newCondensation(d.dim, d.k, d.opts, groups)
	cond.groupIDs = ids
	cond.met = d.met
	cond.tr = d.tr
	return cond
}

// groupSizes appends the live per-group record counts to buf (resliced to
// zero length first) and returns it. It reads the retained counts
// directly — no group cloning — so size-only consumers (per-shard stats,
// k-invariant checks) stay O(G) ints under the shard lock.
func (d *dynamic) groupSizes(buf []int) []int {
	buf = buf[:0]
	for _, g := range d.groups {
		buf = append(buf, g.N())
	}
	return buf
}
