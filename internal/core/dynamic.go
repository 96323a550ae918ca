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

// Dynamic maintains condensed groups over an incremental stream of records
// (DynamicGroupMaintenance, Figure 2 of the paper). Each arriving record is
// added to the group with the nearest centroid; as soon as a group reaches
// 2k records its statistics are split into two groups of k records each
// (SplitGroupStatistics), so every group holds between k and 2k−1 records
// in steady state. Only aggregate statistics are retained — never the raw
// stream records.
//
// Records are routed through a pluggable nearest-centroid router (the
// Condenser's WithNeighborSearch): the paper's linear scan, or a maintained kd-index
// that stays exact under centroid drift and splits. AddBatch ingests a
// whole batch through the same route-and-absorb steps as Add, after
// validating all of it.
//
// A Dynamic performs no locking: it is the single-threaded unit a Sharded
// runs one of per shard, under that shard's lock.
type Dynamic struct {
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

	search searchConfig     // routing backend
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
func (d *Dynamic) allocID() uint64 {
	d.idSeq++
	return d.idBase | d.idSeq
}

// annotate registers identity and birth for a group slot just appended to
// d.groups: a fresh id, the current mutation generation, the given split
// parent (0 when founded), and a clone of the group's centroid.
func (d *Dynamic) annotate(parent uint64, centroid mat.Vector) uint64 {
	id := d.allocID()
	d.ids = append(d.ids, id)
	d.births = append(d.births, groupBirth{gen: d.lastMut, parent: parent, centroid: centroid.Clone()})
	return id
}

// rebaseIDs moves the engine's id space under base, renumbering any groups
// annotated before the base was known (the initial deal of ShardedFrom
// constructs each shard's Dynamic first). Called once at construction,
// before any record is ingested.
func (d *Dynamic) rebaseIDs(base uint64) {
	d.idBase = base
	d.idSeq = 0
	for i := range d.ids {
		d.idSeq++
		d.ids[i] = base | d.idSeq
	}
}

// SetJournal attaches a group-lifecycle journal: group foundings, splits
// (with parent→child lineage), and router rebuilds are then recorded as
// structured events stamped with this engine's shard index and the
// triggering mutation generation. A nil journal (the default) disables
// recording at one nil check per event site. The journal is observe-only
// — it never touches the rng stream or the group moments, so condensed
// output is bit-identical with it on or off.
func (d *Dynamic) SetJournal(j *telemetry.Journal) { d.jr = j }

// bump advances the mutation generation at the start of a state change,
// so a generation-keyed cache can never mistake a pre-mutation snapshot
// for current state.
func (d *Dynamic) bump() { d.lastMut = d.gen.Add(1) }

// Generation returns the engine's mutation generation. It advances on
// every applied record (group splits ride along) and is stable across
// pure reads, so an equal generation implies bit-identical condensed
// state. Reading it needs no lock: the counter is atomic.
func (d *Dynamic) Generation() uint64 { return d.gen.Load() }

// SetTelemetry attaches a metrics registry: Add and AddBatch then count
// stream records and split events, time the nearest-centroid routing (the
// dynamic engine's neighbour search — sampled one record in
// searchSampleEvery, so steady-state ingest pays no per-record clock
// reads) and the statistics splits, and keep a live group-count gauge. A
// nil registry disables recording.
// Telemetry is observe-only and never touches the split-axis rng.
func (d *Dynamic) SetTelemetry(reg *telemetry.Registry) {
	d.setTelemetryLabeled(reg)
}

// setTelemetryLabeled is SetTelemetry with extra label pairs stamped onto
// every engine series — the sharded engine passes shard="i" so per-shard
// rates stay separable. The labels are retained so a later routing-backend
// change re-registers the search series with them intact.
func (d *Dynamic) setTelemetryLabeled(reg *telemetry.Registry, labels ...string) {
	d.tel = reg
	d.telLabels = labels
	d.met = newEngineMetrics(reg, labels...)
	d.met.withSearchBackend(reg, d.router.label(), labels...)
	d.met.groups.Set(float64(len(d.groups)))
}

// SetTracer attaches a span tracer: Add records a sampled per-record
// ingest span (with a split child when the record triggers one), and
// AddBatch records one batch span with a child per split — nested under
// the span in the caller's context, if any. A nil tracer (the default)
// disables tracing; a disabled or unsampled record costs one nil check
// and one atomic load, preserving the 0 allocs/record hot path.
// Tracing is observe-only and never touches the split-axis rng.
func (d *Dynamic) SetTracer(tr *telemetry.Tracer) { d.tr = tr }

// NewDynamic creates a dynamic condenser seeded from a static condensation
// of an initial database, per the paper's H = CreateCondensedGroups(k, D)
// initialization. The Condensation's groups are copied.
func NewDynamic(initial *Condensation, r *rng.Source) (*Dynamic, error) {
	if initial == nil {
		return nil, errors.New("core: nil initial condensation")
	}
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	d := &Dynamic{
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

// NewDynamicEmpty creates a dynamic condenser with no initial database.
// The first arriving record founds the first group. Until the first group
// reaches k records the structure cannot guarantee k-indistinguishability;
// the paper's setting always provides an initial database, so this
// constructor exists for pure-stream deployments and tests.
func NewDynamicEmpty(dim, k int, opts Options, r *rng.Source) (*Dynamic, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if dim < 1 {
		return nil, fmt.Errorf("core: dimension %d, must be ≥ 1", dim)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: indistinguishability level k = %d, must be ≥ 1", k)
	}
	if r == nil {
		return nil, errors.New("core: nil random source")
	}
	d := &Dynamic{k: k, dim: dim, opts: opts, r: r, gen: new(atomic.Uint64)}
	d.initRouter()
	return d, nil
}

// K returns the indistinguishability level.
func (d *Dynamic) K() int { return d.k }

// Dim returns the attribute dimensionality.
func (d *Dynamic) Dim() int { return d.dim }

// NumGroups returns the current number of groups.
func (d *Dynamic) NumGroups() int { return len(d.groups) }

// TotalCount returns the number of records condensed so far. The count is
// maintained incrementally on ingest (splits conserve it), so frequent
// health and stats reads never scan the group list under the serving lock.
func (d *Dynamic) TotalCount() int { return d.total }

// Splits returns the number of group splits performed so far.
func (d *Dynamic) Splits() int { return d.splits }

// maxMagnitude bounds the attribute values the engines accept. Squares of
// such values, and their sums over any realistic record count, stay far
// below the float64 range, so group moments, centroid distances, and
// split offsets remain finite; a larger finite value could overflow a
// second-order sum to +Inf and leave routing with no finite distance.
const maxMagnitude = 1e100

// ErrInvalidRecord is wrapped by every error that rejects a record for
// its shape or values, so callers can tell bad input from engine faults.
var ErrInvalidRecord = errors.New("core: invalid record")

// validateRecord rejects records the engines cannot condense: a wrong
// dimension, or a value that is NaN, infinite, or beyond ±maxMagnitude.
func validateRecord(x mat.Vector, dim int) error {
	if len(x) != dim {
		return fmt.Errorf("%w: dimension %d, want %d", ErrInvalidRecord, len(x), dim)
	}
	for j, v := range x {
		if !(math.Abs(v) <= maxMagnitude) {
			return fmt.Errorf("%w: attribute %d is %g, outside ±%g", ErrInvalidRecord, j, v, maxMagnitude)
		}
	}
	return nil
}

// Add routes one stream record to the group with the nearest centroid and
// splits that group if it reaches 2k records.
func (d *Dynamic) Add(x mat.Vector) error {
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
func (d *Dynamic) add(x mat.Vector, sp *telemetry.Span) error {
	if err := validateRecord(x, d.dim); err != nil {
		return err
	}
	if len(d.groups) == 0 {
		return d.found(x)
	}
	best := d.route(x)
	sp.SetAttrInt("group", best)
	return d.ingest(best, x, sp)
}

// AddBatch ingests a batch of records; see AddBatchContext.
func (d *Dynamic) AddBatch(records []mat.Vector) error {
	return d.AddBatchContext(context.Background(), records)
}

// AddBatchContext ingests a batch all or nothing. The whole batch is
// validated and the context checked once, before any record is applied:
// a malformed record or a done context rejects the batch untouched.
// After that every record is applied in order through the same route and
// ingest steps Add uses, so the condensation — groups, centroids, rng
// stream — is bit-identical to an Add loop over the same records.
func (d *Dynamic) AddBatchContext(ctx context.Context, records []mat.Vector) error {
	for i, x := range records {
		if err := validateRecord(x, d.dim); err != nil {
			return fmt.Errorf("core: batch record %d: %w", i, err)
		}
	}
	if len(records) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: batch cancelled before apply: %w", err)
	}
	return d.applyBatch(ctx, records)
}

// applyBatch applies an already validated batch in order under one
// dynamic.add_batch span (nested under ctx's span, if any). ctx carries
// only the trace parent: the cancellation decision was made by the
// caller, so the batch is applied whole.
func (d *Dynamic) applyBatch(ctx context.Context, records []mat.Vector) error {
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
func (d *Dynamic) found(x mat.Vector) error {
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
func (d *Dynamic) route(x mat.Vector) int {
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
// sampled per-record span for Add, the batch span for AddBatch); a split
// then records a child span under it.
func (d *Dynamic) ingest(best int, x mat.Vector, sp *telemetry.Span) error {
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
func (d *Dynamic) Condensation() *Condensation {
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
func (d *Dynamic) groupSizes(buf []int) []int {
	buf = buf[:0]
	for _, g := range d.groups {
		buf = append(buf, g.N())
	}
	return buf
}
