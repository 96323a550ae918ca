package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/stats"
	"condensation/internal/telemetry"
)

// Sharded is the dynamic condenser engine (Figure 2 of the paper), built
// from N independent shards, each owning its own lock, centroid router,
// rng stream, and telemetry labels. Records are routed to shards
// deterministically by a stable hash of the record bytes, so the same
// stream always lands on the same shards in the same order and the
// condensed state is reproducible bit for bit at any fixed shard count.
//
// Sharding preserves the paper's privacy contract: each shard maintains
// the k ≤ n(G) ≤ 2k−1 group-size invariant independently, and the merged
// state is simply the union of per-shard group sets — exactly the
// composition argument behind Merge (and behind microaggregation
// partitioning generally), so every merged group still condenses at least
// k records. One shard is therefore a complete engine: a single-shard
// Sharded runs the paper's maintenance over the whole stream.
//
// Sharded is the engine the server and the stream driver run, and it is
// safe for concurrent use: reads take per-shard read locks and writes take
// only the locks of the shards their records hash to, so concurrent
// batches contend per shard instead of per engine.
type Sharded struct {
	k    int
	dim  int
	opts Options

	shards []*engineShard

	// met carries the unlabeled engine metrics attached to merged
	// snapshots (synthesis stage timings); tr is the span tracer.
	met engineMetrics
	tr  *telemetry.Tracer

	// gen is the mutation generation shared by every shard: each shard
	// bumps this one counter (not a private one), so a generation
	// value names a unique engine-wide state. Summing per-shard counters
	// would alias distinct states (shard A +2 vs A +1 and B +1 sum the
	// same), which would let a generation-keyed ETag serve stale bytes.
	gen *atomic.Uint64
}

// engineShard pairs one dynamic with its lock. The shard's dynamic is
// only ever touched with mu held.
type engineShard struct {
	mu  sync.RWMutex
	dyn *dynamic
}

// Sharded returns a sharded dynamic engine with the given number of
// independent shards over records of the given dimensionality, for
// pure-stream deployments with no initial database. Shard 0 draws from
// the Condenser's master rng stream itself, and every further shard draws
// from an independent child stream derived from it at construction.
func (c *Condenser) Sharded(dim, shards int) (*Sharded, error) {
	srcs, err := shardSources(c, shards)
	if err != nil {
		return nil, err
	}
	s := &Sharded{k: c.k, dim: dim, opts: c.opts}
	for i := 0; i < shards; i++ {
		d, err := newDynamicEmpty(dim, c.k, c.opts, srcs[i])
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, &engineShard{dyn: d})
	}
	s.finish(c)
	return s, nil
}

// ShardedFrom returns a sharded engine seeded from an existing
// condensation: the initial groups are dealt round-robin across the
// shards (group j to shard j mod N — stable, so resuming at a fixed shard
// count is reproducible), and the initial condensation's dimensionality
// is used while its k and options are superseded by the Condenser's. This
// is the paper's H = CreateCondensedGroups(k, D) initialization.
func (c *Condenser) ShardedFrom(initial *Condensation, shards int) (*Sharded, error) {
	if initial == nil {
		return nil, errors.New("core: nil initial condensation")
	}
	srcs, err := shardSources(c, shards)
	if err != nil {
		return nil, err
	}
	parts := make([][]*stats.Group, shards)
	for j, g := range initial.Groups() {
		parts[j%shards] = append(parts[j%shards], g)
	}
	s := &Sharded{k: c.k, dim: initial.dim, opts: c.opts}
	for i := 0; i < shards; i++ {
		var d *dynamic
		var err error
		if len(parts[i]) == 0 {
			// More shards than initial groups: the shard starts empty.
			d, err = newDynamicEmpty(initial.dim, c.k, c.opts, srcs[i])
		} else {
			d, err = newDynamic(newCondensation(initial.dim, initial.k, initial.opts, parts[i]), srcs[i])
		}
		if err != nil {
			return nil, err
		}
		d.k = c.k
		d.opts = c.opts
		s.shards = append(s.shards, &engineShard{dyn: d})
	}
	s.finish(c)
	return s, nil
}

// finish wires the Condenser's observability, shares one mutation
// generation counter across the shards, and partitions the group-id space
// per shard.
func (s *Sharded) finish(c *Condenser) {
	s.gen = new(atomic.Uint64)
	for i, sh := range s.shards {
		sh.dyn.gen = s.gen
		// Shard i allocates stable group ids under base i<<48, so ids from
		// different shards can never collide and GroupByID recovers the
		// owning shard from the id alone. ShardedFrom annotated its initial
		// deal before the bases were known; rebase renumbers it.
		sh.dyn.shardIndex = i
		sh.dyn.rebaseIDs(uint64(i) << groupIDShardShift)
	}
	s.SetTelemetry(c.tel)
	s.SetTracer(c.trace)
}

// SetJournal attaches a group-lifecycle journal to every shard; events are
// stamped with the emitting shard's index. Nil disables recording.
func (s *Sharded) SetJournal(j *telemetry.Journal) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.dyn.jr = j
		sh.mu.Unlock()
	}
}

// shardSources derives one rng stream per shard: shard 0 takes the master
// stream, shards 1..N−1 take children split from it before any record is
// ingested. Derivation happens entirely at construction, so each shard's
// stream depends only on the master seed and the shard count.
func shardSources(c *Condenser, shards int) ([]*rng.Source, error) {
	if shards < 1 {
		return nil, fmt.Errorf("core: shard count %d, must be ≥ 1", shards)
	}
	srcs := make([]*rng.Source, shards)
	srcs[0] = c.rng()
	for i := 1; i < shards; i++ {
		srcs[i] = srcs[0].Split()
	}
	return srcs, nil
}

// FNV-1a parameters for the stable record→shard hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashFloat folds the 8 bytes of one float64 into an FNV-1a state.
func hashFloat(h uint64, v float64) uint64 {
	b := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h ^= b & 0xff
		h *= fnvPrime64
		b >>= 8
	}
	return h
}

// shardOf routes a record: FNV-1a over the record's float64 bytes,
// reduced modulo the shard count. The hash depends only on the record
// values, so routing is stable across runs, processes, and architectures.
func (s *Sharded) shardOf(x mat.Vector) int {
	n := len(s.shards)
	if n == 1 {
		return 0
	}
	h := uint64(fnvOffset64)
	for _, v := range x {
		h = hashFloat(h, v)
	}
	return int(h % uint64(n))
}

// K returns the indistinguishability level.
func (s *Sharded) K() int { return s.k }

// Dim returns the attribute dimensionality.
func (s *Sharded) Dim() int { return s.dim }

// NumShards returns the number of independent shards.
func (s *Sharded) NumShards() int { return len(s.shards) }

// NumGroups returns the group count summed over shards.
func (s *Sharded) NumGroups() int {
	var n int
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.dyn.NumGroups()
		sh.mu.RUnlock()
	}
	return n
}

// TotalCount returns the number of records condensed so far, summed over
// the shards' cached running counts.
func (s *Sharded) TotalCount() int {
	var n int
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.dyn.TotalCount()
		sh.mu.RUnlock()
	}
	return n
}

// Splits returns the number of group splits performed, summed over shards.
func (s *Sharded) Splits() int {
	var n int
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.dyn.Splits()
		sh.mu.RUnlock()
	}
	return n
}

// Add routes one record to its shard and ingests it under that shard's
// lock.
func (s *Sharded) Add(x mat.Vector) error {
	if err := validateRecord(x, s.dim); err != nil {
		return err
	}
	sh := s.shards[s.shardOf(x)]
	sh.mu.Lock()
	err := sh.dyn.Add(x)
	sh.mu.Unlock()
	return err
}

// AddBatchContext is the sharded engine's batch ingest path, all or
// nothing: the whole batch is validated and the context checked once,
// before any shard applies. After that the batch is partitioned by the
// routing hash into per-shard sub-batches that preserve stream order, and
// the sub-batches are applied whole and concurrently, each under its
// shard's lock alone. Because routing depends only on record values and
// each shard sees its records in stream order, the result is
// bit-identical to a sequential Add loop over the same batch, at any
// concurrency.
//
// A cancellation error therefore means no record was applied. The error
// returned after apply starts is the lowest-shard-index failure, so error
// reporting is deterministic too.
func (s *Sharded) AddBatchContext(ctx context.Context, records []mat.Vector) error {
	for i, x := range records {
		if err := validateRecord(x, s.dim); err != nil {
			return fmt.Errorf("core: batch record %d: %w", i, err)
		}
	}
	if len(records) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: batch cancelled before apply: %w", err)
	}
	if len(s.shards) == 1 {
		sh := s.shards[0]
		sh.mu.Lock()
		err := sh.dyn.applyBatch(ctx, records)
		sh.mu.Unlock()
		return err
	}

	// The span context gets its own name: reassigning ctx, which the
	// goroutines below capture, would move it to the heap on every call,
	// the single-shard fast path above included.
	bctx, sp := s.tr.Start(ctx, "sharded.add_batch")
	sp.SetAttrInt("records", len(records))
	sp.SetAttrInt("shards", len(s.shards))
	defer sp.End()

	// Partition into order-preserving per-shard sub-batches backed by one
	// allocation: count, carve, fill.
	ids := make([]int, len(records))
	counts := make([]int, len(s.shards))
	for i, x := range records {
		ids[i] = s.shardOf(x)
		counts[ids[i]]++
	}
	backing := make([]mat.Vector, 0, len(records))
	parts := make([][]mat.Vector, len(s.shards))
	off := 0
	for i, c := range counts {
		parts[i] = backing[off : off : off+c]
		off += c
	}
	for i, x := range records {
		parts[ids[i]] = append(parts[ids[i]], x)
	}

	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, part := range parts {
		if len(part) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, part []mat.Vector) {
			defer wg.Done()
			shCtx := bctx
			if sp != nil {
				var shSpan *telemetry.Span
				shCtx, shSpan = s.tr.Start(bctx, "sharded.shard")
				shSpan.SetAttrInt("shard", i)
				shSpan.SetAttrInt("records", len(part))
				defer shSpan.End()
			}
			sh := s.shards[i]
			sh.mu.Lock()
			errs[i] = sh.dyn.applyBatch(shCtx, part)
			sh.mu.Unlock()
		}(i, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Condensation snapshots the merged state: every shard's groups, cloned
// under that shard's read lock, concatenated in shard order — a stable
// ordering, so repeated snapshots of the same state serialize
// byte-identically. Each shard's snapshot is internally consistent; under
// concurrent ingestion the merge is the union of per-shard snapshots, not
// a global point-in-time cut.
func (s *Sharded) Condensation() *Condensation {
	var groups []*stats.Group
	var ids []uint64
	for _, sh := range s.shards {
		sh.mu.RLock()
		cond := sh.dyn.Condensation()
		sh.mu.RUnlock()
		groups = append(groups, cond.groups...)
		ids = append(ids, cond.groupIDs...)
	}
	merged := newCondensation(s.dim, s.k, s.opts, groups)
	merged.groupIDs = ids
	merged.met = s.met
	merged.tr = s.tr
	return merged
}

// Shard snapshots one shard's groups. It panics when i is out of range.
func (s *Sharded) Shard(i int) *Condensation {
	sh := s.shards[i]
	sh.mu.RLock()
	cond := sh.dyn.Condensation()
	sh.mu.RUnlock()
	cond.met = s.met
	cond.tr = s.tr
	return cond
}

// ShardCounts returns shard i's live record/group/split counts under its
// read lock, without materializing groups — the accessor periodic load
// scrapes use.
func (s *Sharded) ShardCounts(i int) (records, groups, splits int) {
	sh := s.shards[i]
	sh.mu.RLock()
	records, groups, splits = sh.dyn.TotalCount(), sh.dyn.NumGroups(), sh.dyn.Splits()
	sh.mu.RUnlock()
	return records, groups, splits
}

// ShardGroupSizes appends shard i's live per-group record counts to buf
// under that shard's read lock — no group cloning, so size-only consumers
// (per-shard stats, k-invariant checks) stay O(G) ints per shard.
func (s *Sharded) ShardGroupSizes(i int, buf []int) []int {
	sh := s.shards[i]
	sh.mu.RLock()
	buf = sh.dyn.groupSizes(buf)
	sh.mu.RUnlock()
	return buf
}

// Generation returns the engine-wide mutation generation: the shared
// counter every shard advances on each applied record. Equal generations
// imply bit-identical merged state; the read is one atomic load, no shard
// locks.
func (s *Sharded) Generation() uint64 { return s.gen.Load() }

// SetTelemetry attaches a metrics registry. With more than one shard,
// every engine series carries a shard="i" label so per-shard ingest
// rates, group counts, and split events are separable; a single-shard
// engine registers the series unlabeled.
func (s *Sharded) SetTelemetry(reg *telemetry.Registry) {
	s.met = newEngineMetrics(reg)
	for i, sh := range s.shards {
		sh.mu.Lock()
		if len(s.shards) == 1 {
			sh.dyn.setTelemetry(reg)
		} else {
			sh.dyn.setTelemetry(reg, "shard", strconv.Itoa(i))
		}
		sh.mu.Unlock()
	}
}

// SetTracer attaches a span tracer to the engine and every shard.
func (s *Sharded) SetTracer(tr *telemetry.Tracer) {
	s.tr = tr
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.dyn.tr = tr
		sh.mu.Unlock()
	}
}
