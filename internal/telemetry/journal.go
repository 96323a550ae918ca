package telemetry

import (
	"sync"
	"time"
)

// Journal event types: the group-lifecycle and serving-layer moments worth
// explaining after the fact. Each names the state change that produced it,
// not the code path — the journal is the narrative the audit and watchdog
// numbers lack.
const (
	// EventGroupCreated marks a group founded from the stream (the very
	// first record of an empty condenser, or of an empty shard).
	EventGroupCreated = "group_created"
	// EventSplit marks a group reaching 2k records and splitting: the
	// parent id retires and two children are born (paper §3.2).
	EventSplit = "split"
	// EventIndexRebuild marks a centroid-router rebuild: the scan→kd
	// promotion a dynamic engine makes once its group count reaches the
	// index cutoff.
	EventIndexRebuild = "index_rebuild"
	// EventCacheInvalidation marks the server's read cache dropping a
	// generation's prepared artifacts because the engine moved on.
	EventCacheInvalidation = "cache_invalidation"
	// EventWatchdogTransition marks a health rule changing state.
	EventWatchdogTransition = "watchdog_transition"
)

// JournalShardNone is the Shard stamp of events that are not tied to one
// engine shard (server read cache, watchdog).
const JournalShardNone = -1

// JournalEvent is one recorded lifecycle event. Seq and Time are stamped
// by Record; everything else is the emitter's.
type JournalEvent struct {
	// Seq is the journal-wide sequence number, monotone from 1 — the
	// cursor clients page with even after ring wraparound.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock record time.
	Time time.Time `json:"time"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Shard is the engine shard the event happened on (0 for a standalone
	// Dynamic), or JournalShardNone for server-level events.
	Shard int `json:"shard"`
	// Generation is the engine mutation generation the event is tied to,
	// so journal entries line up with checkpoint ETags and /healthz.
	Generation uint64 `json:"generation"`
	// Group is the stable id of the group the event concerns, when any.
	Group uint64 `json:"group,omitempty"`
	// Parent and Children carry split lineage: the retiring parent id and
	// the two ids born from it.
	Parent   uint64   `json:"parent,omitempty"`
	Children []uint64 `json:"children,omitempty"`
	// Detail is a human-readable one-liner explaining the event.
	Detail string `json:"detail,omitempty"`
}

// Journal is a bounded ring of lifecycle events, the structured sibling of
// the Tracer: nil-safe (a nil *Journal no-ops every method, so a disabled
// journal costs one nil check per emission site), observe-only (nothing it
// records feeds back into condensation), and bounded (the ring keeps the
// most recent Capacity events; older ones are overwritten, never grown).
// Unlike the sampled tracer it records every event offered — lifecycle
// events are rare (splits, rebuilds, transitions), so completeness is
// affordable and is what makes lineage reconstruction trustworthy.
type Journal struct {
	mu   sync.Mutex
	ring ring[JournalEvent]
	seq  uint64 // events ever recorded; stamps JournalEvent.Seq
}

// defaultJournalCapacity bounds the ring when NewJournal is given a
// non-positive capacity.
const defaultJournalCapacity = 4096

// NewJournal returns a journal holding up to capacity events (capacity ≤ 0
// means the default 4096).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = defaultJournalCapacity
	}
	return &Journal{ring: make(ring[JournalEvent], capacity)}
}

// Record stamps ev with the next sequence number and the current time and
// commits it, overwriting the oldest event when the ring is full. Safe for
// concurrent callers; a nil journal discards the event.
func (j *Journal) Record(ev JournalEvent) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	ev.Time = time.Now()
	j.ring.push(j.seq, ev)
	j.mu.Unlock()
}

// Events returns up to last of the most recent buffered events in record
// order (oldest first). last ≤ 0 returns everything buffered. With types
// given, only events of those types count toward last — "the N most recent
// splits", not "the splits among the N most recent events". The returned
// slice is a copy and safe to retain.
func (j *Journal) Events(last int, types ...string) []JournalEvent {
	if j == nil {
		return nil
	}
	wanted := func(string) bool { return true }
	if len(types) > 0 {
		wanted = func(t string) bool {
			for _, w := range types {
				if t == w {
					return true
				}
			}
			return false
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []JournalEvent
	// Walk newest to oldest, collect matches up to last, then reverse.
	for i := 0; i < j.ring.held(j.seq); i++ {
		ev := j.ring.newest(j.seq, i)
		if !wanted(ev.Type) {
			continue
		}
		out = append(out, ev)
		if last > 0 && len(out) == last {
			break
		}
	}
	for lo, hi := 0, len(out)-1; lo < hi; lo, hi = lo+1, hi-1 {
		out[lo], out[hi] = out[hi], out[lo]
	}
	return out
}

// Len returns the number of events currently buffered.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.held(j.seq)
}

// Seq returns the number of events ever recorded — the Seq stamp of the
// newest event.
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Dropped returns the number of events overwritten by newer ones.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq - uint64(j.ring.held(j.seq))
}

// Capacity returns the ring capacity (0 for a nil journal).
func (j *Journal) Capacity() int {
	if j == nil {
		return 0
	}
	return len(j.ring)
}
