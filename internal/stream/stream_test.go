package stream

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"condensation/internal/core"
	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

func records(seed uint64, n int) []mat.Vector {
	r := rng.New(seed)
	out := make([]mat.Vector, n)
	for i := range out {
		out[i] = mat.Vector{r.Norm(), r.Norm()}
	}
	return out
}

// newEngine is a one-shard engine over 2-d records drawing from
// rng.New(99).
func newEngine(t *testing.T, k int) core.Engine {
	t.Helper()
	c, err := core.NewCondenser(k, core.WithRandomSource(rng.New(99)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := c.Sharded(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestDriverFeedAndSeen(t *testing.T) {
	d, err := NewDriver(newEngine(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Feed(records(1, 50)); err != nil {
		t.Fatal(err)
	}
	if d.Seen() != 50 {
		t.Errorf("Seen = %d, want 50", d.Seen())
	}
	if got := d.Condensation().TotalCount(); got != 50 {
		t.Errorf("TotalCount = %d, want 50", got)
	}
}

func TestDriverSnapshots(t *testing.T) {
	d, err := NewDriver(newEngine(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	d.SnapshotEvery = 10
	if err := d.Feed(records(2, 35)); err != nil {
		t.Fatal(err)
	}
	snaps := d.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("%d snapshots, want 3", len(snaps))
	}
	for i, s := range snaps {
		if s.Seen != (i+1)*10 {
			t.Errorf("snapshot %d Seen = %d", i, s.Seen)
		}
		if s.Groups < 1 || s.AvgGroupSize <= 0 {
			t.Errorf("snapshot %d degenerate: %+v", i, s)
		}
	}
}

func TestDriverSnapshotsDisabled(t *testing.T) {
	d, err := NewDriver(newEngine(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Feed(records(3, 20)); err != nil {
		t.Fatal(err)
	}
	if len(d.Snapshots()) != 0 {
		t.Error("snapshots recorded with SnapshotEvery = 0")
	}
}

func TestDriverFeedContextCancelled(t *testing.T) {
	d, err := NewDriver(newEngine(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.FeedContext(ctx, records(10, 20)); !errors.Is(err, context.Canceled) {
		t.Fatalf("FeedContext on cancelled context: err = %v, want context.Canceled", err)
	}
	if d.Seen() != 0 {
		t.Errorf("Seen = %d after pre-cancelled feed, want 0", d.Seen())
	}
	// A live context resumes feeding on the same driver.
	if err := d.FeedContext(context.Background(), records(10, 20)); err != nil {
		t.Fatal(err)
	}
	if d.Seen() != 20 {
		t.Errorf("Seen = %d after resumed feed, want 20", d.Seen())
	}
}

func TestNewDriverNil(t *testing.T) {
	if _, err := NewDriver(nil); err == nil {
		t.Error("nil condenser accepted")
	}
}

func TestDriverFeedBadRecord(t *testing.T) {
	d, err := NewDriver(newEngine(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Feed([]mat.Vector{{1}}); err == nil {
		t.Error("wrong-dimension record accepted")
	}
}

func TestShuffledIsPermutation(t *testing.T) {
	orig := records(4, 20)
	sh := Shuffled(orig, rng.New(5))
	if len(sh) != len(orig) {
		t.Fatal("length changed")
	}
	used := make([]bool, len(orig))
	for _, x := range sh {
		found := false
		for i, o := range orig {
			if !used[i] && o.Equal(x, 0) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Fatal("shuffled output is not a permutation")
		}
	}
	// The input order must be untouched.
	again := records(4, 20)
	for i := range orig {
		if !orig[i].Equal(again[i], 0) {
			t.Fatal("Shuffled mutated its input")
		}
	}
}

func TestDrifted(t *testing.T) {
	orig := records(6, 11)
	dr, err := Drifted(orig, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dr[0][0] != orig[0][0] {
		t.Error("first record shifted")
	}
	if got := dr[10][0] - orig[10][0]; got != 10 {
		t.Errorf("last record shift = %g, want 10", got)
	}
	if got := dr[5][0] - orig[5][0]; got != 5 {
		t.Errorf("middle record shift = %g, want 5", got)
	}
	// Untouched attribute.
	if dr[7][1] != orig[7][1] {
		t.Error("drift leaked into other attribute")
	}
}

func TestDriftedErrors(t *testing.T) {
	if _, err := Drifted(nil, 0, 1); err == nil {
		t.Error("empty records accepted")
	}
	if _, err := Drifted(records(7, 3), 5, 1); err == nil {
		t.Error("out-of-range attribute accepted")
	}
}

func TestDriftedSingleRecord(t *testing.T) {
	dr, err := Drifted(records(8, 1), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(dr) != 1 {
		t.Fatal("length changed")
	}
}

// Integration: dynamic condensation keeps group sizes in [k, 2k) even
// under concept drift.
func TestDriftStreamKeepsInvariants(t *testing.T) {
	k := 4
	d, err := NewDriver(newEngine(t, k))
	if err != nil {
		t.Fatal(err)
	}
	drifted, err := Drifted(records(9, 300), 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Feed(drifted); err != nil {
		t.Fatal(err)
	}
	for i, g := range d.Condensation().Groups() {
		if g.N() >= 2*k {
			t.Errorf("group %d has %d ≥ 2k records under drift", i, g.N())
		}
	}
}

func TestDriverTelemetry(t *testing.T) {
	d, err := NewDriver(newEngine(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	d.SetTelemetry(reg)
	if err := d.Feed(records(5, 40)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("stream_records_total").Value(); got != 40 {
		t.Errorf("stream_records_total = %d, want 40", got)
	}
	if got := reg.Gauge("stream_records_per_second").Value(); got <= 0 {
		t.Errorf("stream_records_per_second = %g, want > 0", got)
	}
	// 40 records at k=3 must have grown groups from zero.
	if got := reg.Gauge("stream_group_churn").Value(); got < 1 {
		t.Errorf("stream_group_churn = %g, want ≥ 1", got)
	}

	// A second Feed that adds no groups reports zero churn for that call.
	before := d.Condensation().NumGroups()
	if err := d.Feed(records(6, 1)); err != nil {
		t.Fatal(err)
	}
	wantChurn := float64(d.Condensation().NumGroups() - before)
	if got := reg.Gauge("stream_group_churn").Value(); got != wantChurn {
		t.Errorf("churn after 1-record feed = %g, want %g", got, wantChurn)
	}
}

func TestDriverLogger(t *testing.T) {
	d, err := NewDriver(newEngine(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	log, err := telemetry.NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	d.SetLogger(log)
	d.SnapshotEvery = 10
	if err := d.Feed(records(7, 30)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(buf.String()), "\n") + 1
	if lines != 3 {
		t.Errorf("%d progress lines, want 3 (every 10 of 30 records):\n%s", lines, buf.String())
	}
	if !strings.Contains(buf.String(), `"msg":"stream progress"`) {
		t.Errorf("missing progress message: %s", buf.String())
	}
}

// TestDriverBatchedFeedEquivalence: feeding with any BatchSize produces the
// identical condensation, seen count, and snapshot sequence as per-record
// feeding — batching is a pure throughput knob.
func TestDriverBatchedFeedEquivalence(t *testing.T) {
	stream := records(7, 500)

	feed := func(batch int) (*Driver, []byte) {
		t.Helper()
		d, err := NewDriver(newEngine(t, 4))
		if err != nil {
			t.Fatal(err)
		}
		d.SnapshotEvery = 64
		d.BatchSize = batch
		if err := d.Feed(stream); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := d.Condensation().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return d, buf.Bytes()
	}

	ref, want := feed(0)
	for _, batch := range []int{2, 50, 64, 100, 1000} {
		d, got := feed(batch)
		if !bytes.Equal(got, want) {
			t.Errorf("BatchSize=%d: condensation differs from per-record feed", batch)
		}
		if d.Seen() != ref.Seen() {
			t.Errorf("BatchSize=%d: seen %d, want %d", batch, d.Seen(), ref.Seen())
		}
		gotSnaps, wantSnaps := d.Snapshots(), ref.Snapshots()
		if len(gotSnaps) != len(wantSnaps) {
			t.Fatalf("BatchSize=%d: %d snapshots, want %d", batch, len(gotSnaps), len(wantSnaps))
		}
		for i := range gotSnaps {
			if gotSnaps[i] != wantSnaps[i] {
				t.Errorf("BatchSize=%d: snapshot %d = %+v, want %+v", batch, i, gotSnaps[i], wantSnaps[i])
			}
		}
	}
}

// A cancelled context stops a batched feed before the chunk is applied
// and keeps the delivered count honest.
func TestDriverBatchedFeedCancelled(t *testing.T) {
	d, err := NewDriver(newEngine(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	d.BatchSize = 32
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := d.FeedContext(ctx, records(9, 100)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d.Seen() != d.Condensation().TotalCount() {
		t.Errorf("seen %d but condensed %d", d.Seen(), d.Condensation().TotalCount())
	}
	if err := d.Feed(records(9, 100)); err != nil {
		t.Fatal(err)
	}
}
