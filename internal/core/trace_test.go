package core

import (
	"bytes"
	"context"
	"testing"

	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// TestTracingObserveOnly proves the observe-only contract of the tracing
// layer: with a tracer attached and sampling every operation, static
// condensation, dynamic per-record ingest, batch ingest, and synthesis
// all produce bit-identical output to
// the untraced run — the tracer never touches the engine's rng stream or
// routing decisions.
func TestTracingObserveOnly(t *testing.T) {
	const k, dim = 5, 3
	stream := gaussianRecords(31, 900, dim)

	build := func(tr *telemetry.Tracer) *Sharded {
		t.Helper()
		d := singleShard(t, k, dim, 7)
		d.SetTracer(tr)
		return d
	}

	// Reference: no tracer, sequential Add.
	ref := build(nil)
	for _, x := range stream {
		if err := ref.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	want := dynamicFingerprint(t, ref.shards[0].dyn)

	// Traced per-record ingest, sampling every record.
	tr := telemetry.NewTracer(256, 1)
	d := build(tr)
	for _, x := range stream {
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(want, dynamicFingerprint(t, d.shards[0].dyn)) {
		t.Fatal("traced Add diverged from untraced run")
	}
	if tr.Len() == 0 {
		t.Fatal("tracing at 1-in-1 recorded no spans")
	}

	// Traced batch ingest under a request-style parent span.
	tr = telemetry.NewTracer(256, 1)
	d = build(tr)
	ctx, root := tr.Start(context.Background(), "request")
	if err := d.AddBatchContext(ctx, stream); err != nil {
		t.Fatal(err)
	}
	root.End()
	if !bytes.Equal(want, dynamicFingerprint(t, d.shards[0].dyn)) {
		t.Fatal("traced AddBatchContext diverged from untraced run")
	}
	names := map[string]bool{}
	for _, ev := range tr.Events(0) {
		names[ev.Name] = true
	}
	for _, n := range []string{"dynamic.add_batch", "dynamic.split"} {
		if !names[n] {
			t.Errorf("batch trace missing %q span (got %v)", n, names)
		}
	}

	// Static pipeline: traced and untraced runs condense identically.
	records := gaussianRecords(41, 300, dim)
	plain, err := NewCondenser(k, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	wantCond, err := plain.Static(records)
	if err != nil {
		t.Fatal(err)
	}
	tr = telemetry.NewTracer(64, 1)
	traced, err := NewCondenser(k, WithSeed(3), WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	gotCond, err := traced.Static(records)
	if err != nil {
		t.Fatal(err)
	}
	wantSynth, err := wantCond.Synthesize(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	gotCond.SetTracer(tr)
	gotSynth, err := gotCond.Synthesize(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(wantSynth) != len(gotSynth) {
		t.Fatalf("synthesis sizes differ: %d vs %d", len(wantSynth), len(gotSynth))
	}
	for i := range wantSynth {
		for j := range wantSynth[i] {
			if wantSynth[i][j] != gotSynth[i][j] {
				t.Fatalf("traced synthesis diverged at record %d attr %d", i, j)
			}
		}
	}
	names = map[string]bool{}
	for _, ev := range tr.Events(0) {
		names[ev.Name] = true
	}
	for _, n := range []string{"static.condense", "static.groups", "synthesize"} {
		if !names[n] {
			t.Errorf("static trace missing %q span (got %v)", n, names)
		}
	}
}

// TestTracingDisabledNoSpans: the default nil tracer records nothing and
// ingest still works (the hot-path guard).
func TestTracingDisabledNoSpans(t *testing.T) {
	d := singleShard(t, 3, 2, 1)
	d.SetTracer(nil)
	for _, x := range gaussianRecords(2, 50, 2) {
		if err := d.Add(x); err != nil {
			t.Fatal(err)
		}
	}
	if d.TotalCount() != 50 {
		t.Fatalf("ingested %d records, want 50", d.TotalCount())
	}
}
