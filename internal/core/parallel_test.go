package core

import (
	"bytes"
	"reflect"
	"testing"

	"condensation/internal/dataset"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// TestSynthesizeParallelEquivalence proves the synthesis determinism
// guarantee: because every group draws from its own pre-derived stream,
// the synthesized records are bit-identical for every worker count.
func TestSynthesizeParallelEquivalence(t *testing.T) {
	recs := correlatedRecords(30, 120)
	cond, err := condenseStatic(recs, 8, rng.New(31), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cond.SetParallelism(1)
	seq, err := cond.SynthesizeGrouped(rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 2, 8} {
		cond.SetParallelism(p)
		got, err := cond.SynthesizeGrouped(rng.New(32))
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("parallelism %d: synthesized groups differ from sequential", p)
		}
	}

	// The flat view concatenates the same per-group output.
	cond.SetParallelism(8)
	flat, err := cond.Synthesize(rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for gi, g := range seq {
		for pi, want := range g {
			if !flat[i].Equal(want, 0) {
				t.Fatalf("flat record %d differs from group %d point %d", i, gi, pi)
			}
			i++
		}
	}
	if i != len(flat) {
		t.Fatalf("flat synthesis has %d records, grouped has %d", len(flat), i)
	}
}

// TestSynthesizeParallelGaussian repeats the equivalence check for the
// Gaussian ablation mode, whose draw pattern differs per point.
func TestSynthesizeParallelGaussian(t *testing.T) {
	recs := correlatedRecords(33, 90)
	cond, err := condenseStatic(recs, 6, rng.New(34), Options{Synthesis: SynthesisGaussian})
	if err != nil {
		t.Fatal(err)
	}
	cond.SetParallelism(1)
	seq, err := cond.Synthesize(rng.New(35))
	if err != nil {
		t.Fatal(err)
	}
	cond.SetParallelism(8)
	par, err := cond.Synthesize(rng.New(35))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("Gaussian synthesis differs between 1 and 8 workers")
	}
}

// TestAnonymizeParallelEquivalence checks the knob end to end: a full
// Anonymize run (condense + synthesize per class, the classes condensed
// concurrently) writes byte-identical CSV at 1 and 8 workers, in both
// construction regimes, with telemetry and tracing on. The data set has
// four class indices, one of them without records, and one class large
// enough that the static engine runs the projection window.
func TestAnonymizeParallelEquivalence(t *testing.T) {
	ds := toyClassification(36, 50)
	ds.ClassNames = []string{"a", "b", "empty", "big"}
	for _, x := range factorRecords(38, windowMinRecords+500, 2) {
		ds.X = append(ds.X, x)
		ds.Labels = append(ds.Labels, 3)
	}
	for _, mode := range []Mode{ModeStatic, ModeDynamic} {
		run := func(p int) []byte {
			anon, report, err := anonymize(ds, 5, rng.New(37), WithParallelism(p), WithMode(mode),
				WithTelemetry(telemetry.NewRegistry()), WithTracer(telemetry.NewTracer(0, 1)))
			if err != nil {
				t.Fatalf("%v p=%d: %v", mode, p, err)
			}
			if len(report.Classes) != 3 {
				t.Fatalf("%v p=%d: %d class reports, want 3", mode, p, len(report.Classes))
			}
			var buf bytes.Buffer
			if err := dataset.WriteCSV(&buf, anon); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		if !bytes.Equal(run(1), run(8)) {
			t.Errorf("%v: Anonymize output differs between 1 and 8 workers", mode)
		}
	}
}

// TestMergePropagatesParallelism pins that merged condensations keep the
// first input's synthesis parallelism.
func TestMergePropagatesParallelism(t *testing.T) {
	recs := correlatedRecords(38, 40)
	a, err := condenseStatic(recs[:20], 4, rng.New(39), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := condenseStatic(recs[20:], 4, rng.New(40), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a.SetParallelism(8)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.par != 8 {
		t.Errorf("merged parallelism = %d, want 8", m.par)
	}
}
