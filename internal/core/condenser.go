package core

import (
	"context"
	"errors"
	"fmt"

	"condensation/internal/dataset"
	"condensation/internal/mat"
	"condensation/internal/rng"
	"condensation/internal/telemetry"
)

// Condenser is the package's front door: one configured entry point for
// static condensation, dynamic stream maintenance, and data-set level
// anonymization. Build one with NewCondenser and functional options:
//
//	c, err := core.NewCondenser(25,
//		core.WithSeed(7),
//		core.WithSynthesis(core.SynthesisUniform),
//		core.WithParallelism(8))
//	cond, err := c.Static(records)
//
// The zero configuration — NewCondenser(k) with no options — reproduces
// the paper exactly: uniform synthesis, principal-axis splits, leftovers
// merged into their nearest groups, seed 1, and the exact fused sweep +
// bounded top-k neighbour search (which forms the same groups as the
// paper's full scan-and-sort, exact distance ties going to the lower
// record index).
//
// Unless WithRandomSource overrides it, every call derives a fresh rng
// stream from the configured seed, so calls are independently reproducible
// and a Condenser may be shared between goroutines.
type Condenser struct {
	k       int
	seed    uint64
	source  *rng.Source // optional caller-managed stream
	opts    Options
	par     int // distance-sweep and synthesis workers; < 1 means NumCPU
	mode    Mode
	initial float64
	tel     *telemetry.Registry // nil means telemetry disabled
	trace   *telemetry.Tracer   // nil means tracing disabled
	journal *telemetry.Journal  // nil means lifecycle journal disabled

	search    NeighborSearch // only validated; see WithNeighborSearch
	precision IndexPrecision // only validated; see WithIndexPrecision
}

// CondenserOption configures a Condenser.
type CondenserOption func(*Condenser)

// WithSeed sets the seed from which each call's rng stream is derived
// (default 1).
func WithSeed(seed uint64) CondenserOption {
	return func(c *Condenser) { c.seed = seed; c.source = nil }
}

// WithRandomSource makes every call draw from the given shared stream
// instead of re-deriving one from the seed. This is for callers weaving
// condensation into a larger deterministic experiment (r.Split() chains);
// it makes the Condenser stateful and not safe for concurrent use.
func WithRandomSource(r *rng.Source) CondenserOption {
	return func(c *Condenser) { c.source = r }
}

// WithSynthesis selects the regeneration distribution (default uniform,
// the paper's choice).
func WithSynthesis(s Synthesis) CondenserOption {
	return func(c *Condenser) { c.opts.Synthesis = s }
}

// WithSplitAxis selects the dynamic split direction (default principal,
// the paper's choice).
func WithSplitAxis(a SplitAxis) CondenserOption {
	return func(c *Condenser) { c.opts.SplitAxis = a }
}

// WithLeftover selects the static leftover policy (default nearest group,
// the paper's choice).
func WithLeftover(l Leftover) CondenserOption {
	return func(c *Condenser) { c.opts.Leftover = l }
}

// WithOptions replaces the whole option block at once — a bridge for
// callers that already hold an Options value.
func WithOptions(o Options) CondenserOption {
	return func(c *Condenser) { c.opts = o }
}

// WithParallelism bounds the worker goroutines of the static distance
// sweep; values < 1 (the default) mean runtime.NumCPU().
func WithParallelism(p int) CondenserOption {
	return func(c *Condenser) { c.par = p }
}

// WithMode selects the construction regime Anonymize uses (default
// static).
func WithMode(m Mode) CondenserOption {
	return func(c *Condenser) { c.mode = m }
}

// WithInitialFraction sets the fraction of records condensed statically up
// front in dynamic-mode Anonymize (default 0.25; values outside (0, 1]
// fall back to the default).
func WithInitialFraction(f float64) CondenserOption {
	return func(c *Condenser) { c.initial = f }
}

// WithTracer attaches a span tracer: static condensation, dynamic ingest,
// and synthesis then record sampled execution spans into its ring buffer.
// A nil tracer (the default) disables tracing. Tracing is observe-only —
// it never touches the rng stream, so output is bit-identical either way.
func WithTracer(tr *telemetry.Tracer) CondenserOption {
	return func(c *Condenser) { c.trace = tr }
}

// WithJournal attaches a group-lifecycle journal: dynamic engines built by
// this Condenser then record structured foundings, splits (with
// parent→child lineage), and router rebuilds into its ring. A nil journal
// (the default) disables recording. Like the tracer, the journal is
// observe-only — it never touches the rng stream, so condensed output is
// bit-identical either way.
func WithJournal(j *telemetry.Journal) CondenserOption {
	return func(c *Condenser) { c.journal = j }
}

// NewCondenser builds a Condenser with indistinguishability level k. The
// zero configuration reproduces the paper; see the type documentation.
func NewCondenser(k int, opts ...CondenserOption) (*Condenser, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: indistinguishability level k = %d, must be ≥ 1", k)
	}
	c := &Condenser{k: k, seed: 1}
	for _, opt := range opts {
		opt(c)
	}
	if err := c.opts.validate(); err != nil {
		return nil, err
	}
	if err := c.search.validate(); err != nil {
		return nil, err
	}
	if err := c.precision.validate(); err != nil {
		return nil, err
	}
	if c.mode != ModeStatic && c.mode != ModeDynamic {
		return nil, fmt.Errorf("core: unknown mode %d", int(c.mode))
	}
	return c, nil
}

// K returns the configured indistinguishability level.
func (c *Condenser) K() int { return c.k }

// Options returns the configured semantic options.
func (c *Condenser) Options() Options { return c.opts }

// rng returns the stream a call should draw from: the shared source when
// one was injected, otherwise a fresh stream derived from the seed.
func (c *Condenser) rng() *rng.Source {
	if c.source != nil {
		return c.source
	}
	return rng.New(c.seed)
}

// Static condenses the records into groups of at least k (Figure 1) using
// the configured parallelism.
func (c *Condenser) Static(records []mat.Vector) (*Condensation, error) {
	return c.StaticContext(context.Background(), records)
}

// StaticContext is Static with a context: a span carried by ctx becomes
// the parent of the pipeline's trace spans (the context is not consulted
// for cancellation).
func (c *Condenser) StaticContext(ctx context.Context, records []mat.Vector) (*Condensation, error) {
	cond, _, err := staticCondense(ctx, records, c.k, c.rng(), c.opts, c.par, c.tel, c.trace)
	return cond, err
}

// StaticWithMembers is Static, additionally reporting which original
// records each group condensed — for privacy evaluation and tests only;
// membership must never leave the trusted collection boundary.
func (c *Condenser) StaticWithMembers(records []mat.Vector) (*Condensation, [][]int, error) {
	return staticCondense(context.Background(), records, c.k, c.rng(), c.opts, c.par, c.tel, c.trace)
}

// Dynamic returns an empty dynamic condenser (Figure 2) over records of
// the given dimensionality, for pure-stream deployments with no initial
// database.
func (c *Condenser) Dynamic(dim int) (*Dynamic, error) {
	d, err := NewDynamicEmpty(dim, c.k, c.opts, c.rng())
	if err != nil {
		return nil, err
	}
	d.SetTelemetry(c.tel)
	d.SetTracer(c.trace)
	d.SetJournal(c.journal)
	return d, nil
}

// DynamicFrom returns a dynamic condenser seeded from an existing
// condensation — the paper's H = CreateCondensedGroups(k, D)
// initialization. The initial condensation's dimensionality is used; its k
// and options are superseded by the Condenser's.
func (c *Condenser) DynamicFrom(initial *Condensation) (*Dynamic, error) {
	if initial == nil {
		return nil, errors.New("core: nil initial condensation")
	}
	d, err := NewDynamic(initial, c.rng())
	if err != nil {
		return nil, err
	}
	d.k = c.k
	d.opts = c.opts
	d.SetTelemetry(c.tel)
	d.SetTracer(c.trace)
	d.SetJournal(c.journal)
	return d, nil
}

// Bootstrap condenses an initial database statically and returns a
// dynamic condenser maintaining it — the paper's full dynamic setting in
// one call.
func (c *Condenser) Bootstrap(initial []mat.Vector) (*Dynamic, error) {
	r := c.rng()
	cond, _, err := staticCondense(context.Background(), initial, c.k, r, c.opts, c.par, c.tel, c.trace)
	if err != nil {
		return nil, err
	}
	d, err := NewDynamic(cond, r)
	if err != nil {
		return nil, err
	}
	d.SetTelemetry(c.tel)
	d.SetTracer(c.trace)
	d.SetJournal(c.journal)
	return d, nil
}

// Anonymize produces a privacy-preserving replacement for ds using the
// configured mode, per-class for classification and jointly with the
// target for regression (Section 3.1).
func (c *Condenser) Anonymize(ds *dataset.Dataset) (*dataset.Dataset, *Report, error) {
	cfg := AnonymizeConfig{
		K:               c.k,
		Mode:            c.mode,
		Options:         c.opts,
		InitialFraction: c.initial,
		Parallelism:     c.par,
		Telemetry:       c.tel,
		Tracer:          c.trace,
	}
	return Anonymize(ds, cfg, c.rng())
}
