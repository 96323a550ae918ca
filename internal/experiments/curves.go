package experiments

import (
	"errors"
	"fmt"
	"log/slog"

	"condensation/internal/core"
	"condensation/internal/dataset"
	"condensation/internal/knn"
	"condensation/internal/metrics"
	"condensation/internal/rng"
)

// Config tunes the figure-regeneration experiments.
type Config struct {
	// Seed makes the whole experiment deterministic.
	Seed uint64
	// GroupSizes is the x-axis of every figure: the indistinguishability
	// levels k to sweep. Defaults to the paper's visible range.
	GroupSizes []int
	// TrainFraction is the train/test split ratio. Values outside the
	// open interval (0, 1) — including the zero value — are silently
	// coerced to the default 0.75.
	TrainFraction float64
	// Repetitions averages each point over this many independent splits
	// and condensations, smoothing sampling noise. Values < 1 are
	// silently coerced to the default 3.
	Repetitions int
	// ClassifierK is the nearest-neighbour k (the paper's "class label of
	// the closest record"). Values < 1 are silently coerced to the
	// default 1.
	ClassifierK int
	// Tolerance is the regression hit tolerance (the paper's "within one
	// year" for Abalone). Values <= 0 are silently coerced to the
	// default 1.
	Tolerance float64
	// InitialFraction is passed through to dynamic condensation.
	InitialFraction float64
	// Options tunes the condensation itself (synthesis, split axis, ...).
	Options core.Options
	// Parallelism bounds the worker goroutines of the whole evaluation
	// stack: the (k × repetitions) experiment cell pool, the k-NN
	// PredictAll sweep, per-group synthesis, and the static distance
	// sweep. 0 (the zero value) means runtime.NumCPU(); negative values
	// are rejected with an error rather than coerced, because a negative
	// count is always a caller bug. Results are bit-identical for every
	// setting.
	Parallelism int
	// Logger, when set, receives structured progress events as experiment
	// cells complete, so long runs are not silent. Logging is observe-only
	// and never changes results.
	Logger *slog.Logger
	// LogEvery is the progress cadence in completed cells; values < 1 mean
	// a tenth of the grid (at least 1). Ignored without a Logger.
	LogEvery int
}

// anonymizeConfig assembles the core anonymization config for one
// (k, mode) cell of a study.
func (c Config) anonymizeConfig(k int, mode core.Mode) core.AnonymizeConfig {
	return core.AnonymizeConfig{
		K:               k,
		Mode:            mode,
		Options:         c.Options,
		InitialFraction: c.InitialFraction,
		Parallelism:     c.Parallelism,
	}
}

// condenser builds the Condenser facade for one k, drawing randomness
// from r so repetitions stay independent.
func (c Config) condenser(k int, r *rng.Source) (*core.Condenser, error) {
	return core.NewCondenser(k,
		core.WithRandomSource(r),
		core.WithOptions(c.Options),
		core.WithParallelism(c.Parallelism))
}

// fill applies the documented defaults in place. Unlike the coerced
// fields, a negative Parallelism is rejected explicitly: it can only be a
// caller bug, and silently running sequentially would hide it.
func (c *Config) fill() error {
	if c.Parallelism < 0 {
		return fmt.Errorf("experiments: Parallelism = %d, must be ≥ 0 (0 means runtime.NumCPU())", c.Parallelism)
	}
	if len(c.GroupSizes) == 0 {
		c.GroupSizes = []int{2, 5, 10, 15, 20, 25, 30, 40, 50}
	}
	if c.TrainFraction <= 0 || c.TrainFraction >= 1 {
		c.TrainFraction = 0.75
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 3
	}
	if c.ClassifierK <= 0 {
		c.ClassifierK = 1
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1
	}
	return nil
}

// AccuracyPoint is one x-position of a figure's panel (a).
type AccuracyPoint struct {
	// K is the requested indistinguishability level.
	K int
	// AvgGroupSize is the achieved average group size (the paper's
	// x-coordinate).
	AvgGroupSize float64
	// Static, Dynamic, and Original are the three accuracy series.
	Static, Dynamic, Original float64
}

// CompatPoint is one x-position of a figure's panel (b).
type CompatPoint struct {
	// K is the requested indistinguishability level.
	K int
	// AvgGroupSize is the achieved average group size.
	AvgGroupSize float64
	// Static and Dynamic are the covariance compatibility µ series.
	Static, Dynamic float64
}

// AccuracyCurve reproduces a figure's panel (a): classifier accuracy as a
// function of the average condensation group size, with static
// condensation, dynamic condensation, and the no-perturbation original as
// the three series. The classifier is trained on (possibly anonymized)
// training data and always evaluated on untouched original test data.
func AccuracyCurve(ds *dataset.Dataset, cfg Config) ([]AccuracyPoint, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	root := rng.New(cfg.Seed)
	reps := cfg.Repetitions
	type cell struct{ orig, static, dynamic, avg float64 }
	cells := make([]cell, len(cfg.GroupSizes)*reps)
	srcs := presplit(root, len(cells))
	err := cfg.runCells(len(cells), func(i int) error {
		k := cfg.GroupSizes[i/reps]
		r := srcs[i]
		train, test, err := ds.TrainTestSplit(cfg.TrainFraction, r)
		if err != nil {
			return err
		}
		orig, err := evaluate(train, test, cfg)
		if err != nil {
			return err
		}
		staticAcc, _, err := anonymizeAndEvaluate(train, test, cfg, k, core.ModeStatic, r)
		if err != nil {
			return err
		}
		dynAcc, avg, err := anonymizeAndEvaluate(train, test, cfg, k, core.ModeDynamic, r)
		if err != nil {
			return err
		}
		cells[i] = cell{orig: orig, static: staticAcc, dynamic: dynAcc, avg: avg}
		return nil
	})
	if err != nil {
		return nil, err
	}
	points := make([]AccuracyPoint, 0, len(cfg.GroupSizes))
	for ki, k := range cfg.GroupSizes {
		point := AccuracyPoint{K: k}
		var avgSum float64
		for rep := 0; rep < reps; rep++ {
			c := cells[ki*reps+rep]
			point.Original += c.orig
			point.Static += c.static
			point.Dynamic += c.dynamic
			avgSum += c.avg
		}
		n := float64(reps)
		point.Original /= n
		point.Static /= n
		point.Dynamic /= n
		point.AvgGroupSize = avgSum / n
		points = append(points, point)
	}
	return points, nil
}

// anonymizeAndEvaluate condenses the training data at level k in the given
// mode and scores the resulting classifier on the original test data.
func anonymizeAndEvaluate(train, test *dataset.Dataset, cfg Config, k int, mode core.Mode, r *rng.Source) (acc, avgGroupSize float64, err error) {
	anon, report, err := core.Anonymize(train, cfg.anonymizeConfig(k, mode), r)
	if err != nil {
		return 0, 0, err
	}
	acc, err = evaluate(anon, test, cfg)
	if err != nil {
		return 0, 0, err
	}
	return acc, report.AvgGroupSize(), nil
}

// evaluate trains the paper's classifier (or regressor) on train and
// scores it on test: accuracy for classification, within-tolerance rate
// for regression. The scoring sweep inherits cfg.Parallelism; predictions
// are pure functions of the fitted model, so the parallel sweep changes
// nothing but wall-clock time.
func evaluate(train, test *dataset.Dataset, cfg Config) (float64, error) {
	switch train.Task {
	case dataset.Classification:
		clf, err := knn.NewClassifier(train, cfg.ClassifierK)
		if err != nil {
			return 0, err
		}
		clf.SetParallelism(cfg.Parallelism)
		preds, err := clf.PredictAll(test)
		if err != nil {
			return 0, err
		}
		return metrics.Accuracy(preds, test.Labels)
	case dataset.Regression:
		reg, err := knn.NewRegressor(train, cfg.ClassifierK)
		if err != nil {
			return 0, err
		}
		reg.SetParallelism(cfg.Parallelism)
		preds, err := reg.PredictAll(test)
		if err != nil {
			return 0, err
		}
		return metrics.WithinTolerance(preds, test.Targets, cfg.Tolerance)
	default:
		return 0, fmt.Errorf("experiments: unsupported task %v", train.Task)
	}
}

// CompatibilityCurve reproduces a figure's panel (b): the covariance
// compatibility coefficient µ between the original data set and its
// anonymized counterpart, for static and dynamic condensation, as a
// function of average group size. Per the paper, the comparison is over
// the whole data set's covariance structure.
func CompatibilityCurve(ds *dataset.Dataset, cfg Config) ([]CompatPoint, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if ds.Len() == 0 {
		return nil, errors.New("experiments: empty data set")
	}
	root := rng.New(cfg.Seed)
	reps := cfg.Repetitions
	type cell struct{ static, dynamic, avg float64 }
	cells := make([]cell, len(cfg.GroupSizes)*reps)
	srcs := presplit(root, len(cells))
	err := cfg.runCells(len(cells), func(i int) error {
		k := cfg.GroupSizes[i/reps]
		r := srcs[i]
		muStatic, _, err := anonymizeAndCompare(ds, cfg, k, core.ModeStatic, r)
		if err != nil {
			return err
		}
		muDynamic, avg, err := anonymizeAndCompare(ds, cfg, k, core.ModeDynamic, r)
		if err != nil {
			return err
		}
		cells[i] = cell{static: muStatic, dynamic: muDynamic, avg: avg}
		return nil
	})
	if err != nil {
		return nil, err
	}
	points := make([]CompatPoint, 0, len(cfg.GroupSizes))
	for ki, k := range cfg.GroupSizes {
		point := CompatPoint{K: k}
		var avgSum float64
		for rep := 0; rep < reps; rep++ {
			c := cells[ki*reps+rep]
			point.Static += c.static
			point.Dynamic += c.dynamic
			avgSum += c.avg
		}
		n := float64(reps)
		point.Static /= n
		point.Dynamic /= n
		point.AvgGroupSize = avgSum / n
		points = append(points, point)
	}
	return points, nil
}

// anonymizeAndCompare anonymizes the full data set and computes µ between
// original and anonymized records.
func anonymizeAndCompare(ds *dataset.Dataset, cfg Config, k int, mode core.Mode, r *rng.Source) (mu, avgGroupSize float64, err error) {
	anon, report, err := core.Anonymize(ds, cfg.anonymizeConfig(k, mode), r)
	if err != nil {
		return 0, 0, err
	}
	mu, err = metrics.CovarianceCompatibility(ds.X, anon.X)
	if err != nil {
		return 0, 0, err
	}
	return mu, report.AvgGroupSize(), nil
}

// AccuracyTable renders an accuracy curve as a figure table.
func AccuracyTable(title string, points []AccuracyPoint) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"k", "avg_group_size", "static_accuracy", "dynamic_accuracy", "original_accuracy"},
	}
	for _, p := range points {
		// Row shapes are fixed here, so AddRow cannot fail.
		_ = t.AddRow(d(p.K), f1(p.AvgGroupSize), f(p.Static), f(p.Dynamic), f(p.Original))
	}
	return t
}

// CompatibilityTable renders a compatibility curve as a figure table.
func CompatibilityTable(title string, points []CompatPoint) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"k", "avg_group_size", "static_mu", "dynamic_mu"},
	}
	for _, p := range points {
		_ = t.AddRow(d(p.K), f1(p.AvgGroupSize), f(p.Static), f(p.Dynamic))
	}
	return t
}
