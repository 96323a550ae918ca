// Command experiments regenerates the paper's evaluation: every figure
// panel (5a–8b), the ablation studies, and the baseline comparisons, as
// aligned text tables or CSV.
//
// Usage:
//
//	experiments -fig all                 # all eight figure panels
//	experiments -fig 5a -reps 5          # one panel, more averaging
//	experiments -study ablation-split    # a named ablation/baseline study
//	experiments -fig all -format csv     # machine-readable output
//
// Studies: ablation-split, ablation-synthesis, ablation-leftover,
// perturbation, kanon, attack, clustering.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"condensation/internal/datagen"
	"condensation/internal/experiments"
	"condensation/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.String("fig", "", "figure panel to regenerate (5a..8b) or \"all\"")
		study   = fs.String("study", "", "named study: ablation-split, ablation-synthesis, ablation-leftover, perturbation, kanon, attack, clustering, tree, assoc, scaling, fidelity, naivebayes, linreg")
		ds      = fs.String("dataset", "pima", "data set for -study runs")
		seed    = fs.Uint64("seed", 7, "random seed")
		sizes   = fs.String("sizes", "", "comma-separated group sizes (default per-experiment)")
		reps    = fs.Int("reps", 3, "repetitions to average per point")
		format  = fs.String("format", "text", "output format: text or csv")
		knnK    = fs.Int("knn", 1, "nearest-neighbour classifier k")
		initial = fs.Float64("initial", 0.25, "dynamic mode: initial static fraction")
		par     = fs.Int("par", 0, "worker goroutines for experiment cells, synthesis, and classifier scoring (0 = all CPUs; results are identical for every setting)")

		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn, error, or off")
		logFormat = fs.String("log-format", "text", "log format: text or json")
		logEvery  = fs.Int("log-every", 0, "progress cadence in completed experiment cells (0 = a tenth of the grid)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := telemetry.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if (*fig == "") == (*study == "") {
		fs.Usage()
		return fmt.Errorf("exactly one of -fig or -study is required")
	}

	cfg := experiments.Config{
		Seed:            *seed,
		Repetitions:     *reps,
		ClassifierK:     *knnK,
		InitialFraction: *initial,
		Parallelism:     *par,
		Logger:          log,
		LogEvery:        *logEvery,
	}
	if *sizes != "" {
		parsed, err := parseSizes(*sizes)
		if err != nil {
			return err
		}
		cfg.GroupSizes = parsed
	}

	emit := func(t *experiments.Table) error {
		switch *format {
		case "text":
			if err := t.Render(stdout); err != nil {
				return err
			}
			_, err := fmt.Fprintln(stdout)
			return err
		case "csv":
			return t.CSV(stdout)
		default:
			return fmt.Errorf("unknown -format %q", *format)
		}
	}

	if *fig != "" {
		ids := []string{*fig}
		if *fig == "all" {
			ids = experiments.FigureIDs()
		}
		for _, id := range ids {
			table, err := experiments.RunFigure(id, cfg)
			if err != nil {
				return err
			}
			if err := emit(table); err != nil {
				return err
			}
		}
		return nil
	}

	data, err := datagen.ByName(*ds, *seed)
	if err != nil {
		return err
	}
	var table *experiments.Table
	switch *study {
	case "ablation-split":
		table, err = experiments.SplitAxisAblation(data, cfg)
	case "ablation-synthesis":
		table, err = experiments.SynthesisAblation(data, cfg)
	case "ablation-leftover":
		table, err = experiments.LeftoverAblation(data, cfg)
	case "perturbation":
		table, err = experiments.PerturbationComparison(data, []float64{0.25, 0.5, 1, 2}, cfg)
	case "kanon":
		table, err = experiments.KAnonymityComparison(data, cfg)
	case "attack":
		table, err = experiments.AttackStudy(data, cfg)
	case "clustering":
		table, err = experiments.ClusteringStudy(data, max(2, data.NumClasses()), cfg)
	case "tree":
		table, err = experiments.TreeStudy(data, cfg)
	case "assoc":
		table, err = experiments.AssociationStudy(data, 4, 0.15, 0.7, cfg)
	case "scaling":
		table, err = experiments.ScalingStudy(20, nil, cfg)
	case "fidelity":
		table, err = experiments.FidelityStudy(*ds, cfg)
	case "naivebayes":
		table, err = experiments.NaiveBayesStudy(data, cfg)
	case "linreg":
		table, err = experiments.LinRegStudy(data, cfg)
	default:
		return fmt.Errorf("unknown -study %q", *study)
	}
	if err != nil {
		return err
	}
	return emit(table)
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad group size %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no group sizes in %q", s)
	}
	return out, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
