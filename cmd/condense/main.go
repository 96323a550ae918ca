// Command condense anonymizes a CSV data set with the condensation
// approach: it reads records (attributes plus a final class/target
// column), condenses them into groups of at least k records, synthesizes
// anonymized records from the group statistics, and writes the anonymized
// CSV. A condensation report goes to standard error.
//
// Usage:
//
//	condense -in data.csv -out anon.csv -k 20 [flags]
//
// Flags:
//
//	-in file        input CSV with a header row (required; "-" for stdin)
//	-out file       output CSV (required; "-" for stdout)
//	-k int          indistinguishability level (default 10)
//	-task string    "classification" or "regression" (default classification)
//	-mode string    "static" or "dynamic" (default static)
//	-synthesis string  "uniform" (paper) or "gaussian" (default uniform)
//	-seed uint      random seed (default 1)
//	-initial float  dynamic mode: initial static fraction (default 0.25)
//	-par int        static distance-sweep parallelism (0 = all CPUs)
//	-audit          print a per-class privacy-audit report (JSON) to stderr
//	-trace-out file write a Chrome trace of the condensation pipeline
//	-watch url      probe a running condenserd and print a one-shot
//	                health/trend report instead of condensing (-watch-last
//	                bounds the flight-recorder windows shown)
//	-bundle url     fetch a diagnostics bundle (tar.gz) from a running
//	                condenserd instead of condensing; -bundle-out names
//	                the destination file (default condense-bundle.tar.gz)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"condensation/internal/audit"
	"condensation/internal/core"
	"condensation/internal/dataset"
	"condensation/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "condense: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("condense", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in        = fs.String("in", "", "input CSV file (\"-\" for stdin)")
		out       = fs.String("out", "", "output CSV file (\"-\" for stdout)")
		k         = fs.Int("k", 10, "indistinguishability level (minimum group size)")
		task      = fs.String("task", "classification", "task: classification or regression")
		mode      = fs.String("mode", "static", "condensation mode: static or dynamic")
		synthesis = fs.String("synthesis", "uniform", "synthesis distribution: uniform or gaussian")
		seed      = fs.Uint64("seed", 1, "random seed")
		initial   = fs.Float64("initial", 0.25, "dynamic mode: fraction condensed statically up front")
		par       = fs.Int("par", 0, "static distance-sweep parallelism (0 = all CPUs)")
		stats     = fs.String("stats", "", "optional file to write the per-class condensation statistics (the paper's H sets) to")
		logLevel  = fs.String("log-level", "warn", "log level: debug, info, warn, error, or off")
		logFormat = fs.String("log-format", "text", "log format: text or json")
		auditFlag = fs.Bool("audit", false, "print a per-class privacy-audit report (JSON) to stderr")
		traceOut  = fs.String("trace-out", "", "write a Chrome trace-event file of the condensation pipeline")
		watch     = fs.String("watch", "", "probe a running condenserd at this base URL and print a one-shot health/trend report (no -in/-out needed)")
		watchLast = fs.Int("watch-last", 10, "flight-recorder windows to show in the -watch report")
		bundle    = fs.String("bundle", "", "fetch a diagnostics bundle (GET /debug/bundle) from a running condenserd at this base URL and write it to -bundle-out (no -in/-out needed)")
		bundleOut = fs.String("bundle-out", "condense-bundle.tar.gz", "destination file for the -bundle download")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := telemetry.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	if *watch != "" {
		return watchReport(stdout, *watch, *watchLast)
	}
	if *bundle != "" {
		return fetchBundle(stderr, *bundle, *bundleOut)
	}
	if *in == "" || *out == "" {
		fs.Usage()
		return fmt.Errorf("both -in and -out are required")
	}

	var dsTask dataset.Task
	switch *task {
	case "classification":
		dsTask = dataset.Classification
	case "regression":
		dsTask = dataset.Regression
	default:
		return fmt.Errorf("unknown -task %q", *task)
	}

	var condenseMode core.Mode
	switch *mode {
	case "static":
		condenseMode = core.ModeStatic
	case "dynamic":
		condenseMode = core.ModeDynamic
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	var synthMode core.Synthesis
	switch *synthesis {
	case "uniform":
		synthMode = core.SynthesisUniform
	case "gaussian":
		synthMode = core.SynthesisGaussian
	default:
		return fmt.Errorf("unknown -synthesis %q", *synthesis)
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		// A one-shot pipeline run: sample everything.
		tracer = telemetry.NewTracer(0, 1)
	}
	condenser, err := core.NewCondenser(*k,
		core.WithSeed(*seed),
		core.WithMode(condenseMode),
		core.WithSynthesis(synthMode),
		core.WithInitialFraction(*initial),
		core.WithParallelism(*par),
		core.WithTracer(tracer))
	if err != nil {
		return err
	}

	reader := stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		reader = f
	}
	ds, err := dataset.ReadCSV(reader, *in, dsTask)
	if err != nil {
		return err
	}
	log.Debug("read input",
		slog.String("file", *in),
		slog.Int("records", ds.Len()),
		slog.Int("dim", ds.Dim()))

	anon, report, err := condenser.Anonymize(ds)
	if err != nil {
		return err
	}
	log.Debug("condensed",
		slog.Int("groups", report.TotalGroups()),
		slog.Float64("avg_group_size", report.AvgGroupSize()))

	if *stats != "" {
		byClass := make(map[int]*core.Condensation, len(report.Classes))
		for _, cr := range report.Classes {
			byClass[cr.Label] = cr.Cond
		}
		f, err := os.Create(*stats)
		if err != nil {
			return err
		}
		if _, err := core.WriteClassCondensations(f, byClass); err != nil {
			f.Close()
			return fmt.Errorf("writing statistics: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote condensation statistics to %s\n", *stats)
	}

	writer := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		writer = f
	}
	if err := dataset.WriteCSV(writer, anon); err != nil {
		return err
	}

	fmt.Fprintf(stderr, "condensed %d records into %d groups (avg size %.1f, mode %s, k=%d)\n",
		report.TotalRecords(), report.TotalGroups(), report.AvgGroupSize(), condenseMode, *k)
	for _, cr := range report.Classes {
		label := fmt.Sprintf("class %d", cr.Label)
		if cr.Label < 0 {
			label = "all records"
		}
		fmt.Fprintf(stderr, "  %s: %d records, %d groups, min group %d\n",
			label, cr.Records, cr.Groups, cr.MinGroupSize)
	}
	if *auditFlag {
		if err := printAudit(stderr, ds, report, *seed); err != nil {
			return fmt.Errorf("audit: %w", err)
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := tracer.WriteChromeTrace(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "wrote pipeline trace to %s (%d spans)\n", *traceOut, tracer.Len())
	}
	return nil
}

// printAudit writes one privacy-audit report per condensed class to w as
// indented JSON. The original records are at hand here (unlike the
// server's reservoir), so the KS comparison uses every record of the
// class. Static condensation folds sub-k remainders into their nearest
// group, so the leftover count is always zero for this command.
func printAudit(w io.Writer, ds *dataset.Dataset, report *core.Report, seed uint64) error {
	byClass := ds.ByClass()
	for _, cr := range report.Classes {
		originals := ds.Records()
		if cr.Label >= 0 {
			idx := byClass[cr.Label]
			sub, err := ds.Subset(idx)
			if err != nil {
				return err
			}
			originals = sub.Records()
		}
		rep, err := audit.Compute(cr.Cond, audit.Config{Original: originals, SynthSeed: seed})
		if err != nil {
			return err
		}
		label := fmt.Sprintf("class %d", cr.Label)
		if cr.Label < 0 {
			label = "all records"
		}
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "privacy audit (%s):\n%s\n", label, out)
	}
	return nil
}
