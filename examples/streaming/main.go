// Streaming: the dynamic setting of Section 3 of the paper. An initial
// database is condensed statically; records then arrive one at a time and
// are folded into the nearest group's statistics, with groups splitting
// along their principal eigenvector whenever they reach 2k records. The
// example prints periodic snapshots showing the group population growing
// while every group stays within [k, 2k), then verifies the privacy
// guarantee with an audit.
package main

import (
	"fmt"
	"log"

	"condensation/internal/core"
	"condensation/internal/datagen"
	"condensation/internal/privacy"
	"condensation/internal/rng"
	"condensation/internal/stream"
)

func main() {
	const k = 25
	r := rng.New(11)

	// Synthetic Abalone stands in for a measurement stream; the first 500
	// records form the initial database, the rest arrive incrementally.
	ds := datagen.Abalone(11)
	initial := ds.X[:500]
	arriving := stream.Shuffled(ds.X[500:], r.Split())

	condenser, err := core.NewCondenser(k, core.WithRandomSource(r.Split()))
	if err != nil {
		log.Fatal(err)
	}
	base, err := condenser.Static(initial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial database: %d records in %d groups\n", base.TotalCount(), base.NumGroups())

	// One shard runs the paper's dynamic maintenance over the whole stream,
	// continuing from the static condensation.
	eng, err := condenser.ShardedFrom(base, 1)
	if err != nil {
		log.Fatal(err)
	}
	driver, err := stream.NewDriver(eng)
	if err != nil {
		log.Fatal(err)
	}
	driver.SnapshotEvery = 1000
	if err := driver.Feed(arriving); err != nil {
		log.Fatal(err)
	}

	for _, snap := range driver.Snapshots() {
		fmt.Printf("after %5d stream records: %4d groups, avg size %.1f\n",
			snap.Seen, snap.Groups, snap.AvgGroupSize)
	}

	// Audit the end state: every group must hold at least k records and
	// fewer than 2k (the split threshold).
	final := driver.Condensation()
	audit, err := privacy.AuditGroups(final.Groups(), k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final: %d groups over %d records, sizes in [%d, %d], k-anonymity satisfied: %v\n",
		audit.Groups, audit.Records, audit.MinSize, audit.MaxSize, audit.Satisfied())

	// The stream never stored a raw record beyond the statistics — yet we
	// can synthesize a full anonymized data set at any time.
	anonymized, err := final.Synthesize(r.Split())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthesized %d anonymized records from retained statistics only\n", len(anonymized))
}
