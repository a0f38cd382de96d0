package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/campaign"
	"repro/internal/defects"
	"repro/internal/report"
)

// The infield subcommand runs the defect-simulation campaign as an in-field
// test schedule: the self-test plan is partitioned into bounded-cycle slices,
// slices run in order (paced by -interval), each recorded after a nominal
// functional workload phase, and the coverage ledger accumulates per-slice
// detections into the convergence curve the NDJSON report renders. The
// merged end state is byte-identical to the one-shot campaign over the same
// spec. The schedule runs as a job of a local campaign.Manager (see runJob).
// With -workers that manager ships each slice to the fleet as an inline
// sub-plan campaign, while the schedule and the ledger stay in the manager,
// so the NDJSON is the same either way.
func cmdInfield(args []string) error {
	fs := flag.NewFlagSet("infield", flag.ExitOnError)
	targetName := fs.String("target", "", "target backend: parwan (default) or widebusN")
	bus := fs.String("bus", "", "channel to test (default: addr for parwan, the target's first channel otherwise)")
	size := fs.Int("size", defects.DefaultLibrarySize, "defect library size")
	seed := fs.Int64("seed", 1, "random seed")
	sessions := fs.Int("sessions", 0, "maximum plan sessions (scripted targets: split the script across up to N sessions)")
	compaction := fs.Bool("compaction", false, "compact responses")
	sliceCycles := fs.Uint64("slice-cycles", 0, "per-slice golden-cycle budget (0 with -slices 0: one session per slice)")
	slices := fs.Int("slices", 0, "target slice count; derives the smallest cycle budget (exclusive with -slice-cycles)")
	interval := fs.Duration("interval", 0, "pacing between recurring slices, e.g. 500ms")
	out := fs.String("o", "", "write the NDJSON coverage-over-time report to this file (default stdout)")
	workers := fs.String("workers", "", "comma-separated fleet worker base URLs; runs each slice distributed")
	shards := fs.Int("shards", 0, "fleet shard count (0 = 4 per worker)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, _, _, busName, err := resolveTarget(*targetName, *bus)
	if err != nil {
		return err
	}
	spec := campaign.Spec{
		Type:        campaign.TypeInfield,
		Target:      *targetName,
		Bus:         busName,
		Size:        *size,
		Seed:        *seed,
		MaxSessions: *sessions,
		Compaction:  *compaction,
		SliceCycles: *sliceCycles,
		Slices:      *slices,
		IntervalMS:  int(interval.Milliseconds()),
	}
	an, err := runJob(spec, *workers, *shards)
	if err != nil {
		return err
	}
	doc := an.Infield
	fmt.Fprintf(os.Stderr, "infield: %s %s bus, %d defects over %d slices (%d golden cycles)\n",
		doc.Header.Target, doc.Header.Bus, doc.Header.Defects, len(doc.Header.Slices), doc.Header.TotalCycles)
	fmt.Fprintf(os.Stderr, "converged coverage: %d/%d = %.2f%% (gap %d), %d activations\n",
		doc.Summary.Detected, doc.Header.Defects, doc.Summary.Coverage*100,
		doc.Summary.ConvergenceGap, doc.Summary.Activations)
	return writeReport(*out, func(w *os.File) error { return report.WriteInfieldNDJSON(w, doc) })
}
