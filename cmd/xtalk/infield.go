package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/defects"
	"repro/internal/fleet"
	"repro/internal/infield"
	"repro/internal/report"
	"repro/internal/sim"
)

// The infield subcommand runs the defect-simulation campaign as an in-field
// test schedule: the self-test plan is partitioned into bounded-cycle slices,
// slices execute interleaved with functional workload phases (paced by
// -interval), and the coverage ledger accumulates per-slice detections into
// the convergence curve the NDJSON report renders. The merged end state is
// byte-identical to the one-shot campaign over the same spec. Standalone runs
// go through a local campaign.Manager (the same path xtalkd serves); with
// -workers each slice ships as an inline sub-plan campaign to the fleet and
// the ledger merges on the client.
func cmdInfield(args []string) error {
	fs := flag.NewFlagSet("infield", flag.ExitOnError)
	targetName := fs.String("target", "", "target backend: parwan (default) or widebusN")
	bus := fs.String("bus", "", "channel to test (default: addr for parwan, the target's first channel otherwise)")
	size := fs.Int("size", defects.DefaultLibrarySize, "defect library size")
	seed := fs.Int64("seed", 1, "random seed")
	sessions := fs.Int("sessions", 0, "maximum plan sessions (scripted targets: split the script across up to N sessions)")
	compaction := fs.Bool("compaction", false, "compact responses")
	engine := fs.String("engine", "auto", engineUsage)
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
		Engine:      *engine,
		SliceCycles: *sliceCycles,
		Slices:      *slices,
		IntervalMS:  int(interval.Milliseconds()),
	}
	var doc *report.InfieldJSON
	if *workers == "" {
		doc, err = infieldLocal(spec)
	} else {
		doc, err = infieldFleet(spec, *workers, *shards, *interval)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "infield: %s %s bus, %d defects over %d slices (%d golden cycles)\n",
		doc.Header.Target, doc.Header.Bus, doc.Header.Defects, len(doc.Header.Slices), doc.Header.TotalCycles)
	fmt.Fprintf(os.Stderr, "converged coverage: %d/%d = %.2f%% (gap %d), %d activations\n",
		doc.Summary.Detected, doc.Header.Defects, doc.Summary.Coverage*100,
		doc.Summary.ConvergenceGap, doc.Summary.Activations)
	return writeReport(*out, func(w *os.File) error { return report.WriteInfieldNDJSON(w, doc) })
}

// infieldLocal runs the schedule through a local manager — the exact code
// path an xtalkd node serves.
func infieldLocal(spec campaign.Spec) (*report.InfieldJSON, error) {
	m := campaign.New(campaign.Config{})
	job, err := m.Submit(spec)
	if err != nil {
		return nil, err
	}
	<-job.Done()
	if err := job.Err(); err != nil {
		return nil, err
	}
	an, ok := job.Analysis()
	if !ok || an.Infield == nil {
		return nil, fmt.Errorf("job %s produced no infield analysis", job.ID())
	}
	return an.Infield, nil
}

// infieldFleet distributes the schedule: the manifest is derived locally from
// the spec's plan, each slice ships to the fleet as an inline sub-plan
// campaign, and the coverage ledger merges slice results on the client — the
// merged end state is byte-identical to a standalone run's.
func infieldFleet(spec campaign.Spec, urls string, shards int, interval time.Duration) (*report.InfieldJSON, error) {
	r, err := campaign.Resolve(spec)
	if err != nil {
		return nil, err
	}
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{})
	registered := 0
	for _, u := range strings.Split(urls, ",") {
		if u = strings.TrimSpace(u); u != "" {
			coord.Register(u)
			registered++
		}
	}
	if registered == 0 {
		return nil, fmt.Errorf("no worker URLs in %q", urls)
	}
	runner, err := sim.NewTargetRunner(r.Target, r.Plan, r.Models)
	if err != nil {
		return nil, err
	}
	manifest, err := r.Manifest(func(s int) uint64 { return runner.Golden(s).Cycles })
	if err != nil {
		return nil, err
	}
	ledger := infield.NewLedger(r.Spec.Size, len(manifest.Slices), r.Bus)
	sched := &infield.Scheduler{
		Manifest: manifest,
		Ledger:   ledger,
		Interval: interval,
		RunSlice: func(ctx context.Context, sl infield.Slice) ([]sim.Outcome, error) {
			sub, err := infield.SubPlan(r.Plan, sl)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := core.WritePlan(&buf, sub); err != nil {
				return nil, err
			}
			// The wire spec is a plain campaign over the inline sub-plan;
			// workers only simulate, the schedule stays client-side.
			sliceSpec := spec
			sliceSpec.Type = ""
			sliceSpec.SliceCycles, sliceSpec.Slices, sliceSpec.IntervalMS = 0, 0, 0
			sliceSpec.Plan = buf.Bytes()
			sliceSpec.MaxSessions = 0
			res, _, fstats, err := coord.RunCampaign(ctx, sliceSpec, shards)
			if err != nil {
				return nil, fmt.Errorf("slice %d: %w", sl.Index, err)
			}
			fmt.Fprintf(os.Stderr, "slice %d/%d: %d sessions, %d cycles, %d shards\n",
				sl.Index+1, len(manifest.Slices), len(sl.Sessions), sl.Cycles, fstats.Shards)
			return res.Outcomes, nil
		},
		OnMerge: func(sl infield.Slice, pt infield.CoveragePoint) {
			fmt.Fprintf(os.Stderr, "merged slice %d: +%d detections, coverage %.2f%% (gap %d)\n",
				sl.Index, pt.NewDetections, pt.Coverage*100, pt.ConvergenceGap)
		},
	}
	if err := sched.Run(context.Background()); err != nil {
		return nil, err
	}
	return report.NewInfieldJSON(r.Target.Name(), r.Spec.Bus, manifest, ledger), nil
}
