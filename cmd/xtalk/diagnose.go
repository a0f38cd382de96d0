package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/campaign"
	"repro/internal/defects"
	"repro/internal/report"
)

// The diagnose, minimize and rank subcommands run a base defect-simulation
// campaign and an analysis over it (the internal/diagnose analytics, or for
// rank one campaign per line of the bus), emitting the deterministic JSON
// documents of internal/report. Each submits its spec as a job to a local
// campaign.Manager (see runJob). With -workers that manager runs the job's
// campaigns (the base campaign, every minimize verification round and every
// rank line) on a fleet, and the analysis, progress and report stay in the
// manager, so the report bytes are the same either way.

// analysisFlags are the flags shared by the three analysis subcommands.
type analysisFlags struct {
	target     *string
	bus        *string
	size       *int
	seed       *int64
	compaction *bool
	out        *string
	workers    *string
	shards     *int
}

func newAnalysisFlags(fs *flag.FlagSet) *analysisFlags {
	return &analysisFlags{
		target:     fs.String("target", "", "target backend: parwan (default) or widebusN"),
		bus:        fs.String("bus", "", "channel to test (default: addr for parwan, the target's first channel otherwise)"),
		size:       fs.Int("size", defects.DefaultLibrarySize, "defect library size"),
		seed:       fs.Int64("seed", 1, "random seed"),
		compaction: fs.Bool("compaction", false, "compact responses"),
		out:        fs.String("o", "", "write the JSON report to this file (default stdout)"),
		workers:    fs.String("workers", "", "comma-separated fleet worker base URLs; runs the job's campaigns distributed"),
		shards:     fs.Int("shards", 0, "fleet shard count (0 = 4 per worker)"),
	}
}

func (af *analysisFlags) spec(jobType string) (campaign.Spec, error) {
	_, _, _, busName, err := resolveTarget(*af.target, *af.bus)
	if err != nil {
		return campaign.Spec{}, err
	}
	return campaign.Spec{
		Target:     *af.target,
		Bus:        busName,
		Type:       jobType,
		Size:       *af.size,
		Seed:       *af.seed,
		Compaction: *af.compaction,
	}, nil
}

func cmdDiagnose(args []string) error {
	fs := flag.NewFlagSet("diagnose", flag.ExitOnError)
	af := newAnalysisFlags(fs)
	signature := fs.String("signature", "",
		"comma-separated failing MA test names to localize, e.g. 'dr[3]/fwd,gp[2]/fwd'")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := af.spec(campaign.TypeDiagnose)
	if err != nil {
		return err
	}
	for _, s := range strings.Split(*signature, ",") {
		if s = strings.TrimSpace(s); s != "" {
			spec.Signature = append(spec.Signature, s)
		}
	}
	an, err := runJob(spec, *af.workers, *af.shards)
	if err != nil {
		return err
	}
	d := an.Diagnosis
	fmt.Fprintf(os.Stderr, "diagnose: %s bus, %d defects: %d detected, %d attributed (%d crash-only), %d signature classes over %d tests\n",
		spec.Bus, d.Stats.Defects, d.Stats.Detected, d.Stats.Attributed, d.Stats.CrashOnly, d.Stats.Classes, d.Stats.Tests)
	if d.Accuracy != nil {
		fmt.Fprintf(os.Stderr, "self-diagnosis accuracy: top-1 %d/%d, top-3 %d/%d\n",
			d.Accuracy.TopHit, d.Accuracy.Evaluated, d.Accuracy.Top3Hit, d.Accuracy.Evaluated)
	}
	for i, c := range d.Candidates {
		if i >= 5 {
			break
		}
		fmt.Fprintf(os.Stderr, "candidate %d: %s score %.3f (%d exact)\n", i+1, c.Fault, c.Score, c.Exact)
	}
	return writeReport(*af.out, func(w *os.File) error { return report.WriteDiagnosisJSON(w, d) })
}

func cmdMinimize(args []string) error {
	fs := flag.NewFlagSet("minimize", flag.ExitOnError)
	af := newAnalysisFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := af.spec(campaign.TypeMinimize)
	if err != nil {
		return err
	}
	an, err := runJob(spec, *af.workers, *af.shards)
	if err != nil {
		return err
	}
	m := an.Minimize
	fmt.Fprintf(os.Stderr, "minimize: %d of %d tests cover all %d attributed defects (%.1f%% reduction, +%d augmented in %d verify rounds)\n",
		len(m.Chosen), m.FullTests, m.Coverable, m.Reduction*100, len(m.Augmented), m.VerifyRounds)
	fmt.Fprintf(os.Stderr, "program: %d -> %d applied tests\n", m.FullProgramTests, m.MinProgramTests)
	if m.Verification != nil {
		if m.Verification.Identical {
			fmt.Fprintf(os.Stderr, "verification: detection vectors byte-identical (%d/%d detected, hash %s)\n",
				m.Verification.MinDetected, m.Verification.Total, m.Verification.MinHash[:12])
		} else {
			fmt.Fprintf(os.Stderr, "verification: %d mismatches remain after repair\n", len(m.Verification.Mismatches))
		}
	}
	return writeReport(*af.out, func(w *os.File) error { return report.WriteMinimizeJSON(w, m) })
}

func cmdRank(args []string) error {
	fs := flag.NewFlagSet("rank", flag.ExitOnError)
	af := newAnalysisFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := af.spec(campaign.TypeRank)
	if err != nil {
		return err
	}
	an, err := runJob(spec, *af.workers, *af.shards)
	if err != nil {
		return err
	}
	r := an.Rank
	tbl := report.NewTable(fmt.Sprintf("Fig. 11: coverage of each line's MA tests (%s bus, %d defects)", r.Bus, r.Defects),
		"line", "detected", "over-threshold", "individual %", "cumulative %")
	for _, w := range r.Wires {
		tbl.AddRow(w.Wire+1, w.Detected, w.OverThreshold, w.Individual*100, w.Cumulative*100)
	}
	if err := tbl.Write(os.Stderr); err != nil {
		return err
	}
	return writeReport(*af.out, func(w *os.File) error { return report.WriteRankJSON(w, r) })
}

// writeReport renders a JSON document to the -o file, or stdout without one.
func writeReport(path string, write func(*os.File) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "report written to %s\n", path)
	return nil
}

// runJob runs the spec as a job (see submitJob) and returns the job's
// analysis product, which is the same with and without workers.
func runJob(spec campaign.Spec, workers string, shards int) (*campaign.Analysis, error) {
	_, job, err := submitJob(spec, workers, shards)
	if err != nil {
		return nil, err
	}
	an, ok := job.Analysis()
	if !ok {
		return nil, fmt.Errorf("job %s produced no analysis", job.ID())
	}
	return an, nil
}

// submitJob runs the spec to completion as a job of a campaign.Manager, the
// job runner xtalkd serves, and returns the manager and the finished job.
// With workers (comma-separated base URLs) the manager runs every campaign
// of the job on that fleet, cut into shards shards (0 = 4 per worker), and
// shares one telemetry bundle with the fleet's coordinator, so the job's
// trace holds the coordinator's and the workers' spans.
func submitJob(spec campaign.Spec, workers string, shards int) (*campaign.Manager, *campaign.Job, error) {
	var m *campaign.Manager
	if workers == "" {
		m = campaign.New(campaign.Config{})
	} else {
		coord, err := newFleet(workers)
		if err != nil {
			return nil, nil, err
		}
		m = coord.NewManager(campaign.Config{}, shards)
	}
	job, err := m.Submit(spec)
	if err != nil {
		return nil, nil, err
	}
	<-job.Done()
	return m, job, job.Err()
}
