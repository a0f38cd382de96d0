package campaign

import (
	"fmt"
	"math/rand"
	"time"

	"context"

	"repro/internal/infield"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The infield job type: the spec's plan is deterministically partitioned
// into bounded-cycle slices (internal/infield), each slice runs as its own
// sub-plan campaign over the full defect library — sharing the manager's
// runner cache, worker pool (or fleet) and engine — interleaved with
// functional workload phases, and a coverage ledger accumulates the
// per-slice detection vectors. The completed ledger's result is
// byte-identical to the one-shot campaign over the same spec (see infield's
// package comment for why), which TestInfieldConvergenceIdentity enforces.

// executeInfield runs an infield job to completion: setup, manifest
// derivation, and the slice schedule. The returned result is the merged
// ledger's campaign result; the analysis is the coverage-over-time report.
func (m *Manager) executeInfield(ctx context.Context, job *Job) (*sim.CampaignResult, *Analysis, error) {
	env, err := m.prepare(ctx, job)
	if err != nil {
		return nil, nil, err
	}
	spec, size := env.Spec, env.Spec.Size
	// The full-plan runner provides the deterministic per-session golden
	// costs the slicer partitions by (and warms the cache for the one-shot
	// campaign the identity is proven against).
	manifest, err := env.Manifest(func(s int) uint64 { return env.runner.Golden(s).Cycles })
	if err != nil {
		return nil, nil, err
	}

	job.mu.Lock()
	if job.ledger == nil || job.ledger.Size() != size || job.ledger.Slices() != len(manifest.Slices) {
		// First run (or a resume whose spec-derived shape changed, which
		// cannot happen for an unchanged spec): fresh ledger.
		job.ledger = infield.NewLedger(size, len(manifest.Slices), env.Bus)
	}
	ledger := job.ledger
	// Rebuild progress from the ledger so a resumed schedule reports
	// monotone counts continuing at the slice it stopped before. The
	// per-tier replay/executed attribution of already-merged slices is not
	// checkpointed; those counters restart at zero on resume.
	p := Progress{
		Type:     TypeInfield,
		Phase:    PhaseSimulate,
		Total:    size * len(manifest.Slices),
		Done:     size * ledger.MergedCount(),
		Detected: ledger.Detected(),
		Slice:    ledger.MergedCount(),
		Slices:   len(manifest.Slices),
	}
	if pts := ledger.Points(); len(pts) > 0 {
		p.Coverage = pts[len(pts)-1].Coverage
		p.Activations = pts[len(pts)-1].Activations
	}
	job.progress = p
	job.publishLocked()
	job.mu.Unlock()

	phases, err := workload.NewPhaseIterator(workload.DefaultPhases())
	if err != nil {
		return nil, nil, err
	}
	var lastWorkload uint64
	var sliceStart time.Time // set by RunSlice, observed at the merge
	sched := &infield.Scheduler{
		Manifest: manifest,
		Ledger:   ledger,
		Phases:   phases,
		Interval: time.Duration(spec.IntervalMS) * time.Millisecond,
		RunPhase: m.phaseRunner(job, spec, env.Setup()),
		RunSlice: func(ctx context.Context, sl infield.Slice) ([]sim.Outcome, error) {
			if m.obs.Enabled() {
				sliceStart = time.Now()
			}
			job.setPhase(PhaseSimulate)
			sub, err := infield.SubPlan(env.Plan, sl)
			if err != nil {
				return nil, err
			}
			opts := m.campaignOpts(spec, env.workers, func(i int, out sim.Outcome) {
				job.mu.Lock()
				defer job.mu.Unlock()
				job.progress.Done++
				if out.Replayed {
					job.progress.ReplayHits++
				} else {
					job.progress.Executed++
				}
				m.defectsSimulated.Inc()
				job.publishLocked()
			})
			sctx, span := obs.StartSpan(ctx, "job.slice",
				obs.Label{Key: "slice", Value: fmt.Sprint(sl.Index)},
				obs.Label{Key: "sessions", Value: fmt.Sprint(len(sl.Sessions))})
			res, err := m.simulate(sctx, env, sub, opts)
			span.End()
			if err != nil {
				return nil, err
			}
			return res.Outcomes, nil
		},
		OnMerge: func(sl infield.Slice, pt infield.CoveragePoint) {
			if m.obs.Enabled() && !sliceStart.IsZero() {
				m.infieldSliceLatency.ObserveSince(sliceStart)
			}
			m.infieldSlices.Inc()
			m.infieldDetections.Set(int64(pt.Detected))
			m.infieldGap.Set(int64(pt.ConvergenceGap))
			if pt.WorkloadCycles > lastWorkload {
				m.infieldWorkloadCycles.Add(int64(pt.WorkloadCycles - lastWorkload))
				lastWorkload = pt.WorkloadCycles
			}
			job.mu.Lock()
			job.progress.Slice = pt.Merged
			job.progress.Detected = pt.Detected
			job.progress.Coverage = pt.Coverage
			job.progress.Activations = pt.Activations
			job.publishLocked()
			job.mu.Unlock()
			m.obs.Record("infield.slice",
				obs.Label{Key: "job", Value: job.id},
				obs.Label{Key: "slice", Value: fmt.Sprint(sl.Index)},
				obs.Label{Key: "detected", Value: fmt.Sprint(pt.Detected)})
		},
	}
	sctx, schedSpan := obs.StartSpan(ctx, "job.schedule",
		obs.Label{Key: "slices", Value: fmt.Sprint(len(manifest.Slices))},
		obs.Label{Key: "defects", Value: fmt.Sprint(size)})
	err = sched.Run(sctx)
	schedSpan.End()
	if err != nil {
		return nil, nil, err
	}
	job.setPhase(PhaseAnalyze)
	res := ledger.Result(spec.Bus)
	doc := report.NewInfieldJSON(spec.TargetName(), spec.Bus, manifest, ledger)
	// A completed curve is compared against (or becomes) the manifest key's
	// baseline: recurring schedules get drift detection for free.
	if ledger.Complete() {
		m.checkDrift(job, doc)
	}
	return res, &Analysis{Infield: doc}, nil
}

// phaseRunner executes the functional-workload phase interleaved before each
// slice. On Parwan it generates and measures a deterministic random program
// (seeded by the spec seed and the phase sequence index), quantifying the
// stress the functional traffic produces between self-test slices. Scripted
// targets have no CPU to run a workload on; their phases are accounting-only
// (nil runner).
func (m *Manager) phaseRunner(job *Job, spec Spec, setup sim.BusSetup) func(context.Context, workload.Phase) error {
	if spec.TargetName() != "parwan" {
		return nil
	}
	return func(ctx context.Context, ph workload.Phase) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		job.setPhase(PhaseWorkload)
		rng := rand.New(rand.NewSource(spec.Seed ^ int64(ph.Seq)<<20))
		im, entry, err := workload.RandomProgram(rng, workload.Config{Instructions: 24})
		if err != nil {
			return err
		}
		_, err = workload.Measure(im, entry, 1000, spec.Bus, setup.Nominal, setup.Thresholds)
		return err
	}
}
