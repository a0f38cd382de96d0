package campaign

import (
	"context"
	"fmt"
	"time"

	"repro/internal/infield"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
)

// The infield job type: the spec's plan is deterministically partitioned
// into bounded-cycle slices (internal/infield), each slice runs as its own
// sub-plan campaign over the full defect library — sharing the manager's
// runner cache, worker pool (or fleet) and engine — between nominal
// functional workload phases, and a coverage ledger accumulates the
// per-slice detection vectors. The completed ledger's result is
// byte-identical to the one-shot campaign over the same spec (see infield's
// package comment for why), which TestInfieldConvergenceIdentity enforces.

// workloadPhases is the functional workload a schedule accounts between its
// slices: slice i follows phase i mod 4. The phases are a boot burst
// (256 cycles), a long compute phase (2048), an I/O phase (512) and an idle
// window (1024), on the scale of the Parwan self-test sessions; cycles is
// cumulative through the phase within one rotation.
var workloadPhases = [4]struct {
	name   string
	cycles uint64
}{{"boot", 256}, {"compute", 2304}, {"io", 2816}, {"idle", 3840}}

// pointMeta is the scheduling context a slice's merge records: the phase it
// follows and the nominal workload cycles through that phase. It is a pure
// function of the slice, so a resumed schedule records what an
// uninterrupted one would.
func pointMeta(sl infield.Slice) infield.PointMeta {
	n := len(workloadPhases)
	ph := workloadPhases[sl.Index%n]
	return infield.PointMeta{
		Phase:          ph.name,
		WorkloadCycles: uint64(sl.Index/n)*workloadPhases[n-1].cycles + ph.cycles,
		SliceCycles:    sl.Cycles,
	}
}

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

	if err := m.runSchedule(ctx, job, env, manifest, ledger); err != nil {
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

// runSchedule simulates every manifest slice the ledger does not yet hold,
// in manifest order, and merges each into the ledger. Slices after the
// first one this run executes wait the spec's interval first. On
// cancellation it returns at once, leaving the ledger as the checkpoint a
// resume continues from.
func (m *Manager) runSchedule(ctx context.Context, job *Job, env *jobEnv, manifest *infield.Manifest, ledger *infield.Ledger) error {
	ctx, span := obs.StartSpan(ctx, "job.schedule",
		obs.Label{Key: "slices", Value: fmt.Sprint(len(manifest.Slices))},
		obs.Label{Key: "defects", Value: fmt.Sprint(env.Spec.Size)})
	defer span.End()
	interval := time.Duration(env.Spec.IntervalMS) * time.Millisecond
	opts := m.campaignOpts(env.Spec, func(i int, out sim.Outcome) {
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
	ran := false
	var lastWorkload uint64 // workload cycles this run has counted
	for _, sl := range manifest.Slices {
		if ledger.Merged(sl.Index) {
			continue
		}
		if ran && interval > 0 {
			t := time.NewTimer(interval)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		ran = true

		var start time.Time
		if m.obs.Enabled() {
			start = time.Now()
		}
		sub, err := infield.SubPlan(env.Plan, sl)
		if err != nil {
			return err
		}
		sctx, sliceSpan := obs.StartSpan(ctx, "job.slice",
			obs.Label{Key: "slice", Value: fmt.Sprint(sl.Index)},
			obs.Label{Key: "sessions", Value: fmt.Sprint(len(sl.Sessions))})
		res, err := m.simulate(sctx, env, sub, opts)
		sliceSpan.End()
		if err != nil {
			return err
		}
		if err := ledger.MergeSlice(sl.Index, res.Outcomes, pointMeta(sl)); err != nil {
			return err
		}
		pts := ledger.Points()
		pt := pts[len(pts)-1]

		if !start.IsZero() {
			m.infieldSliceLatency.ObserveSince(start)
		}
		m.infieldSlices.Inc()
		m.infieldDetections.Set(int64(pt.Detected))
		m.infieldGap.Set(int64(pt.ConvergenceGap))
		m.infieldWorkloadCycles.Add(int64(pt.WorkloadCycles - lastWorkload))
		lastWorkload = pt.WorkloadCycles
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
	}
	return nil
}
