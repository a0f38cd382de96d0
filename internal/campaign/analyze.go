package campaign

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/defects"
	"repro/internal/diagnose"
	"repro/internal/maf"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
)

// analyze runs a non-campaign job's analysis phase over the base campaign's
// outcomes. For minimize jobs it additionally regenerates the minimized
// program and runs the verification campaign (not checkpointed: a resumed
// minimize job replays the base campaign from its checkpoint and repeats
// verification from scratch).
func (m *Manager) analyze(ctx context.Context, job *Job, res *sim.CampaignResult, env *jobEnv) (*Analysis, error) {
	job.setPhase(PhaseAnalyze)
	ctx, span := obs.StartSpan(ctx, "job.analyze",
		obs.Label{Key: "type", Value: env.Spec.JobType()})
	defer span.End()
	verifying := false
	return AnalyzeOutcomes(env.Resolved, res.Outcomes, env.lib,
		func(minPlan *core.Plan) ([]sim.Outcome, error) {
			if !verifying {
				verifying = true
				job.setPhase(PhaseVerify)
			}
			vres, err := m.verifyCampaign(ctx, minPlan, env)
			if err != nil {
				return nil, err
			}
			return vres.Outcomes, nil
		})
}

// AnalyzeOutcomes builds a diagnose, minimize or rank job's analysis product
// from a completed base campaign over the resolved spec: outcomes in library
// order and the defect library they index. simulateMin re-simulates the same
// library under a minimized plan and returns outcomes in the same order; it
// is only called for minimize jobs (the verify-augment loop, one call per
// round). The manager's analysis phase and the CLI's fleet path share this
// function, so a distributed run's report is byte-identical to a standalone
// one's.
func AnalyzeOutcomes(r *Resolved, outcomes []sim.Outcome, lib *defects.Library,
	simulateMin func(minPlan *core.Plan) ([]sim.Outcome, error)) (*Analysis, error) {
	spec := r.Spec
	sets := diagnose.Collect(outcomes)
	switch spec.JobType() {
	case TypeDiagnose:
		acc, err := sets.EvaluateAccuracy(lib)
		if err != nil {
			return nil, err
		}
		var cands []diagnose.Candidate
		if len(spec.Signature) > 0 {
			cands, err = sets.LocalizeNames(spec.Signature)
			if err != nil {
				return nil, err
			}
		}
		return &Analysis{Diagnosis: report.NewDiagnosisJSON(spec.Bus, sets, &acc, spec.Signature, cands)}, nil

	case TypeRank:
		return &Analysis{Rank: report.NewRankJSON(spec.Bus, r.Width(), diagnose.RankWires(sets, r.Width(), lib))}, nil

	case TypeMinimize:
		cover := diagnose.GreedyCover(sets)
		// Verify empirically and repair: detections recorded from the full
		// program can be context-dependent (incidental transitions,
		// collateral corruption), so the loop re-simulates the minimized
		// program and augments the test set until the per-defect detection
		// vector is byte-identical to the full campaign's.
		var minPlan *core.Plan
		rep, err := diagnose.RepairCover(sets, cover, outcomes, 0,
			func(filter func(maf.Fault) bool) ([]sim.Outcome, error) {
				p, err := spec.plan(r.Target, filter)
				if err != nil {
					return nil, err
				}
				minPlan = p
				return simulateMin(p)
			})
		if err != nil {
			return nil, err
		}
		mj := report.NewMinimizeJSON(spec.Bus, cover, &rep.Verification)
		for _, f := range rep.Added {
			mj.Augmented = append(mj.Augmented, f.String())
		}
		mj.VerifyRounds = rep.Rounds
		mj.FullProgramTests = r.Plan.TotalApplied()
		mj.MinProgramTests = minPlan.TotalApplied()
		return &Analysis{Minimize: mj}, nil
	}
	return nil, fmt.Errorf("campaign: no analysis for job type %q", spec.JobType())
}

// verifyCampaign re-simulates the job's defect library under a minimized
// plan, sharing the manager's runner cache, worker pool and engine choice
// with the base campaign.
func (m *Manager) verifyCampaign(ctx context.Context, minPlan *core.Plan, env *jobEnv) (*sim.CampaignResult, error) {
	hash, err := PlanHash(minPlan)
	if err != nil {
		return nil, err
	}
	runner, _, err := m.runnerFor(env.Resolved, minPlan, hash)
	if err != nil {
		return nil, err
	}
	vctx, span := obs.StartSpan(ctx, "job.verify",
		obs.Label{Key: "defects", Value: fmt.Sprint(len(env.lib.Defects))})
	res, err := runner.CampaignCtx(vctx, env.Bus, env.lib, m.campaignOpts(env.Spec, env.workers, nil))
	span.End()
	return res, err
}
