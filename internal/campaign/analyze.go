package campaign

import (
	"context"
	"fmt"

	"repro/internal/core"
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
	spec := env.Spec
	ctx, span := obs.StartSpan(ctx, "job.analyze",
		obs.Label{Key: "type", Value: spec.JobType()})
	defer span.End()
	sets := diagnose.Collect(res.Outcomes)
	switch spec.JobType() {
	case TypeDiagnose:
		acc, err := sets.EvaluateAccuracy(env.lib)
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
		return &Analysis{Rank: report.NewRankJSON(spec.Bus, env.Width(), diagnose.RankWires(sets, env.Width(), env.lib))}, nil

	case TypeMinimize:
		cover := diagnose.GreedyCover(sets)
		// Verify empirically and repair: detections recorded from the full
		// program can be context-dependent (incidental transitions,
		// collateral corruption), so the loop re-simulates the minimized
		// program and augments the test set until the per-defect detection
		// vector is byte-identical to the full campaign's.
		var minPlan *core.Plan
		rep, err := diagnose.RepairCover(sets, cover, res.Outcomes, 0,
			func(filter func(maf.Fault) bool) ([]sim.Outcome, error) {
				p, err := spec.plan(env.Target, filter)
				if err != nil {
					return nil, err
				}
				if minPlan == nil {
					job.setPhase(PhaseVerify)
				}
				minPlan = p
				vres, err := m.verifyCampaign(ctx, minPlan, env)
				if err != nil {
					return nil, err
				}
				return vres.Outcomes, nil
			})
		if err != nil {
			return nil, err
		}
		mj := report.NewMinimizeJSON(spec.Bus, cover, &rep.Verification)
		for _, f := range rep.Added {
			mj.Augmented = append(mj.Augmented, f.String())
		}
		mj.VerifyRounds = rep.Rounds
		mj.FullProgramTests = env.Plan.TotalApplied()
		mj.MinProgramTests = minPlan.TotalApplied()
		return &Analysis{Minimize: mj}, nil
	}
	return nil, fmt.Errorf("campaign: no analysis for job type %q", spec.JobType())
}

// verifyCampaign re-simulates the job's defect library under a minimized
// plan, sharing the manager's runner cache and worker pool (or fleet) with
// the base campaign.
func (m *Manager) verifyCampaign(ctx context.Context, minPlan *core.Plan, env *jobEnv) (*sim.CampaignResult, error) {
	vctx, span := obs.StartSpan(ctx, "job.verify",
		obs.Label{Key: "defects", Value: fmt.Sprint(env.Spec.Size)})
	defer span.End()
	return m.simulate(vctx, env, minPlan, m.campaignOpts(nil))
}
