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
// outcomes. Minimize jobs additionally regenerate the minimized program and
// run the verification campaign, and rank jobs run one campaign per line of
// the bus (neither is checkpointed: a resumed job replays the base campaign
// from its checkpoint and repeats these campaigns from scratch).
func (m *Manager) analyze(ctx context.Context, job *Job, res *sim.CampaignResult, env *jobEnv) (*Analysis, error) {
	job.setPhase(PhaseAnalyze)
	spec := env.Spec
	ctx, span := obs.StartSpan(ctx, "job.analyze",
		obs.Label{Key: "type", Value: spec.JobType()})
	defer span.End()
	switch spec.JobType() {
	case TypeDiagnose:
		sets := diagnose.Collect(res.Outcomes)
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
		lines, err := m.rankLines(ctx, env)
		if err != nil {
			return nil, err
		}
		return &Analysis{Rank: report.NewRankJSON(spec.Bus, env.lib, lines)}, nil

	case TypeMinimize:
		sets := diagnose.Collect(res.Outcomes)
		cover := diagnose.GreedyCover(sets)
		// Verify empirically and repair: detections recorded from the full
		// program can be context-dependent (incidental transitions,
		// collateral corruption), so the loop re-simulates the minimized
		// program and augments the test set until the per-defect detection
		// vector is byte-identical to the full campaign's.
		var minPlan *core.Plan
		rep, err := diagnose.RepairCover(sets, cover,
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

// rankLines measures the paper's Fig. 11 (§5, R3) for the job's bus: for
// each line, the MA tests whose victim is that line run as their own
// program over the job's library. Each program is the spec's generated plan
// restricted to the bus under test and to that victim, and runs through
// simulate like a verification round. A line with no applicable test gets
// a nil result.
func (m *Manager) rankLines(ctx context.Context, env *jobEnv) ([]*sim.CampaignResult, error) {
	spec := env.Spec
	spec.TargetOnly = true
	lines := make([]*sim.CampaignResult, env.Width())
	for w := range lines {
		plan, err := spec.plan(env.Target, func(f maf.Fault) bool { return f.Victim == w })
		if err != nil {
			return nil, err
		}
		if len(plan.Programs) == 0 {
			continue
		}
		if lines[w], err = m.simulate(ctx, env, plan, m.campaignOpts(nil)); err != nil {
			return nil, err
		}
	}
	return lines, nil
}
