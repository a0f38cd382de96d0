package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// fleetManager builds a manager that runs its jobs' campaigns on coord, as
// the CLI's -workers paths do.
func fleetManager(coord *Coordinator) *campaign.Manager {
	return campaign.New(campaign.Config{
		Fleet: func(ctx context.Context, spec campaign.Spec) (*sim.CampaignResult, error) {
			res, _, _, err := coord.RunCampaign(ctx, spec, 0)
			return res, err
		},
	})
}

// runJob submits the spec to m and waits for the job to finish cleanly.
func runJob(t *testing.T, m *campaign.Manager, spec campaign.Spec) *campaign.Job {
	t.Helper()
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", job.ID())
	}
	if st := job.Status(); st.State != campaign.Done {
		t.Fatalf("job %s finished %s: %s", job.ID(), st.State, st.Error)
	}
	return job
}

// TestFleetJobProgressMatchesStandalone runs a campaign job and an in-field
// job on a manager whose campaigns go to a 2-worker fleet: each must end
// with the progress counters of the same spec run standalone, the engine
// attribution that rides the shard wire in sim.Outcome.Replayed included.
// A full plan detects, and so executes, every library defect; the in-field
// job's partial sub-plans are where the screening sweep clears defects.
func TestFleetJobProgressMatchesStandalone(t *testing.T) {
	coord, _ := startWorkers(t, 2)
	counts := func(p campaign.Progress) [6]int64 {
		return [6]int64{int64(p.Done), int64(p.Total), int64(p.Detected), p.Activations,
			int64(p.ReplayHits), int64(p.Executed)}
	}
	replayed := 0
	for _, spec := range []campaign.Spec{
		{Target: "widebus16", Bus: "bus", Size: 80, Seed: 5},
		{Type: campaign.TypeInfield, Target: "widebus16", Bus: "bus", Size: 80, Seed: 5, MaxSessions: 6, Slices: 3},
	} {
		want := runJob(t, campaign.New(campaign.Config{}), spec).Status().Progress
		got := runJob(t, fleetManager(coord), spec).Status().Progress
		if counts(got) != counts(want) {
			t.Fatalf("%s job: fleet progress %+v, standalone %+v", spec.JobType(), got, want)
		}
		replayed += got.ReplayHits
		t.Logf("%s job: done %d/%d, detected %d, %d activations, %d replayed, %d executed", spec.JobType(),
			got.Done, got.Total, got.Detected, got.Activations, got.ReplayHits, got.Executed)
	}
	if replayed == 0 {
		t.Fatal("no job had a defect cleared by the screening sweep; the attribution check is vacuous")
	}
}
