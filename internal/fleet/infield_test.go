package fleet

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/report"
	"repro/internal/sim"
)

// TestFleetInfieldByteIdentical runs an in-field job on a manager whose
// campaigns go to a 3-worker fleet: each manifest slice ships as an inline
// sub-plan campaign, and the manager's coverage ledger merges the results.
// The completed ledger must render the byte-identical campaign JSON to a
// single-node one-shot run (the convergence identity surviving both slicing
// and sharding), and the job's NDJSON must equal the standalone manager's.
func TestFleetInfieldByteIdentical(t *testing.T) {
	spec := campaign.Spec{Type: campaign.TypeInfield, Target: "widebus16", Bus: "bus",
		Size: 60, Seed: 17, MaxSessions: 6, Slices: 4}
	coord, _ := startWorkers(t, 3)
	job := runJob(t, coord.NewManager(campaign.Config{}, 0), spec)
	an, ok := job.Analysis()
	if !ok || an.Infield == nil {
		t.Fatal("fleet infield job carries no infield analysis")
	}
	if n := len(an.Infield.Header.Slices); n < 2 {
		t.Fatalf("manifest has %d slices; fleet test needs a real partition", n)
	}
	merged, width, ok := job.Result()
	if !ok {
		t.Fatal("fleet infield job has no result")
	}
	var got bytes.Buffer
	if err := report.WriteCampaignJSON(&got, merged, width); err != nil {
		t.Fatal(err)
	}

	oneShot := spec
	oneShot.Type, oneShot.Slices = "", 0
	n := oneShot.Normalized()
	outcomes, err := campaign.New(campaign.Config{}).RunShard(context.Background(), resolve(t, oneShot), 0, n.Size)
	if err != nil {
		t.Fatal(err)
	}
	single := sim.Aggregate(n.BusID(), outcomes)
	single.BusName = n.Bus
	var want bytes.Buffer
	if err := report.WriteCampaignJSON(&want, single, width); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("fleet-merged infield ledger JSON differs from single-node one-shot (%d vs %d bytes)",
			got.Len(), want.Len())
	}

	standalone, ok := runJob(t, campaign.New(campaign.Config{}), spec).Analysis()
	if !ok {
		t.Fatal("standalone infield job carries no analysis")
	}
	var gotND, wantND bytes.Buffer
	if err := report.WriteInfieldNDJSON(&gotND, an.Infield); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteInfieldNDJSON(&wantND, standalone.Infield); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotND.Bytes(), wantND.Bytes()) {
		t.Fatalf("fleet infield NDJSON differs from standalone\nfleet:\n%s\nstandalone:\n%s", gotND.Bytes(), wantND.Bytes())
	}
	t.Logf("3-worker fleet over %d slices: %d defects, campaign JSON (%d bytes) and NDJSON (%d bytes) byte-identical",
		len(an.Infield.Header.Slices), merged.Total, got.Len(), gotND.Len())
}
