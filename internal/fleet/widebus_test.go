package fleet

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/report"
	"repro/internal/sim"
)

// TestFleetWideBusByteIdentical extends the fleet's byte-identity guarantee
// to the synthetic wide-bus backend: a widebus32 campaign sharded across
// workers renders the same JSON as a single-node run, and the coordinator
// resolves the Fig. 11 width from the target topology (32, not Parwan's 12).
func TestFleetWideBusByteIdentical(t *testing.T) {
	spec := campaign.Spec{Target: "widebus32", Bus: "bus", Size: 150, Seed: 17}
	coord, _ := startWorkers(t, 3)
	res, width, fs, err := coord.RunCampaign(context.Background(), spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if width != 32 {
		t.Fatalf("coordinator resolved width %d, want 32", width)
	}
	var got bytes.Buffer
	if err := report.WriteCampaignJSON(&got, res, width); err != nil {
		t.Fatal(err)
	}

	mgr := campaign.New(campaign.Config{})
	n := spec.Normalized()
	outcomes, err := mgr.RunShard(context.Background(), resolve(t, spec), 0, n.Size)
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
		t.Fatalf("fleet wide-bus campaign JSON differs from single-node run (%d vs %d bytes)",
			got.Len(), want.Len())
	}
	if fs.Shards == 0 {
		t.Fatal("fleet ran no shards")
	}
	t.Logf("3-worker widebus32 fleet: %d defects, %d shards, %d bytes byte-identical",
		res.Total, fs.Shards, got.Len())
}
