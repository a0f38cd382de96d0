package fleet

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/infield"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/target"
)

// TestFleetInfieldByteIdentical distributes an in-field schedule across the
// fleet: each manifest slice ships as an inline sub-plan campaign to a
// 3-worker fleet, slice results merge into a local coverage ledger, and the
// completed ledger renders the byte-identical campaign JSON to a single-node
// one-shot run — the convergence identity surviving both slicing and
// sharding.
func TestFleetInfieldByteIdentical(t *testing.T) {
	spec := campaign.Spec{Target: "widebus16", Bus: "bus", Size: 60, Seed: 17, MaxSessions: 6}
	n := spec.Normalized()
	plan, err := campaign.SpecPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := campaign.PlanHash(plan)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := target.Parse(n.Target)
	if err != nil {
		t.Fatal(err)
	}
	models, err := tgt.BusModels(n.CthFactor)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.NewTargetRunner(tgt, plan, models)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := infield.BuildManifest(plan,
		func(s int) uint64 { return runner.Golden(s).Cycles },
		infield.Config{PlanHash: hash, Seed: n.Seed, Sigma: n.Sigma, CthFactor: n.CthFactor, Slices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(manifest.Slices) < 2 {
		t.Fatalf("manifest has %d slices; fleet test needs a real partition", len(manifest.Slices))
	}

	coord, _ := startWorkers(t, 3)
	ledger := infield.NewLedger(n.Size, len(manifest.Slices), n.BusID())
	width := 0
	for _, sl := range manifest.Slices {
		sub, err := infield.SubPlan(plan, sl)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.WritePlan(&buf, sub); err != nil {
			t.Fatal(err)
		}
		// Each slice is a plain fleet campaign over the inline sub-plan; the
		// library config is identical, so outcomes stay in library order.
		sliceSpec := spec
		sliceSpec.Plan = buf.Bytes()
		sliceSpec.MaxSessions = 0
		res, w, _, err := coord.RunCampaign(context.Background(), sliceSpec, 0)
		if err != nil {
			t.Fatalf("slice %d fleet campaign: %v", sl.Index, err)
		}
		width = w
		if err := ledger.MergeSlice(sl.Index, res.Outcomes, infield.PointMeta{SliceCycles: sl.Cycles}); err != nil {
			t.Fatal(err)
		}
	}
	if !ledger.Complete() {
		t.Fatal("ledger incomplete after running every slice on the fleet")
	}
	merged := ledger.Result(n.Bus)
	var got bytes.Buffer
	if err := report.WriteCampaignJSON(&got, merged, width); err != nil {
		t.Fatal(err)
	}

	mgr := campaign.New(campaign.Config{})
	outcomes, _, err := mgr.RunShard(context.Background(), resolve(t, spec), 0, n.Size)
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
	t.Logf("3-worker fleet over %d slices: %d defects, %d bytes byte-identical",
		len(manifest.Slices), merged.Total, got.Len())
}
