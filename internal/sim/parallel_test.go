package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/defects"
)

// TestCampaignDeterministic: the parallel campaign produces identical,
// index-ordered outcomes across runs.
func TestCampaignDeterministic(t *testing.T) {
	r := newRunner(t, core.GenConfig{})
	addr, _, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(addr.Nominal, addr.Thresholds, defects.Config{Size: 40, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Campaign(core.AddrBus, lib)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Campaign(core.AddrBus, lib)
	if err != nil {
		t.Fatal(err)
	}
	if a.Detected != b.Detected || a.Crashed != b.Crashed {
		t.Fatalf("aggregates differ: %d/%d vs %d/%d", a.Detected, a.Crashed, b.Detected, b.Crashed)
	}
	for i := range a.Outcomes {
		oa, ob := a.Outcomes[i], b.Outcomes[i]
		if oa.DefectID != i || ob.DefectID != i {
			t.Fatalf("outcome %d out of order: %d / %d", i, oa.DefectID, ob.DefectID)
		}
		if oa.Detected != ob.Detected || oa.Activations != ob.Activations ||
			oa.DetectedBy != ob.DetectedBy {
			t.Fatalf("outcome %d differs between runs", i)
		}
	}
	for f, n := range a.PerFault {
		if b.PerFault[f] != n {
			t.Fatalf("PerFault[%v] differs: %d vs %d", f, n, b.PerFault[f])
		}
	}
}
