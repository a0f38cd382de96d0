package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/defects"
)

func TestSignatureOnlyCoverageFullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale campaign")
	}
	r := newRunner(t, core.GenConfig{})
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		bus   core.BusID
		setup BusSetup
		seed  int64
	}{{"addr", core.AddrBus, addr, 1}, {"data", core.DataBus, data, 1}} {
		lib, err := defects.Generate(c.setup.Nominal, c.setup.Thresholds, defects.Config{Size: 1000, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Campaign(c.bus, lib)
		if err != nil {
			t.Fatal(err)
		}
		sigOnly := 0
		for _, out := range res.Outcomes {
			if out.DetectedBy.Len() > 0 {
				sigOnly++
			}
		}
		t.Logf("%s: total=%d detected=%d signature-only=%d crashed=%d",
			c.name, res.Total, res.Detected, sigOnly, res.Crashed)
	}
}
