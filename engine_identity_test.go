// Enforces the production engine's headline guarantee: a campaign run with
// Engine: Batch (screening sweep + resumed execution) renders byte-identical
// CampaignResult JSON to the execute-only reference engine for the full E5
// campaign on both busses.
package repro_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/defects"
	"repro/internal/parwan"
	"repro/internal/report"
	"repro/internal/sim"
)

func TestEngineByteIdentityE5(t *testing.T) {
	size := 1000 // the paper's library size
	if testing.Short() {
		size = 120
	}
	addr, data, err := sim.DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Generate(core.GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	busses := []struct {
		name  string
		bus   core.BusID
		setup sim.BusSetup
		seed  int64
		width int
	}{
		{"addr", core.AddrBus, addr, 3001, parwan.AddrBits},
		{"data", core.DataBus, data, 3002, parwan.DataBits},
	}
	for _, bc := range busses {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			lib, err := defects.Generate(bc.setup.Nominal, bc.setup.Thresholds,
				defects.Config{Size: size, Seed: bc.seed})
			if err != nil {
				t.Fatal(err)
			}
			render := func(eng sim.Engine) []byte {
				res, err := r.CampaignCtx(context.Background(), bc.bus, lib,
					sim.CampaignOpts{Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := report.WriteCampaignJSON(&buf, res, bc.width); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			exec := render(sim.Execute)
			before := r.Stats()
			batch := render(sim.Batch)
			if !bytes.Equal(exec, batch) {
				for i := 0; i < len(exec) && i < len(batch); i++ {
					if exec[i] != batch[i] {
						lo, hi := max(i-80, 0), min(i+80, len(exec))
						t.Fatalf("campaign JSON diverges at byte %d:\nexecute: %s\nbatch:   %s",
							i, exec[lo:hi], batch[lo:min(hi, len(batch))])
					}
				}
				t.Fatalf("campaign JSON lengths differ: execute %d, batch %d", len(exec), len(batch))
			}
			// The batched sweep must keep the whole library out of the full
			// Execute tier: clean defects are screened in O(1), divergent ones
			// resume execution as fallbacks, and nothing else runs.
			after := r.Stats()
			if d := after.Executes - before.Executes; d != 0 {
				t.Errorf("batch campaign performed %d full Execute runs, want 0", d)
			}
			screened := after.BatchScreened - before.BatchScreened
			fallbacks := after.Fallbacks - before.Fallbacks
			if screened+fallbacks != int64(size) {
				t.Errorf("batch accounting: screened %d + fallbacks %d != %d defects",
					screened, fallbacks, size)
			}
			if sweeps := after.BatchSweeps - before.BatchSweeps; sweeps != int64(len(plan.Programs)) {
				t.Errorf("batch performed %d sweeps, want one per session (%d)",
					sweeps, len(plan.Programs))
			}
			t.Logf("%s bus: %d defects, %d bytes of campaign JSON byte-identical across engines (%d batch-screened)",
				bc.name, size, len(exec), screened)
		})
	}
}
