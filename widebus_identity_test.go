// End-to-end acceptance for the synthetic wide-bus backend: the scripted
// target runs full campaigns under both engines with byte-identical JSON,
// and the coverage story holds at every supported width class.
package repro_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/defects"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/target"
)

// TestWideBusEngineByteIdentity renders the same wide-bus campaign through
// the Batch (screen + resume) and Execute engines and requires identical
// report bytes — the same guarantee TestEngineByteIdentityE5 pins for
// Parwan, extended to the scripted backend at 16, 32 and 64 wires.
func TestWideBusEngineByteIdentity(t *testing.T) {
	size := 400
	if testing.Short() {
		size = 80
	}
	for _, width := range []int{16, 32, 64} {
		width := width
		t.Run(target.MustWideBus(width).Name(), func(t *testing.T) {
			tgt := target.MustWideBus(width)
			plan, err := tgt.Generate(target.GenSpec{})
			if err != nil {
				t.Fatal(err)
			}
			models, err := tgt.BusModels(0)
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.NewTargetRunner(tgt, plan, models)
			if err != nil {
				t.Fatal(err)
			}
			lib, err := defects.Generate(models[0].Nominal, models[0].Thresholds,
				defects.Config{Size: size, Seed: int64(4000 + width)})
			if err != nil {
				t.Fatal(err)
			}
			render := func(eng sim.Engine) []byte {
				res, err := r.CampaignCtx(context.Background(), core.BusID(0), lib,
					sim.CampaignOpts{Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := report.WriteCampaignJSON(&buf, res, width); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			exec := render(sim.Execute)
			before := r.Stats()
			batch := render(sim.Batch)
			if !bytes.Equal(exec, batch) {
				t.Fatalf("batch and execute campaign JSON differ (%d vs %d bytes)", len(batch), len(exec))
			}
			after := r.Stats()
			if d := after.Executes - before.Executes; d != 0 {
				t.Errorf("batch campaign performed %d full Execute runs, want 0", d)
			}
			screened := after.BatchScreened - before.BatchScreened
			if screened+(after.Fallbacks-before.Fallbacks) != int64(size) {
				t.Errorf("batch accounting does not cover the library: %+v vs %+v", before, after)
			}
			if after.Executes == 0 || after.BatchScreened+after.Fallbacks == 0 {
				t.Errorf("engine accounting did not cover both engines: %+v", after)
			}
			t.Logf("width %d: %d defects, %d identical bytes (%d batch-screened)", width, size, len(exec), screened)
		})
	}
}

// TestWideBusCampaignCoverage: like Parwan's busses, the wide bus's MA test
// set detects every defect the Gaussian library accepts (the library only
// keeps parameter sets with an over-threshold victim, and the MA pairs
// maximize every victim's aggression).
func TestWideBusCampaignCoverage(t *testing.T) {
	tgt := target.MustWideBus(32)
	plan, err := tgt.Generate(target.GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	models, err := tgt.BusModels(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewTargetRunner(tgt, plan, models)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(models[0].Nominal, models[0].Thresholds,
		defects.Config{Size: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Campaign(0, lib)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != res.Total {
		t.Errorf("coverage %d/%d; the MA set should detect every accepted defect", res.Detected, res.Total)
	}
	if res.Crashed != 0 {
		t.Errorf("%d crashes on a scripted initiator with no control flow", res.Crashed)
	}
}
