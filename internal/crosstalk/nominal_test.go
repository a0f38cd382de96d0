package crosstalk_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/target"
)

// TestShippedNominalsNeverErr shows that a spec the service accepts cannot
// reach sim.NewTargetRunner's refusal of event-bearing golden traffic: for
// every shipped target (Parwan's 8- and 12-wire buses and widebusN for N =
// 2..64) and cth factors from the smallest above 1 up to 10, the nominal
// channel under the thresholds its BusModels derive has empty risk masks, so
// no wire of it errs on any transition.
func TestShippedNominalsNeverErr(t *testing.T) {
	targets := []target.Target{target.Parwan()}
	for n := 2; n <= 64; n++ {
		targets = append(targets, target.MustWideBus(n))
	}
	var factors []float64
	for e := -52; e < 0; e++ { // 1 + 2^-52 is math.Nextafter(1, 2)
		factors = append(factors, 1+math.Ldexp(1, e))
	}
	for f := 2.0; f <= 10; f += 0.25 {
		factors = append(factors, f)
	}
	factors = append(factors, crosstalk.DefaultCthFactor)
	if factors[0] != math.Nextafter(1, 2) {
		t.Fatalf("smallest factor %v is not the smallest above 1", factors[0])
	}
	for _, tgt := range targets {
		for _, f := range factors {
			models, err := tgt.BusModels(f)
			if err != nil {
				t.Fatalf("%s, factor %v: %v", tgt.Name(), f, err)
			}
			for ch, m := range models {
				c, err := crosstalk.NewChannel(m.Nominal, m.Thresholds)
				if err != nil {
					t.Fatalf("%s channel %d, factor %v: %v", tgt.Name(), ch, f, err)
				}
				if delay, glitch := c.RiskMasks(); delay != [2]uint64{} || glitch != 0 {
					t.Errorf("%s channel %d (%d wires), factor %v: risk masks delay %x glitch %x, want none",
						tgt.Name(), ch, m.Nominal.Width, f, delay, glitch)
				}
			}
		}
	}
}

// TestEnvelopeProvesE5ListsClean shows that the envelope is not vacuous on
// the paper's workload. Over the seed-1 1000-defect E5 libraries and the
// distinct golden transitions of the default Parwan plan, the batch's
// envelope proves clean some of the victim lists the screen kernel visits,
// and the envelope of a resume group's size of sets (28 on the address bus,
// 52 on the data bus, the mean group sizes there) proves some whole
// transitions clean.
func TestEnvelopeProvesE5ListsClean(t *testing.T) {
	tgt := target.Parwan()
	models, err := tgt.BusModels(0)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tgt.Generate(target.GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := tgt.NewCore(plan, models)
	if err != nil {
		t.Fatal(err)
	}
	golden := make([][]target.BusStep, 2)
	for s := range plan.Programs {
		_, steps, err := c.Golden(s)
		if err != nil {
			t.Fatal(err)
		}
		for bus, st := range steps {
			golden[bus] = append(golden[bus], st...)
		}
	}
	for _, tc := range []struct {
		name  string
		bus   core.BusID
		group int
	}{
		{"addr", core.AddrBus, 28},
		{"data", core.DataBus, 52},
	} {
		m := models[tc.bus]
		lib, err := defects.Generate(m.Nominal, m.Thresholds, defects.Config{Size: 1000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		params := make([]*crosstalk.Params, len(lib.Defects))
		for d, def := range lib.Defects {
			params[d] = def.Params
		}
		b, err := crosstalk.NewBatch(params, m.Thresholds)
		if err != nil {
			t.Fatal(err)
		}
		groups := make([]crosstalk.Envelope, b.Len()/tc.group)
		for d := 0; d < len(groups)*tc.group; d++ {
			groups[d/tc.group].Add(b.Channel(d))
		}
		seen := make(map[target.BusStep]bool)
		var proved, lists, clean, checks int
		for _, st := range golden[tc.bus] {
			if seen[st] {
				continue
			}
			seen[st] = true
			p, l := b.ProvedLists(st.Prev, st.Next, st.Dir)
			proved, lists = proved+p, lists+l
			for g := range groups {
				checks++
				if !groups[g].MayErr(st.Prev, st.Next, st.Dir) {
					clean++
				}
			}
		}
		t.Logf("%s: over %d distinct golden transitions the batch envelope proves %d of %d victim lists clean, and envelopes of %d sets prove %d of %d transitions clean",
			tc.name, len(seen), proved, lists, tc.group, clean, checks)
		if proved == 0 || clean == 0 {
			t.Errorf("%s: the envelope proves nothing clean", tc.name)
		}
	}
}
