package crosstalk_test

import (
	"math"
	"testing"

	"repro/internal/crosstalk"
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
