package crosstalk

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/logic"
	"repro/internal/maf"
)

// loudFactor scales every nominal coupling so that every wire of the
// resulting set errs under each of its MA patterns: the edge wires of a wide
// bus, whose nominal net coupling is about half the centre wires', need the
// whole factor to clear the glitch criterion (DefaultGlitchMargin*Cth).
const loudFactor = 4

// extremeSets returns the two parameter sets at the ends of the risk range
// for a width-wire bus: quiet has no coupling at all, so no wire can err;
// loud has every nominal coupling scaled by loudFactor, so every wire is at
// risk of every error kind in both directions.
func extremeSets(width int) (quiet, loud *Params) {
	quiet, loud = Nominal(width), Nominal(width)
	for i := 0; i < width; i++ {
		for j := range quiet.Cc[i] {
			quiet.Cc[i][j] = 0
			loud.Cc[i][j] *= loudFactor
		}
	}
	return quiet, loud
}

// riskMismatch compares a channel's risk masks with the verdicts Margins
// reaches by analysing every wire's MA patterns through Analyze, and
// describes the first disagreement ("" when they agree on every wire).
func riskMismatch(c *Channel) string {
	for _, m := range Margins(c) {
		bit := uint64(1) << uint(m.Wire)
		for dir, delay := range m.Delay {
			if got, want := c.delayRisk[dir]&bit != 0, delay > c.th.Slack[dir]; got != want {
				return fmt.Sprintf("wire %d direction %d: delayRisk bit %v, MA delay %g against slack %g",
					m.Wire, dir, got, delay, c.th.Slack[dir])
			}
		}
		if got, want := c.glitchRisk&bit != 0, m.GlitchFrac > c.th.GlitchFrac; got != want {
			return fmt.Sprintf("wire %d: glitchRisk bit %v, MA glitch %g against threshold %g",
				m.Wire, got, m.GlitchFrac, c.th.GlitchFrac)
		}
	}
	return ""
}

// TestRiskMasksMatchMargins pins the risk masks to the worst-case analysis
// they claim to be exact: over the nominal set, the two extreme sets and
// random perturbations, at widths on both sides of the 32-wire boundary,
// every mask bit must equal the verdict of the wire's own MA pattern.
func TestRiskMasksMatchMargins(t *testing.T) {
	for _, width := range []int{2, 8, 12, 31, 32, 33, 64} {
		width := width
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			th, err := DeriveThresholds(Nominal(width), 0)
			if err != nil {
				t.Fatal(err)
			}
			quiet, loud := extremeSets(width)
			perturbed := perturbedSets(t, width, 200, int64(width))
			nominal := perturbed[0]
			sets := append([]*Params{quiet, loud}, perturbed...)
			for s, p := range sets {
				c, err := NewChannel(p, th)
				if err != nil {
					t.Fatal(err)
				}
				if msg := riskMismatch(c); msg != "" {
					t.Fatalf("set %d: %s", s, msg)
				}
				var want uint64
				switch p {
				case loud:
					want = uint64(1)<<uint(width) - 1 // every wire (all 64 when the shift overflows)
				case quiet, nominal:
					want = 0
				default:
					continue
				}
				if c.delayRisk[0] != want || c.delayRisk[1] != want || c.glitchRisk != want {
					t.Fatalf("set %d: masks delay %#x/%#x glitch %#x, want %#x for all three",
						s, c.delayRisk[0], c.delayRisk[1], c.glitchRisk, want)
				}
			}
		})
	}
}

// FuzzReadTransmit drives untrusted parameter files through the channel:
// any file Read accepts must build a channel, transmit exactly as the
// specification form (Analyze plus thresholding) does, and carry risk masks
// equal to its Margins verdicts. The envelope of the parsed set and the
// nominal set of its width must never prove clean a transfer on which either
// one errs.
func FuzzReadTransmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, file []byte, v1, v2 uint64, reverse bool) {
		p, th, err := Read(bytes.NewReader(file))
		if err != nil {
			return
		}
		c, err := NewChannel(p, th)
		if err != nil {
			t.Fatalf("Read accepted a file NewChannel refuses: %v", err)
		}
		dir := maf.Forward
		if reverse {
			dir = maf.Reverse
		}
		w1, w2 := logic.NewWord(v1, p.Width), logic.NewWord(v2, p.Width)
		gotW, gotE := c.Transmit(w1, w2, dir)
		wantW, wantE := referenceTransmit(c, w1, w2, dir)
		if gotW != wantW || !reflect.DeepEqual(gotE, wantE) {
			t.Fatalf("transmit (%v, %v) != reference (%v, %v) for %v->%v %v",
				gotW, gotE, wantW, wantE, w1, w2, dir)
		}
		if msg := riskMismatch(c); msg != "" {
			t.Fatal(msg)
		}
		nominal, err := NewChannel(Nominal(p.Width), th)
		if err != nil {
			t.Fatalf("the nominal %d-wire set does not validate: %v", p.Width, err)
		}
		var e Envelope
		e.Add(c)
		e.Add(nominal)
		if !e.MayErr(w1, w2, dir) {
			_, nominalE := nominal.Transmit(w1, w2, dir)
			if len(gotE) > 0 || len(nominalE) > 0 {
				t.Fatalf("envelope proves %v->%v %v clean, but the set errs %v and the nominal set %v",
					w1, w2, dir, gotE, nominalE)
			}
		}
	})
}
