package crosstalk

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/logic"
	"repro/internal/maf"
)

// TestEnvelopeSound pins the envelope's one claim, that it bounds every
// channel it covers: whenever MayErr is false, every channel transmits the
// transition with no event, and whenever a channel errs on a wire, that
// wire's row may err too (the wire-by-wire form EventMask relies on when it
// skips one wire's list and walks another's). It covers widths on both
// sides of the 32-wire boundary, envelopes of 1, 2, 5 and all of a mix of
// perturbed, extreme and lopsided sets, so that the extremes of a row come
// from different sets, and random transitions in both directions of sparse,
// even and dense switching, plus every MA pattern, which brings a victim to
// its worst case.
func TestEnvelopeSound(t *testing.T) {
	for _, width := range []int{2, 8, 12, 31, 32, 33, 64} {
		width := width
		t.Run(fmt.Sprintf("width%d", width), func(t *testing.T) {
			th, err := DeriveThresholds(Nominal(width), 0)
			if err != nil {
				t.Fatal(err)
			}
			quiet, loud := extremeSets(width)
			sets := append(perturbedSets(t, width, 40, int64(500+width)), quiet, loud)
			sets = append(sets, lopsidedSets(width, 20, int64(700+width))...)
			chans := make([]*Channel, len(sets))
			for d, p := range sets {
				if chans[d], err = NewChannel(p, th); err != nil {
					t.Fatal(err)
				}
			}
			ma := maf.Tests(width, true)
			rng := rand.New(rand.NewSource(int64(11 * width)))
			var e Envelope
			proved, events := 0, 0
			for _, size := range []int{1, 2, 5, len(chans)} {
				for trial := 0; trial < 6; trial++ {
					members := rng.Perm(len(chans))[:size]
					e.Reset()
					for _, d := range members {
						e.Add(chans[d])
					}
					for step := 0; step < 150+len(ma); step++ {
						var v1, v2 logic.Word
						var dir maf.Direction
						if step < len(ma) {
							v1, v2, dir = ma[step].V1, ma[step].V2, ma[step].Fault.Dir
						} else {
							flip := rng.Uint64()
							switch step % 3 {
							case 0:
								flip &= rng.Uint64()
							case 1:
								flip |= rng.Uint64()
							}
							a := rng.Uint64()
							v1, v2 = logic.NewWord(a, width), logic.NewWord(a^flip, width)
							dir = maf.Direction(rng.Intn(2))
						}
						may := e.MayErr(v1, v2, dir)
						if !may {
							proved++
						}
						for _, d := range members {
							_, evs := chans[d].Transmit(v1, v2, dir)
							events += len(evs)
							if !may && len(evs) > 0 {
								t.Fatalf("envelope of %d sets proves %v->%v %v clean, set %d errs %v",
									size, v1, v2, dir, d, evs)
							}
							for _, ev := range evs {
								if !e.mayErrOn(ev.Wire, v1.Uint64(), v2.Uint64(), dir) {
									t.Fatalf("envelope of %d sets proves wire %d clean on %v->%v %v, set %d errs %v",
										size, ev.Wire, v1, v2, dir, d, ev)
								}
							}
						}
					}
				}
			}
			// Both outcomes occur, so neither half of the check is vacuous.
			if proved == 0 || events == 0 {
				t.Fatalf("%d transitions proved clean, %d events: the check is vacuous", proved, events)
			}
		})
	}
}

// lopsidedSets draws n sets whose every coupling is either loudFactor or
// 1/loudFactor times nominal, each with probability one half. A wire of such
// a set errs by glitch when its strong aggressors switch toward its flip,
// and the sets differ most in which aggressors are strong, so an envelope
// of several takes its largest couplings and its smallest denominator from
// different sets. Their ground capacitances and drive resistances vary too,
// the latter per direction, so that a wire may be at delay risk in one
// direction only.
func lopsidedSets(width, n int, seed int64) []*Params {
	rng := rand.New(rand.NewSource(seed))
	sets := make([]*Params, n)
	for s := range sets {
		p := Nominal(width)
		for i := range p.Cg {
			p.Cg[i] *= 0.7 + 0.6*rng.Float64()
		}
		for dir := range p.RDrive {
			p.RDrive[dir] *= 0.7 + 0.8*rng.Float64()
		}
		for a := 0; a < width; a++ {
			for b := a + 1; b < width; b++ {
				if rng.Intn(2) == 0 {
					p.Cc[a][b] *= loudFactor
				} else {
					p.Cc[a][b] /= loudFactor
				}
				p.Cc[b][a] = p.Cc[a][b]
			}
		}
		sets[s] = p
	}
	return sets
}

// TestEnvelopeRefusesMixedChannels pins Add's precondition: every channel
// of an envelope shares one width and one threshold set.
func TestEnvelopeRefusesMixedChannels(t *testing.T) {
	th8, err := DeriveThresholds(Nominal(8), 0)
	if err != nil {
		t.Fatal(err)
	}
	th12, err := DeriveThresholds(Nominal(12), 0)
	if err != nil {
		t.Fatal(err)
	}
	th8b, err := DeriveThresholds(Nominal(8), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *Params
		th   Thresholds
	}{
		{"width", Nominal(12), th12},
		{"thresholds", Nominal(8), th8b},
	} {
		var e Envelope
		c8, err := NewChannel(Nominal(8), th8)
		if err != nil {
			t.Fatal(err)
		}
		e.Add(c8)
		other, err := NewChannel(tc.p, tc.th)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Add took a channel of another %s", tc.name, tc.name)
				}
			}()
			e.Add(other)
		}()
		// After a Reset the other channel starts a new envelope.
		e.Reset()
		e.Add(other)
		if e.width != tc.p.Width || e.th != tc.th {
			t.Errorf("%s: a reset envelope did not take its first channel's width and thresholds", tc.name)
		}
	}
	var empty Envelope
	if empty.MayErr(logic.NewWord(0, 8), logic.NewWord(0xff, 8), maf.Forward) {
		t.Error("an empty envelope may err")
	}
}
