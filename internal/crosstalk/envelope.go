package crosstalk

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/maf"
)

// Envelope is one exact upper bound on the transmit verdicts of a set of
// channels that share one threshold set: where a risk mask is one set's
// worst case over all patterns, the envelope is one pattern's worst case
// over all sets. MayErr false proves that every channel of the envelope
// transmits the transition without an error event, at O(W) per wire the
// union of their risk masks admits, whatever the number of channels.
//
// Per wire i the envelope keeps two rows, built from the channels at risk
// on i only:
//
//   - over the channels at delay risk on i (in either direction), the
//     largest Cg[i], RDrive[dir] and Cc[i][j];
//   - over the channels at glitch risk on i, the largest Cc[i][j] and the
//     smallest charge-divider denominator Cg[i]+ctot[i].
//
// MayErr evaluates transmit's own expressions, in transmit's ascending
// aggressor order, on those extremes: a switching victim's Miller-weighted
// ceff from the largest couplings and its delay with the largest
// resistance; a stable victim's push from the aggressors switching toward
// its flip at their largest couplings (the others count zero, where a
// channel subtracts them) over the smallest denominator. Validate
// guarantees Cc >= 0, Cg > 0 and RDrive > 0 and refuses NaN, and IEEE
// round-to-nearest addition, multiplication and division by a positive
// number are monotone, which is riskMasks's argument: every partial sum of
// the bound is at least the same partial sum of each channel, so the bound
// is at least each channel's delay or glitch, and a threshold the bound
// does not cross no channel crosses.
//
// The zero Envelope is empty, and MayErr on it reports false. An Envelope
// is not safe for concurrent Add; MayErr only reads it.
type Envelope struct {
	width int    // 0 while the envelope is empty
	wires uint64 // one bit per wire
	th    Thresholds

	// delayRisk and glitchRisk are the union of the channels' risk masks.
	delayRisk  [2]uint64
	glitchRisk uint64

	// The delay rows: cg[i] and r[dir][i] are the largest Cg[i] and
	// RDrive[dir], dcc[i*width+j] the largest Cc[i][j], over the channels
	// at delay risk on wire i.
	cg  []float64
	r   [2][]float64
	dcc []float64
	// The glitch rows: gcc[i*width+j] is the largest Cc[i][j] and den[i]
	// the smallest Cg[i]+ctot[i] over the channels at glitch risk on wire i.
	gcc []float64
	den []float64
}

// Reset empties e and keeps its storage for the next channels.
func (e *Envelope) Reset() {
	e.width, e.delayRisk, e.glitchRisk = 0, [2]uint64{}, 0
}

// Add widens e to bound channel c as well. Every channel of an envelope
// shares the first one's width and thresholds; Add panics on one that does
// not.
func (e *Envelope) Add(c *Channel) {
	w := c.p.Width
	if e.width == 0 {
		e.width, e.wires, e.th = w, ^uint64(0)>>uint(64-w), c.th
		e.cg, e.r[0], e.r[1], e.den = zeroed(e.cg, w), zeroed(e.r[0], w), zeroed(e.r[1], w), zeroed(e.den, w)
		e.dcc, e.gcc = zeroed(e.dcc, w*w), zeroed(e.gcc, w*w)
		for i := range e.den {
			e.den[i] = math.Inf(1)
		}
	} else if w != e.width || c.th != e.th {
		panic(fmt.Sprintf("crosstalk: envelope of %d-wire channels cannot take a %d-wire channel or other thresholds", e.width, w))
	}
	p := c.p
	for risk := c.delayRisk[0] | c.delayRisk[1]; risk != 0; risk &= risk - 1 {
		i := bits.TrailingZeros64(risk)
		e.cg[i] = max(e.cg[i], p.Cg[i])
		for dir, r := range p.RDrive {
			e.r[dir][i] = max(e.r[dir][i], r)
		}
		row := e.dcc[i*w : (i+1)*w]
		for j, cc := range p.Cc[i] {
			row[j] = max(row[j], cc)
		}
	}
	for risk := c.glitchRisk; risk != 0; risk &= risk - 1 {
		i := bits.TrailingZeros64(risk)
		e.den[i] = min(e.den[i], p.Cg[i]+c.ctot[i])
		row := e.gcc[i*w : (i+1)*w]
		for j, cc := range p.Cc[i] {
			row[j] = max(row[j], cc)
		}
	}
	e.delayRisk[0] |= c.delayRisk[0]
	e.delayRisk[1] |= c.delayRisk[1]
	e.glitchRisk |= c.glitchRisk
}

// zeroed returns s resized to n zeros, reusing its storage when it can.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// MayErr reports whether the transition prev -> next driven in direction
// dir may make some channel of e err. false proves that every channel
// transmits it cleanly: Transmit would return next and no event.
func (e *Envelope) MayErr(prev, next logic.Word, dir maf.Direction) bool {
	if e.width == 0 {
		return false
	}
	if prev.Width() != e.width || next.Width() != e.width {
		panic(fmt.Sprintf("crosstalk: word width %d/%d does not match %d-wire envelope",
			prev.Width(), next.Width(), e.width))
	}
	a, b := prev.Uint64(), next.Uint64()
	edges := a ^ b
	if edges == 0 {
		return false
	}
	for risk := edges&e.delayRisk[dir] | ^edges&e.glitchRisk; risk != 0; risk &= risk - 1 {
		if e.mayErrOn(bits.TrailingZeros64(risk), a, b, dir) {
			return true
		}
	}
	return false
}

// miller holds the Miller factors of a quiet aggressor (index 0) and an
// opposing one (index 1).
var miller = [2]float64{1, 2}

// mayErrOn reports whether wire i may err on the transition a -> b driven
// in direction dir: the bound of its delay row when it switches, of its
// glitch row when it is stable. The caller visits only the wires the union
// masks admit, whose row therefore covers at least one channel.
func (e *Envelope) mayErrOn(i int, a, b uint64, dir maf.Direction) bool {
	w := e.width
	edges := a ^ b
	bitI := uint64(1) << uint(i)
	if edges&bitI != 0 {
		// Switching victim: transmit's Miller-weighted ceff on the largest
		// couplings, visiting only the aggressors that add to it: the quiet
		// ones once, and the switching ones that end at the other level
		// twice (an exact product, as transmit's 2*Cc is).
		opposing := edges & b
		if b&bitI != 0 {
			opposing = edges &^ b
		}
		row := e.dcc[i*w : (i+1)*w]
		ceff := e.cg[i]
		for t := (^edges&e.wires | opposing); t != 0; t &= t - 1 {
			j := bits.TrailingZeros64(t)
			ceff += miller[opposing>>uint(j)&1] * row[j]
		}
		return ln2*e.r[dir][i]*ceff > e.th.Slack[dir]
	}
	// Stable victim: only the aggressors switching toward its flip push
	// (rising ones for a low victim, falling ones for a high one), each at
	// its largest coupling, ascending as transmit adds them.
	toward := edges & b
	if a&bitI != 0 {
		toward = edges &^ b
	}
	row := e.gcc[i*w : (i+1)*w]
	var push float64
	for t := toward; t != 0; t &= t - 1 {
		push += row[bits.TrailingZeros64(t)]
	}
	return push > 0 && push/e.den[i] > e.th.GlitchFrac
}
