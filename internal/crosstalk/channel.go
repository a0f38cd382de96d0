package crosstalk

import (
	"fmt"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/maf"
)

// Event records one crosstalk error produced during a bus transition: which
// wire erred, which MAF error effect it exhibited, and the analogue magnitude
// that crossed the threshold (glitch peak as a fraction of Vdd, or delay in
// seconds).
type Event struct {
	Wire      int
	Kind      maf.Kind
	Magnitude float64
}

// String renders the event for traces.
func (e Event) String() string {
	return fmt.Sprintf("%s[%d](%.3g)", e.Kind, e.Wire, e.Magnitude)
}

// WireAnalysis is the per-wire analogue result of analysing one bus
// transition, before thresholding.
type WireAnalysis struct {
	Transition logic.Transition
	// GlitchFrac is the glitch peak as a fraction of Vdd, signed toward the
	// flip direction (only meaningful when the wire is stable). Positive
	// means the coupled charge pushes the wire toward its complementary
	// level.
	GlitchFrac float64
	// Delay is the Elmore propagation delay in seconds (only meaningful when
	// the wire transitions).
	Delay float64
}

// memoEntry is one cached transmit outcome. The events slice is shared by
// every memo hit, so callers must treat returned event slices as read-only —
// which the soc and sim layers do (they only read and count them).
type memoEntry struct {
	received logic.Word
	events   []Event
}

// memoCap bounds a channel's memo so a long-lived memoized channel (e.g. the
// nominal channel of a campaign service) cannot grow without limit. Past the
// cap, transmits are still computed correctly but no longer inserted.
// Each channel carries its own limit (defaulting to this constant) so tests
// can pin the saturation behaviour with a reachable cap.
const memoCap = 1 << 20

// Channel transmits bus words through the crosstalk model: a parameter set
// (possibly a perturbed, defective one) judged against a fixed threshold set
// derived from the nominal geometry.
//
// A plain channel is stateless and safe for concurrent use. A channel with
// memoization enabled (EnableMemo) carries a transmit cache and must be
// confined to one goroutine at a time.
type Channel struct {
	p  *Params
	th Thresholds

	// ctot[i] is the victim's total coupling Σ_{j≠i} Cc[i][j], accumulated
	// in ascending j order so it is bit-identical to the sum Analyze forms;
	// precomputing it lets the transmit glitch path visit only the switching
	// aggressors instead of every wire.
	ctot []float64

	// delayRisk[dir] and glitchRisk are the channel's risk masks (see
	// riskMasks): delayRisk[dir] bit i is set iff wire i can err by delay
	// when driven in direction dir, glitchRisk bit i iff it can err by
	// glitch. transmit evaluates only those wires.
	delayRisk  [2]uint64
	glitchRisk uint64

	// memo caches transmit outcomes keyed by the packed (prev, next, dir)
	// triple: prev<<(width+1) | next<<1 | dir. The channel's parameter and
	// threshold sets are fixed, so the key fully determines the outcome.
	// Buses too wide to pack fall back to memoWide's struct keys; both maps
	// are never populated at once.
	memo                 map[uint64]memoEntry
	memoWide             map[wideKey]memoEntry
	memoLimit            int // max cached entries; memoCap unless overridden by test hook
	memoHits, memoMisses uint64
}

// wideKey is the transmit-memo key for buses whose (prev, next, dir) triple
// does not fit one packed uint64 (width > 31). Words carry up to 64 wires,
// so two uint64 values plus the direction key any representable transition.
type wideKey struct {
	prev, next uint64
	dir        maf.Direction
}

// NewChannel builds a channel over the given (possibly defective) parameters
// using thresholds derived from the nominal geometry.
func NewChannel(p *Params, th Thresholds) (*Channel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := th.Validate(); err != nil {
		return nil, err
	}
	c := &Channel{p: p, th: th}
	c.ctot, c.delayRisk, c.glitchRisk = riskMasks(p, th)
	return c, nil
}

// riskMasks computes a validated parameter set's per-wire total coupling
// (Channel.ctot) and its exact worst-case risk masks for NewChannel. A Batch
// gathers its columns from its sets' channels, so the two kernels cannot
// disagree:
//
//   - delayRisk[dir] bit i is set iff ln2*RDrive[dir]*ceffMax > Slack[dir],
//     where ceffMax = Cg[i] + Σ_{j≠i, ascending} 2*Cc[i][j];
//   - glitchRisk bit i is set iff ctot[i]/(Cg[i]+ctot[i]) > GlitchFrac.
//
// Both are transmit's own expressions in its own summation order (the sums
// run in registers, in ascending j): this is the paper's Cth criterion (only
// a wire whose net coupling is too large can err, and only under its
// maximum-aggressor pattern) made exact for floating-point arithmetic.
//
// The masks are sound: a wire outside them cannot err on any transition.
// Validate guarantees Cc >= 0, Cg > 0 and RDrive > 0, and IEEE
// round-to-nearest addition, multiplication and division by a positive
// number are monotone. A transition's accumulated ceff adds 0, Cc or 2*Cc
// per aggressor in the same order, so it is at most ceffMax; its signed
// glitch charge adds ±Cc for a subset of the same terms, so |push| is at
// most ctot[i]. Neither can then cross a threshold the bound does not.
//
// The masks are tight: the bound is attained exactly by wire i's MA tests
// (the rising-delay pattern opposes every aggressor; the positive-glitch
// pattern raises every aggressor), so the masks equal the verdicts of
// Margins, which evaluates those patterns through Analyze.
func riskMasks(p *Params, th Thresholds) (ctot []float64, delayRisk [2]uint64, glitchRisk uint64) {
	ctot = make([]float64, p.Width)
	for i, row := range p.Cc {
		var tot float64
		ceffMax := p.Cg[i]
		for j, c := range row {
			if j != i {
				tot += c
				ceffMax += 2 * c
			}
		}
		ctot[i] = tot
		bit := uint64(1) << uint(i)
		for dir, r := range p.RDrive {
			if ln2*r*ceffMax > th.Slack[dir] {
				delayRisk[dir] |= bit
			}
		}
		if tot/(p.Cg[i]+tot) > th.GlitchFrac {
			glitchRisk |= bit
		}
	}
	return ctot, delayRisk, glitchRisk
}

// Params returns the channel's parameter set.
func (c *Channel) Params() *Params { return c.p }

// Thresholds returns the channel's threshold set.
func (c *Channel) Thresholds() Thresholds { return c.th }

// Width returns the bus width.
func (c *Channel) Width() int { return c.p.Width }

// EnableMemo switches the channel to memoized transmission: each distinct
// (previous word, next word, direction) triple is analysed once and its
// outcome cached. Campaigns do not memoize: the risk masks make a clean
// transmit O(1) and an erring one O(W) per at-risk wire, which is cheaper
// than the map lookup the memo adds.
// A memoized channel must be confined to a single goroutine. Busses up to
// 31 wires pack the whole transition into one uint64 key (the fastest path);
// wider busses, up to the 64 wires Params.Validate admits, use a struct key.
func (c *Channel) EnableMemo() {
	if c.memoLimit == 0 {
		c.memoLimit = memoCap
	}
	switch {
	case c.memo != nil || c.memoWide != nil:
	case 2*c.p.Width+1 <= 64:
		c.memo = make(map[uint64]memoEntry)
	default:
		c.memoWide = make(map[wideKey]memoEntry)
	}
}

// setMemoCapForTest overrides the memo's insertion cap. Tests use it to
// reach saturation with a handful of transitions; production channels always
// run with memoCap. Call before EnableMemo.
func (c *Channel) setMemoCapForTest(n int) { c.memoLimit = n }

// MemoActive reports whether transmits are currently being memoized.
func (c *Channel) MemoActive() bool { return c.memo != nil || c.memoWide != nil }

// TakeMemoStats returns the number of memoized transmit hits and misses
// accumulated since the last call, and resets both counters to zero. The
// sim layer drains these per defect run into campaign-wide totals.
func (c *Channel) TakeMemoStats() (hits, misses uint64) {
	hits, misses = c.memoHits, c.memoMisses
	c.memoHits, c.memoMisses = 0, 0
	return hits, misses
}

// Analyze computes the analogue crosstalk response of every wire for the
// transition v1 -> v2 driven in direction dir, without thresholding.
func (c *Channel) Analyze(v1, v2 logic.Word, dir maf.Direction) []WireAnalysis {
	if v1.Width() != c.p.Width || v2.Width() != c.p.Width {
		panic(fmt.Sprintf("crosstalk: word width %d/%d does not match %d-wire channel",
			v1.Width(), v2.Width(), c.p.Width))
	}
	ts := logic.Transitions(v1, v2)
	out := make([]WireAnalysis, c.p.Width)
	r := c.p.RDrive[dir]
	for i := range out {
		out[i].Transition = ts[i]
		if ts[i].IsEdge() {
			// Miller-weighted Elmore delay: opposing aggressor edges count
			// double, quiet aggressors once, same-direction edges zero.
			ceff := c.p.Cg[i]
			for j, tr := range ts {
				if j == i {
					continue
				}
				switch {
				case tr.IsEdge() && tr != ts[i]:
					ceff += 2 * c.p.Cc[i][j]
				case !tr.IsEdge():
					ceff += c.p.Cc[i][j]
				}
			}
			out[i].Delay = ln2 * r * ceff
			continue
		}
		// Stable victim: net coupled charge from switching aggressors.
		// Rising aggressors push the victim up, falling aggressors pull it
		// down; the sign convention makes "toward the flip" positive.
		var push, ctot float64
		for j, tr := range ts {
			if j == i {
				continue
			}
			ctot += c.p.Cc[i][j]
			switch tr {
			case logic.Rising:
				push += c.p.Cc[i][j]
			case logic.Falling:
				push -= c.p.Cc[i][j]
			}
		}
		if ts[i] == logic.Stable1 {
			push = -push // a downward pull flips a high wire
		}
		out[i].GlitchFrac = push / (c.p.Cg[i] + ctot)
	}
	return out
}

// Transmit applies the transition v1 -> v2 to the bus in direction dir and
// returns the word latched at the receiver, together with the error events
// (empty when the transfer is clean). A wire whose transition is delayed past
// the sampling slack latches its previous value; a stable wire whose glitch
// peak exceeds the receiver threshold latches the flipped value.
//
// When memoization is enabled, repeated transitions return the cached
// outcome; the returned events slice is then shared and must not be mutated.
func (c *Channel) Transmit(v1, v2 logic.Word, dir maf.Direction) (logic.Word, []Event) {
	if c.memo != nil {
		k := v1.Uint64()<<uint(c.p.Width+1) | v2.Uint64()<<1 | uint64(dir)&1
		if e, ok := c.memo[k]; ok {
			c.memoHits++
			return e.received, e.events
		}
		c.memoMisses++
		received, events := c.transmit(v1, v2, dir)
		if len(c.memo) < c.memoLimit {
			c.memo[k] = memoEntry{received: received, events: events}
		}
		return received, events
	}
	if c.memoWide != nil {
		k := wideKey{prev: v1.Uint64(), next: v2.Uint64(), dir: dir}
		if e, ok := c.memoWide[k]; ok {
			c.memoHits++
			return e.received, e.events
		}
		c.memoMisses++
		received, events := c.transmit(v1, v2, dir)
		if len(c.memoWide) < c.memoLimit {
			c.memoWide[k] = memoEntry{received: received, events: events}
		}
		return received, events
	}
	return c.transmit(v1, v2, dir)
}

// transmit is the uncached transmission path. It is the fused form of
// Analyze followed by thresholding — same arithmetic, same visit order —
// but works on the raw bit vectors, evaluates only the wires the risk masks
// admit (a switching wire in delayRisk, a stable one in glitchRisk), and
// allocates nothing on a clean transfer, which matters because it sits
// under every bus transaction of every simulated defect run
// (TestTransmitMatchesAnalyze pins the equivalence). On a channel with no
// wire at risk, such as a nominal one, every transfer is O(1).
func (c *Channel) transmit(v1, v2 logic.Word, dir maf.Direction) (logic.Word, []Event) {
	if v1.Width() != c.p.Width || v2.Width() != c.p.Width {
		panic(fmt.Sprintf("crosstalk: word width %d/%d does not match %d-wire channel",
			v1.Width(), v2.Width(), c.p.Width))
	}
	a, b := v1.Uint64(), v2.Uint64()
	edges := a ^ b
	if edges == 0 {
		// No wire switches: no delays (no edges) and no coupled charge
		// (glitch thresholds are validated positive), so the transfer is
		// clean by construction.
		return v2, nil
	}
	risk := edges&c.delayRisk[dir] | ^edges&c.glitchRisk
	if risk == 0 {
		return v2, nil
	}
	received := v2
	var events []Event
	r := c.p.RDrive[dir]
	slack := c.th.Slack[dir]
	// Visit the at-risk wires ascending, so events keep their wire order.
	for ; risk != 0; risk &= risk - 1 {
		i := bits.TrailingZeros64(risk)
		bitI := uint64(1) << uint(i)
		cci := c.p.Cc[i]
		if edges&bitI != 0 {
			// Miller-weighted Elmore delay: opposing aggressor edges count
			// double, quiet aggressors once, same-direction edges zero. Two
			// switching wires oppose exactly when their final levels differ.
			ceff := c.p.Cg[i]
			for j := 0; j < c.p.Width; j++ {
				if j == i {
					continue
				}
				bitJ := uint64(1) << uint(j)
				if edges&bitJ != 0 {
					if (b&bitI != 0) != (b&bitJ != 0) {
						ceff += 2 * cci[j]
					}
				} else {
					ceff += cci[j]
				}
			}
			if delay := ln2 * r * ceff; delay > slack {
				received = received.WithBit(i, uint(a>>uint(i))&1)
				kind := maf.RisingDelay
				if b&bitI == 0 {
					kind = maf.FallingDelay
				}
				events = append(events, Event{Wire: i, Kind: kind, Magnitude: delay})
			}
			continue
		}
		// Stable victim: net coupled charge from switching aggressors.
		// Rising aggressors push the victim up, falling aggressors pull it
		// down; the sign convention makes "toward the flip" positive. Only
		// the switching wires contribute, so walk the set bits of the edge
		// mask (ascending, matching Analyze's accumulation order exactly)
		// and use the precomputed total coupling for the charge divider.
		var push float64
		for e := edges; e != 0; e &= e - 1 {
			bitJ := e & -e
			cc := cci[bits.TrailingZeros64(e)]
			if b&bitJ != 0 {
				push += cc
			} else {
				push -= cc
			}
		}
		if a&bitI != 0 {
			push = -push // a downward pull flips a high wire
		}
		if g := push / (c.p.Cg[i] + c.ctot[i]); g > c.th.GlitchFrac {
			received = received.FlipBit(i)
			kind := maf.PositiveGlitch
			if a&bitI != 0 {
				kind = maf.NegativeGlitch
			}
			events = append(events, Event{Wire: i, Kind: kind, Magnitude: g})
		}
	}
	return received, events
}

// Clean reports whether the transition v1 -> v2 transfers without error in
// direction dir.
func (c *Channel) Clean(v1, v2 logic.Word, dir maf.Direction) bool {
	_, events := c.Transmit(v1, v2, dir)
	return len(events) == 0
}
