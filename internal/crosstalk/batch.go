package crosstalk

import (
	"fmt"
	"math/bits"

	"repro/internal/logic"
	"repro/internal/maf"
)

// Batch evaluates one bus transition against many parameter sets at once —
// the vectorized form of Channel.Transmit's error decision. A defect
// library's perturbed coupling matrices are transposed into structure-of-
// arrays layout (per (victim, aggressor) pair, one contiguous slice over all
// sets), so a single walk over a transition's aggressors accumulates every
// set's effective capacitance in a tight inner loop instead of constructing
// and dispatching through N Channel values.
//
// The per-set error decision is arithmetic-identical to Channel.transmit:
// the same accumulation order (ascending aggressor index), the same Miller
// weighting, the same precomputed ascending-order total coupling in the
// glitch charge divider, and the same strict threshold comparisons. The sim
// layer's batched screening relies on this to clear a defect from a campaign
// with exactly the verdict a per-defect Channel walk would reach
// (TestBatchMatchesChannelTransmit pins the equivalence).
//
// A Batch carries a scratch accumulator, so it must be confined to one
// goroutine at a time, like a memoized Channel.
type Batch struct {
	width int
	n     int
	th    Thresholds

	// cg[i][d], ctot[i][d] and rdrive[dir][d] are parameter set d's per-wire
	// ground capacitance, ascending-order total coupling (as Channel.ctot),
	// and drive resistance. cc[i*width+j][d] is set d's coupling Cc[i][j].
	cg     [][]float64
	ctot   [][]float64
	cc     [][]float64
	rdrive [2][]float64

	acc []float64 // per-set accumulator reused across EventMask calls
}

// NewBatch builds a batch evaluator over the given parameter sets, judged
// against one threshold set (derived, as always, from the nominal geometry
// all the sets perturb). Every set must validate and share one width.
func NewBatch(params []*Params, th Thresholds) (*Batch, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("crosstalk: batch over zero parameter sets")
	}
	if err := th.Validate(); err != nil {
		return nil, err
	}
	width := params[0].Width
	for d, p := range params {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("crosstalk: batch set %d: %w", d, err)
		}
		if p.Width != width {
			return nil, fmt.Errorf("crosstalk: batch set %d is %d wires, set 0 is %d", d, p.Width, width)
		}
	}
	n := len(params)
	b := &Batch{
		width: width,
		n:     n,
		th:    th,
		cg:    make([][]float64, width),
		ctot:  make([][]float64, width),
		cc:    make([][]float64, width*width),
		acc:   make([]float64, n),
	}
	for dir := range b.rdrive {
		b.rdrive[dir] = make([]float64, n)
		for d, p := range params {
			b.rdrive[dir][d] = p.RDrive[dir]
		}
	}
	for i := 0; i < width; i++ {
		b.cg[i] = make([]float64, n)
		b.ctot[i] = make([]float64, n)
		for d, p := range params {
			b.cg[i][d] = p.Cg[i]
		}
		for j := 0; j < width; j++ {
			row := make([]float64, n)
			for d, p := range params {
				row[d] = p.Cc[i][j]
			}
			b.cc[i*width+j] = row
			if j != i {
				// Ascending-j accumulation, bit-identical to the sum
				// NewChannel forms for Channel.ctot.
				for d := range row {
					b.ctot[i][d] += row[d]
				}
			}
		}
	}
	return b, nil
}

// Len returns the number of parameter sets in the batch.
func (b *Batch) Len() int { return b.n }

// Width returns the bus width the batch evaluates.
func (b *Batch) Width() int { return b.width }

// MaskWords returns the length of the []uint64 event masks EventMask fills:
// one bit per parameter set.
func (b *Batch) MaskWords() int { return (b.n + 63) / 64 }

// EventMask applies the transition prev -> next driven in direction dir to
// every parameter set and overwrites mask (of MaskWords length) with the
// outcome: bit d is set iff set d's channel would produce at least one error
// event — exactly when Channel.Transmit on set d would report a non-empty
// event list, which is exactly when a replayed trace diverges at this
// transition.
func (b *Batch) EventMask(prev, next logic.Word, dir maf.Direction, mask []uint64) {
	if prev.Width() != b.width || next.Width() != b.width {
		panic(fmt.Sprintf("crosstalk: word width %d/%d does not match %d-wire batch",
			prev.Width(), next.Width(), b.width))
	}
	if len(mask) != b.MaskWords() {
		panic(fmt.Sprintf("crosstalk: event mask has %d words, want %d", len(mask), b.MaskWords()))
	}
	for w := range mask {
		mask[w] = 0
	}
	a, v2 := prev.Uint64(), next.Uint64()
	edges := a ^ v2
	if edges == 0 {
		// No wire switches: no delays and no coupled charge, clean for every
		// set by construction (as in Channel.transmit).
		return
	}
	acc := b.acc
	for i := 0; i < b.width; i++ {
		bitI := uint64(1) << uint(i)
		if edges&bitI != 0 {
			// Switching victim: Miller-weighted Elmore delay per set, visiting
			// aggressors in ascending order exactly as Channel.transmit does.
			copy(acc, b.cg[i])
			for j := 0; j < b.width; j++ {
				if j == i {
					continue
				}
				bitJ := uint64(1) << uint(j)
				row := b.cc[i*b.width+j]
				if edges&bitJ != 0 {
					if (v2&bitI != 0) != (v2&bitJ != 0) {
						for d := range acc {
							acc[d] += 2 * row[d]
						}
					}
				} else {
					for d := range acc {
						acc[d] += row[d]
					}
				}
			}
			slack := b.th.Slack[dir]
			r := b.rdrive[dir]
			for d := range acc {
				if ln2*r[d]*acc[d] > slack {
					mask[d>>6] |= 1 << uint(d&63)
				}
			}
			continue
		}
		// Stable victim: net coupled charge from the switching aggressors,
		// walking the edge mask's set bits ascending as Channel.transmit does.
		for d := range acc {
			acc[d] = 0
		}
		for e := edges; e != 0; e &= e - 1 {
			bitJ := e & -e
			row := b.cc[i*b.width+bits.TrailingZeros64(e)]
			if v2&bitJ != 0 {
				for d := range acc {
					acc[d] += row[d]
				}
			} else {
				for d := range acc {
					acc[d] -= row[d]
				}
			}
		}
		neg := a&bitI != 0
		cgi, ctoti := b.cg[i], b.ctot[i]
		for d := range acc {
			push := acc[d]
			if neg {
				push = -push // a downward pull flips a high wire
			}
			if push/(cgi[d]+ctoti[d]) > b.th.GlitchFrac {
				mask[d>>6] |= 1 << uint(d&63)
			}
		}
	}
}
