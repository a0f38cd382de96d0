package crosstalk

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/logic"
	"repro/internal/maf"
)

// Batch evaluates one bus transition against many parameter sets at once —
// the vectorized form of Channel.Transmit's error decision. A defect
// library's perturbed coupling matrices are transposed into structure-of-
// arrays layout, so a single walk over a transition's aggressors
// accumulates many sets' effective capacitance in a tight inner loop
// instead of constructing and dispatching through N Channel values.
//
// Only the sets at risk on a wire are stored and evaluated for it: per
// victim wire, the batch keeps the ascending indexes of the sets whose risk
// masks (see riskMasks, shared with NewChannel) admit that wire, plus those
// sets' compacted columns. A set outside a wire's list provably never errs
// on that wire, so skipping it changes no verdict. A defect library puts
// 1.15–1.35 wires per set at risk, so the batch holds about n·1.2·W coupling
// values rather than n·W².
//
// The per-set error decision is arithmetic-identical to Channel.transmit:
// the same accumulation order (ascending aggressor index), the same Miller
// weighting, the same precomputed ascending-order total coupling in the
// glitch charge divider, and the same strict threshold comparisons. The sim
// layer's batched screening relies on this to clear a defect from a campaign
// with exactly the verdict a per-defect Channel walk would reach
// (TestBatchMatchesChannelTransmit pins the equivalence).
//
// A Batch is safe for concurrent use: it is immutable once built, and each
// EventMask call draws its per-set accumulator from a pool the batch owns, so
// several goroutines may evaluate transitions of one batch at once.
type Batch struct {
	width int
	n     int
	th    Thresholds

	victims []batchVictim // indexed by victim wire

	// scratch pools EventMask's accumulators (*[]float64, as long as the
	// longest victim list), one per concurrent call.
	scratch sync.Pool
}

// batchVictim holds the sets at risk on one victim wire i. sets lists their
// batch indexes ascending; column k of every other slice belongs to set
// sets[k]: its ground capacitance cg, its ascending-order total coupling
// ctot (as Channel.ctot), its drive resistance rdrive[dir], and in cc[j] its
// coupling Cc[i][j].
type batchVictim struct {
	sets   []int32
	cg     []float64
	ctot   []float64
	rdrive [2][]float64
	cc     [][]float64
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
	b := &Batch{
		width:   width,
		n:       len(params),
		th:      th,
		victims: make([]batchVictim, width),
	}
	for i := range b.victims {
		b.victims[i].cc = make([][]float64, width)
	}
	for d, p := range params {
		ctot, delayRisk, glitchRisk := riskMasks(p, th)
		for risk := delayRisk[0] | delayRisk[1] | glitchRisk; risk != 0; risk &= risk - 1 {
			i := bits.TrailingZeros64(risk)
			v := &b.victims[i]
			v.sets = append(v.sets, int32(d))
			v.cg = append(v.cg, p.Cg[i])
			v.ctot = append(v.ctot, ctot[i])
			for dir, r := range p.RDrive {
				v.rdrive[dir] = append(v.rdrive[dir], r)
			}
			for j, c := range p.Cc[i] {
				v.cc[j] = append(v.cc[j], c)
			}
		}
	}
	most := 0
	for _, v := range b.victims {
		most = max(most, len(v.sets))
	}
	b.scratch.New = func() any {
		acc := make([]float64, most)
		return &acc
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
// transition. It is safe to call concurrently.
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
	scratch := b.scratch.Get().(*[]float64)
	defer b.scratch.Put(scratch)
	for i := range b.victims {
		v := &b.victims[i]
		if len(v.sets) == 0 {
			continue
		}
		acc := (*scratch)[:len(v.sets)]
		bitI := uint64(1) << uint(i)
		if edges&bitI != 0 {
			// Switching victim: Miller-weighted Elmore delay per set, visiting
			// aggressors in ascending order exactly as Channel.transmit does.
			copy(acc, v.cg)
			for j, row := range v.cc {
				if j == i {
					continue
				}
				bitJ := uint64(1) << uint(j)
				row = row[:len(acc)]
				if edges&bitJ != 0 {
					if (v2&bitI != 0) != (v2&bitJ != 0) {
						for k := range acc {
							acc[k] += 2 * row[k]
						}
					}
				} else {
					for k := range acc {
						acc[k] += row[k]
					}
				}
			}
			slack := b.th.Slack[dir]
			r := v.rdrive[dir][:len(acc)]
			for k := range acc {
				if ln2*r[k]*acc[k] > slack {
					d := v.sets[k]
					mask[d>>6] |= 1 << uint(d&63)
				}
			}
			continue
		}
		// Stable victim: net coupled charge from the switching aggressors,
		// walking the edge mask's set bits ascending as Channel.transmit does.
		for k := range acc {
			acc[k] = 0
		}
		for e := edges; e != 0; e &= e - 1 {
			bitJ := e & -e
			row := v.cc[bits.TrailingZeros64(e)][:len(acc)]
			if v2&bitJ != 0 {
				for k := range acc {
					acc[k] += row[k]
				}
			} else {
				for k := range acc {
					acc[k] -= row[k]
				}
			}
		}
		neg := a&bitI != 0
		cgi, ctoti := v.cg[:len(acc)], v.ctot[:len(acc)]
		for k := range acc {
			push := acc[k]
			if neg {
				push = -push // a downward pull flips a high wire
			}
			if push/(cgi[k]+ctoti[k]) > b.th.GlitchFrac {
				d := v.sets[k]
				mask[d>>6] |= 1 << uint(d&63)
			}
		}
	}
}
