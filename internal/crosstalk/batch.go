package crosstalk

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

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
// Only the sets at risk on a wire are stored and evaluated for it, in two
// lists per victim wire i: the sets whose risk masks (see riskMasks,
// computed by each set's Channel) put i at delay risk in either direction,
// and the sets that put i at glitch risk, each list with its own compacted
// columns. A switching victim walks only its delay list and a stable one
// only its glitch list, the filter Channel.transmit applies; a set outside
// a list provably never errs that way on that wire, so skipping it changes
// no verdict. A set's row of W couplings is stored once per list it is on.
// A defect library puts 1.15–1.35 wires per set on delay lists and
// 0.06–0.09 on glitch lists (the glitch criterion sits above the delay
// one), so the batch holds about n·1.3·W coupling values rather than n·W².
//
// The batch also keeps the Envelope of all its sets, whose two rows per
// wire cover exactly that wire's two lists. EventMask first evaluates the
// row of the list a transition would walk, and skips the list when the row
// proves that none of its sets can cross the threshold: such a transition
// costs O(W) on that wire instead of O(sets·W).
//
// The per-set error decision is arithmetic-identical to Channel.transmit:
// the same accumulation order (ascending aggressor index), the same Miller
// weighting, the same charge-divider denominator Cg[i]+ctot[i] (ctot
// summed in ascending order, as Channel.ctot), and the same strict
// threshold comparisons. The sim layer's batched screening relies on this
// to clear a defect from a campaign with exactly the verdict a per-defect
// Channel walk would reach (TestBatchMatchesChannelTransmit pins the
// equivalence).
//
// A batch keeps every set's Channel, the one NewChannel builds: building the
// batch validates each set and computes its risk masks through it, and the
// sim layer resumes a divergent defect on the batch's channel instead of
// building a second one (see Channel).
//
// A Batch is safe for concurrent use: it is immutable once built, and each
// EventMask call draws its per-set accumulator from a pool the batch owns, so
// several goroutines may evaluate transitions of one batch at once.
type Batch struct {
	width int
	n     int
	th    Thresholds

	chans   []*Channel    // set d's channel, see Channel
	victims []batchVictim // indexed by victim wire
	env     Envelope      // of every set; wire i's rows cover victims[i]

	// scratch pools EventMask's accumulators (*[]float64, as long as the
	// longest list), one per concurrent call.
	scratch sync.Pool
}

// batchVictim holds the sets at risk on one victim wire i, in two lists:
// delay for the sets at delay risk on i in either direction, with their
// ground capacitance cg and drive resistances rdrive[dir], and glitch for
// the sets at glitch risk on i, with their charge-divider denominators den,
// Cg[i]+ctot[i]. Column k of a list's slices belongs to set sets[k].
type batchVictim struct {
	delay  batchList
	cg     []float64
	rdrive [2][]float64

	glitch batchList
	den    []float64
}

// batchList is one list of a victim wire i's sets: their batch indexes,
// ascending, and in cc[j*len(sets)+k] set sets[k]'s coupling Cc[i][j].
type batchList struct {
	sets []int32
	cc   []float64
}

// newBatchList returns an empty list with room for n sets on a width-wire
// bus.
func newBatchList(n, width int) batchList {
	return batchList{sets: make([]int32, 0, n), cc: make([]float64, n*width)}
}

// add appends set d with coupling row cc.
func (l *batchList) add(d int, cc []float64) {
	k, n := len(l.sets), cap(l.sets)
	l.sets = append(l.sets, int32(d))
	for j, c := range cc {
		l.cc[j*n+k] = c
	}
}

// column returns column j of the list's couplings: every set's Cc[i][j].
func (l *batchList) column(j int) []float64 {
	n := len(l.sets)
	return l.cc[j*n : (j+1)*n]
}

// setBlock is how many parameter sets a worker of BuildBatch's per-set pass
// takes at a time.
const setBlock = 16

// NewBatch builds a batch evaluator over the given parameter sets, judged
// against one threshold set (derived, as always, from the nominal geometry
// all the sets perturb). Every set must validate and share one width; the
// error names the lowest-indexed set that does not.
func NewBatch(params []*Params, th Thresholds) (*Batch, error) {
	return BuildBatch(context.Background(), params, th, 1, nil)
}

// BuildBatch is NewBatch with its per-set pass, which builds each set's
// Channel (validating the set and computing its risk masks), spread over up
// to workers goroutines, each block of sets holding one slots token (see
// RunBlocks). The batch is the one NewBatch builds. A cancelled context
// returns its error.
func BuildBatch(ctx context.Context, params []*Params, th Thresholds, workers int, slots chan struct{}) (*Batch, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("crosstalk: batch over zero parameter sets")
	}
	if err := th.Validate(); err != nil {
		return nil, err
	}
	width := params[0].Width
	chans := make([]*Channel, len(params))
	errs := make([]error, len(params))
	err := RunBlocks(ctx, len(params), setBlock, workers, slots, func(lo, hi int) {
		for d := lo; d < hi; d++ {
			c, err := NewChannel(params[d], th)
			switch {
			case err != nil:
				errs[d] = fmt.Errorf("crosstalk: batch set %d: %w", d, err)
			case c.p.Width != width:
				errs[d] = fmt.Errorf("crosstalk: batch set %d is %d wires, set 0 is %d", d, c.p.Width, width)
			default:
				chans[d] = c
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	b := &Batch{
		width:   width,
		n:       len(params),
		th:      th,
		chans:   chans,
		victims: make([]batchVictim, width),
	}
	// Size every list exactly, then fill the lists in set order.
	delays, glitches := make([]int, width), make([]int, width)
	for _, c := range chans {
		b.env.Add(c)
		for risk := c.delayRisk[0] | c.delayRisk[1]; risk != 0; risk &= risk - 1 {
			delays[bits.TrailingZeros64(risk)]++
		}
		for risk := c.glitchRisk; risk != 0; risk &= risk - 1 {
			glitches[bits.TrailingZeros64(risk)]++
		}
	}
	most := 0
	for i := range b.victims {
		v, nd, ng := &b.victims[i], delays[i], glitches[i]
		v.delay, v.glitch = newBatchList(nd, width), newBatchList(ng, width)
		v.cg, v.den = make([]float64, 0, nd), make([]float64, 0, ng)
		v.rdrive = [2][]float64{make([]float64, 0, nd), make([]float64, 0, nd)}
		most = max(most, nd, ng)
	}
	for d, c := range chans {
		p := c.p
		for risk := c.delayRisk[0] | c.delayRisk[1]; risk != 0; risk &= risk - 1 {
			i := bits.TrailingZeros64(risk)
			v := &b.victims[i]
			v.delay.add(d, p.Cc[i])
			v.cg = append(v.cg, p.Cg[i])
			for dir, r := range p.RDrive {
				v.rdrive[dir] = append(v.rdrive[dir], r)
			}
		}
		for risk := c.glitchRisk; risk != 0; risk &= risk - 1 {
			i := bits.TrailingZeros64(risk)
			v := &b.victims[i]
			v.glitch.add(d, p.Cc[i])
			v.den = append(v.den, p.Cg[i]+c.ctot[i])
		}
	}
	b.scratch.New = func() any {
		acc := make([]float64, most)
		return &acc
	}
	return b, nil
}

// RunBlocks calls fn on consecutive blocks [lo, hi) of at most block indexes
// that together cover [0, n) once, from up to workers goroutines (at least
// one, at most one per block). When slots is non-nil, every block holds one
// slots token while it runs, taken in a select on ctx.Done() and returned
// after the block, so callers sharing one pool stay within its width and
// take turns on it block by block. No block starts once ctx is cancelled.
// RunBlocks returns once every goroutine has stopped: nil when every block
// ran, the context's error when ctx was cancelled, in which case some blocks
// may not have run.
func RunBlocks(ctx context.Context, n, block, workers int, slots chan struct{}, fn func(lo, hi int)) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(max(1, workers), (n+block-1)/block); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(block))) - block
				if lo >= n {
					return
				}
				if slots != nil {
					select {
					case slots <- struct{}{}:
					case <-ctx.Done():
						return
					}
				}
				// A select whose cases are both ready picks one at random,
				// so the context is checked again with the token in hand.
				live := ctx.Err() == nil
				if live {
					fn(lo, min(lo+block, n))
				}
				if slots != nil {
					<-slots
				}
				if !live {
					return
				}
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// Channel returns set d's channel: the Channel NewChannel builds over the
// batch's set d and thresholds, shared by every caller. It carries no
// transmit memo and must never be given one (EnableMemo), since a memo
// confines a channel to one goroutine.
func (b *Batch) Channel(d int) *Channel { return b.chans[d] }

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
	// Visit the wires some set is at risk on for this transition, the
	// union masks' form of Channel.transmit's filter, and walk a wire's
	// list only when its envelope row may cross the threshold.
	for risk := edges&b.env.delayRisk[dir] | ^edges&b.env.glitchRisk; risk != 0; risk &= risk - 1 {
		i := bits.TrailingZeros64(risk)
		if !b.env.mayErrOn(i, a, v2, dir) {
			continue
		}
		v := &b.victims[i]
		bitI := uint64(1) << uint(i)
		if edges&bitI != 0 {
			// Switching victim: Miller-weighted Elmore delay per set, visiting
			// aggressors in ascending order exactly as Channel.transmit does.
			l := &v.delay
			acc := (*scratch)[:len(l.sets)]
			copy(acc, v.cg)
			for j := 0; j < b.width; j++ {
				if j == i {
					continue
				}
				bitJ := uint64(1) << uint(j)
				row := l.column(j)[:len(acc)]
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
					d := l.sets[k]
					mask[d>>6] |= 1 << uint(d&63)
				}
			}
			continue
		}
		// Stable victim: net coupled charge from the switching aggressors,
		// walking the edge mask's set bits ascending as Channel.transmit does.
		l := &v.glitch
		acc := (*scratch)[:len(l.sets)]
		for k := range acc {
			acc[k] = 0
		}
		for e := edges; e != 0; e &= e - 1 {
			bitJ := e & -e
			row := l.column(bits.TrailingZeros64(e))[:len(acc)]
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
		den := v.den[:len(acc)]
		for k := range acc {
			push := acc[k]
			if neg {
				push = -push // a downward pull flips a high wire
			}
			if push/den[k] > b.th.GlitchFrac {
				d := l.sets[k]
				mask[d>>6] |= 1 << uint(d&63)
			}
		}
	}
}
