package sim

import (
	"context"
	"math/bits"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/target"
)

// The batched screening pass is the production engine's first tier. Walking
// each session's golden trace once per defect would replay every trace once
// per library defect — wasteful for a thousand, because the walk itself
// (step decoding, map lookups, channel dispatch) dominates over the verdict
// arithmetic.
//
// batchScreen instead evaluates ALL defects per distinct golden transition
// through crosstalk.Batch's structure-of-arrays kernel, on the campaign's
// worker pool, and then makes ONE walk over each session's golden trace. It
// keeps every transaction's event mask, so for any (defect, session) the
// transactions on which the defect fires are one bit test each, and records
// each defect's first diverging transaction per session. Defects that fire
// on no transaction of any session are proved undetected (see Engine) and
// their Outcome is emitted in O(1). Only the divergent (defect, session)
// pairs reach the core, on the channel the batch built for the defect, which
// executes around the fire points and follows the golden run in between
// (target.Core.ResumeFiring).

// batchPlan is the screening pass's verdict over one (bus, library) pair.
type batchPlan struct {
	// batch is the screened batch; its channels run the divergent defects.
	batch *crosstalk.Batch
	// first[d] is nil when defect d replayed cleanly through every session
	// (the O(1) undetected verdict). Otherwise first[d][s] is the index of
	// session s's first diverging transaction, or -1 when session s's trace
	// replayed cleanly for this defect (divergence is per (defect, session)).
	first [][]int32
	// masks[s][t] is the event mask of session s's golden transaction t:
	// bit d is set iff defect d fires there. The entries are slices of the
	// kernel's table, one mask per distinct transition.
	masks [][][]uint64
}

// firing returns defect d's fire-point lookup in session s, as
// ResumeFiring takes it: the first transaction at or after t on which d
// fires, or the trace length. Nothing fires before the first divergence.
func (p *batchPlan) firing(d, s int) func(t int) int {
	masks, first := p.masks[s], int(p.first[d][s])
	w, bit := d>>6, uint64(1)<<uint(d&63)
	return func(t int) int {
		if t <= first {
			return first
		}
		for ; t < len(masks); t++ {
			if masks[t][w]&bit != 0 {
				return t
			}
		}
		return len(masks)
	}
}

// transTable is one channel's golden traffic over every session, reduced to
// its distinct transitions. Golden traffic revisits a small pool of (prev,
// next, dir) triples many times, so the screen runs the batch kernel once
// per distinct transition and the sweep finds each step's mask by index.
// The table depends only on the golden traces, so the runner builds it once.
type transTable struct {
	distinct []target.BusStep // in order of first occurrence
	steps    [][]int32        // steps[s][t] indexes session s's step t in distinct
}

// add appends one session's steps; seen maps every distinct transition
// added so far to its index.
func (tab *transTable) add(steps []target.BusStep, seen map[target.BusStep]int32) {
	idx := make([]int32, len(steps))
	for t, step := range steps {
		k, ok := seen[step]
		if !ok {
			k = int32(len(tab.distinct))
			seen[step] = k
			tab.distinct = append(tab.distinct, step)
		}
		idx[t] = k
	}
	tab.steps = append(tab.steps, idx)
}

// screenBlock is how many distinct transitions a kernel block covers; each
// block holds one pool slot while it runs.
const screenBlock = 16

// eventMasks runs the batch kernel on every transition of trans and returns
// the masks in one flat table: transition k's mask is words k*w to
// (k+1)*w, w being b.MaskWords(). Up to workers goroutines take blocks of
// transitions in turn, each block holding one slots token (when slots is
// non-nil) while it runs, so concurrent campaigns stay within the pool's
// width (see crosstalk.RunBlocks). A cancelled context returns its error.
func eventMasks(ctx context.Context, b *crosstalk.Batch, trans []target.BusStep, workers int, slots chan struct{}) ([]uint64, error) {
	words := b.MaskWords()
	table := make([]uint64, len(trans)*words)
	err := crosstalk.RunBlocks(ctx, len(trans), screenBlock, workers, slots, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			st := trans[k]
			b.EventMask(st.Prev, st.Next, st.Dir, table[k*words:(k+1)*words])
		}
	})
	if err != nil {
		return nil, err
	}
	return table, nil
}

// batchScreen screens the batch's parameter sets on bus. The kernel computes
// the event mask of every distinct golden transition, spread over up to
// workers goroutines (see eventMasks); then one serial sweep per session
// keeps each transaction's mask and classifies each defect as clean
// (first[d] == nil) or divergent with per-session first-divergence indexes.
// One sweep per session is counted in BatchSweeps regardless of how many
// defects are screened — the point of inverting the loop.
func (r *Runner) batchScreen(ctx context.Context, bus core.BusID, b *crosstalk.Batch, workers int, slots chan struct{}) (*batchPlan, error) {
	tab := &r.trans[bus]
	table, err := eventMasks(ctx, b, tab.distinct, workers, slots)
	if err != nil {
		return nil, err
	}
	words := b.MaskWords()
	sessions := len(tab.steps)
	plan := &batchPlan{batch: b, first: make([][]int32, b.Len()), masks: make([][][]uint64, sessions)}
	live := make([]uint64, words)
	for s, steps := range tab.steps {
		// Divergence is per (defect, session): every session's sweep starts
		// with the full library live again. (Masks have no bit past n.)
		for w := range live {
			live[w] = ^uint64(0)
		}
		plan.masks[s] = make([][]uint64, len(steps))
		for t, k := range steps {
			mask := table[int(k)*words : int(k+1)*words : int(k+1)*words]
			plan.masks[s][t] = mask
			for w := 0; w < words; w++ {
				diverged := live[w] & mask[w]
				live[w] &^= diverged
				for ; diverged != 0; diverged &= diverged - 1 {
					d := w<<6 | bits.TrailingZeros64(diverged)
					if plan.first[d] == nil {
						f := make([]int32, sessions)
						for i := range f {
							f[i] = -1
						}
						plan.first[d] = f
					}
					plan.first[d][s] = int32(t)
				}
			}
		}
		r.batchSweeps.Add(1)
	}
	return plan, nil
}

// runDefectBatched resolves defect i of a batch screening plan. Clean
// defects (first == nil) are settled without execution: the sweep already
// proved every session's trace transfers unchanged, so the run is
// bit-identical to golden. Divergent defects run each diverging session
// differentially on the batch's channel for the defect, with the sweep's
// masks as the fire-point lookup.
func (r *Runner) runDefectBatched(bus core.BusID, bplan *batchPlan, i int) (Outcome, error) {
	first := bplan.first[i]
	if first == nil {
		r.batchScreened.Add(1)
		out := Outcome{Bus: bus, Replayed: true}
		out.normalize()
		return out, nil
	}
	defCh := bplan.batch.Channel(i)
	out := Outcome{Bus: bus}
	for s, prog := range r.plan.Programs {
		if first[s] < 0 {
			continue // this session's trace replayed cleanly for this defect
		}
		res, err := r.core.ResumeFiring(s, bus, defCh, bplan.firing(i, s))
		if err != nil {
			return Outcome{}, err
		}
		r.executedSteps.Add(int64(res.Executed))
		r.judge(&out, s, prog, res)
	}
	r.fallbacks.Add(1)
	out.normalize()
	return out, nil
}
