package sim

import (
	"context"
	"math/bits"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/logic"
	"repro/internal/maf"
)

// The batched screening pass is the production engine's first tier. Walking
// each session's golden trace once per defect would replay every trace once
// per library defect — wasteful for a thousand, because the walk itself
// (step decoding, map lookups, channel dispatch) dominates over the verdict
// arithmetic.
//
// batchScreen instead makes ONE walk over each session's golden trace and
// evaluates ALL defects per transition through crosstalk.Batch's
// structure-of-arrays kernel. It keeps every transaction's event mask, so
// for any (defect, session) the transactions on which the defect fires are
// one bit test each, and records each defect's first diverging transaction
// per session. Defects that fire on no transaction of any session are
// proved undetected (see Engine) and their Outcome is emitted in O(1)
// without ever constructing a Channel. Only the divergent (defect, session)
// pairs reach the core, which executes around the fire points and follows
// the golden run in between (target.Core.ResumeFiring).

// batchPlan is the screening pass's verdict over one (bus, library) pair.
type batchPlan struct {
	// first[d] is nil when defect d replayed cleanly through every session
	// (the O(1) undetected verdict). Otherwise first[d][s] is the index of
	// session s's first diverging transaction, or -1 when session s's trace
	// replayed cleanly for this defect (divergence is per (defect, session)).
	first [][]int32
	// masks[s][t] is the event mask of session s's golden transaction t:
	// bit d is set iff defect d fires there. The entries share the
	// per-transition memo's slices.
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

// transKey identifies one bus transition for the cross-session event-mask
// memo. Golden traffic revisits a small pool of (prev, next, dir) triples
// many times, so each distinct transition runs the batch kernel once per
// campaign.
type transKey struct {
	prev, next logic.Word
	dir        maf.Direction
}

// batchScreen sweeps every session's golden trace once, keeping each
// transaction's event mask and classifying each defect as clean (first[d]
// == nil) or divergent with per-session first-divergence indexes. One sweep
// per session is counted in BatchSweeps regardless of how many defects are
// screened — the point of inverting the loop.
func (r *Runner) batchScreen(ctx context.Context, bus core.BusID, params []*crosstalk.Params) (*batchPlan, error) {
	b, err := crosstalk.NewBatch(params, r.models[bus].Thresholds)
	if err != nil {
		return nil, err
	}
	words := b.MaskWords()
	sessions := len(r.plan.Programs)
	plan := &batchPlan{first: make([][]int32, b.Len()), masks: make([][][]uint64, sessions)}

	// Event masks are memoized per distinct transition and shared across
	// sessions, so the kernel runs once per distinct transition however
	// often the traces revisit it.
	memo := make(map[transKey][]uint64)
	live := make([]uint64, words)
	for s := 0; s < sessions; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Divergence is per (defect, session): every session's sweep starts
		// with the full library live again. (Masks have no bit past n.)
		for w := range live {
			live[w] = ^uint64(0)
		}
		trace := r.traces[s][bus]
		plan.masks[s] = make([][]uint64, len(trace))
		for t, step := range trace {
			key := transKey{prev: step.Prev, next: step.Next, dir: step.Dir}
			mask, ok := memo[key]
			if !ok {
				mask = make([]uint64, words)
				b.EventMask(step.Prev, step.Next, step.Dir, mask)
				memo[key] = mask
			}
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
// defects (first == nil) are settled without building a channel: the sweep
// already proved every session's trace transfers unchanged, so the run is
// bit-identical to golden. Divergent defects run each diverging session
// differentially, with the sweep's masks as the fire-point lookup.
func (r *Runner) runDefectBatched(bus core.BusID, defective *crosstalk.Params, bplan *batchPlan, i int) (Outcome, error) {
	first := bplan.first[i]
	if first == nil {
		r.batchScreened.Add(1)
		out := Outcome{Bus: bus, Replayed: true}
		out.normalize()
		return out, nil
	}
	// The defective channel is not memoized: its risk masks make a clean
	// transmit cheaper than a memo lookup.
	defCh, err := crosstalk.NewChannel(defective, r.models[bus].Thresholds)
	if err != nil {
		return Outcome{}, err
	}
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
