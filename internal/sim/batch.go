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
// structure-of-arrays kernel, maintaining a bitset survivor mask: a defect's
// bit is cleared at its first diverging transition, and the transaction
// index is recorded so the execution tier can resume exactly there. Defects
// whose bit survives every session's sweep are proved undetected (see
// Engine) and their Outcome is emitted in O(1) without ever constructing a
// Channel. Only the divergent (defect, session) pairs reach core.Resume.

// batchPlan is the screening pass's verdict over one (bus, library) pair.
type batchPlan struct {
	// first[d] is nil when defect d replayed cleanly through every session
	// (the O(1) undetected verdict). Otherwise first[d][s] is the index of
	// session s's first diverging transaction, or -1 when session s's trace
	// replayed cleanly for this defect (divergence is per (defect, session)).
	first [][]int32
}

// transKey identifies one bus transition for the cross-session event-mask
// memo. Golden traffic revisits a small pool of (prev, next, dir) triples
// many times, so each distinct transition runs the batch kernel once per
// campaign.
type transKey struct {
	prev, next logic.Word
	dir        maf.Direction
}

// batchScreen sweeps every session's golden trace once, classifying each
// defect as clean (first[d] == nil) or divergent with per-session
// first-divergence indexes. One sweep per session is counted in BatchSweeps
// regardless of how many defects are screened — the point of inverting the
// loop.
func (r *Runner) batchScreen(ctx context.Context, bus core.BusID, params []*crosstalk.Params) (*batchPlan, error) {
	b, err := crosstalk.NewBatch(params, r.models[bus].Thresholds)
	if err != nil {
		return nil, err
	}
	n := b.Len()
	words := b.MaskWords()
	plan := &batchPlan{first: make([][]int32, n)}
	sessions := len(r.plan.Programs)

	// Event masks are memoized per distinct transition and shared across
	// sessions: a clean defect never leaves any survivor mask, so without
	// the memo its transitions would be re-evaluated session after session,
	// forfeiting the batching win to redundant kernel runs.
	memo := make(map[transKey][]uint64)
	live := make([]uint64, words)
	for s := 0; s < sessions; s++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Divergence is per (defect, session): every session's sweep starts
		// with the full library live again.
		for w := 0; w < words; w++ {
			live[w] = ^uint64(0)
		}
		if tail := n & 63; tail != 0 {
			live[words-1] = (1 << uint(tail)) - 1
		}
		for t, step := range r.traces[s][bus] {
			key := transKey{prev: step.Prev, next: step.Next, dir: step.Dir}
			mask, ok := memo[key]
			if !ok {
				mask = make([]uint64, words)
				b.EventMask(step.Prev, step.Next, step.Dir, mask)
				memo[key] = mask
			}
			empty := true
			for w := 0; w < words; w++ {
				diverged := live[w] & mask[w]
				if diverged != 0 {
					live[w] &^= diverged
					for diverged != 0 {
						d := w<<6 | bits.TrailingZeros64(diverged)
						if plan.first[d] == nil {
							f := make([]int32, sessions)
							for i := range f {
								f[i] = -1
							}
							plan.first[d] = f
						}
						plan.first[d][s] = int32(t)
						diverged &= diverged - 1
					}
				}
				if live[w] != 0 {
					empty = false
				}
			}
			if empty {
				// Every defect has already diverged in this session; the
				// rest of the trace cannot change any verdict.
				break
			}
		}
		r.batchSweeps.Add(1)
	}
	return plan, nil
}

// runDefectBatched resolves one defect from a batch screening plan. Clean
// defects (first == nil) are settled without building a channel: the sweep
// already proved every session's trace transfers unchanged, so the run is
// bit-identical to golden. Divergent defects resume execution from the
// recorded first-divergence transaction of each diverging session.
func (r *Runner) runDefectBatched(bus core.BusID, defective *crosstalk.Params, first []int32) (Outcome, error) {
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
	seen := make(map[maf.Fault]bool)
	for i, prog := range r.plan.Programs {
		k := first[i]
		if k < 0 {
			continue // this session's trace replayed cleanly for this defect
		}
		res, err := r.core.Resume(i, bus, defCh, int(k))
		if err != nil {
			return Outcome{}, err
		}
		r.judge(&out, i, prog, res, seen)
	}
	r.fallbacks.Add(1)
	out.normalize()
	return out, nil
}
