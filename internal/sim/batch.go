package sim

import (
	"context"
	"math/bits"
	"sort"
	"sync/atomic"
	"time"

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
// pairs reach the core, on the channels the batch built for the defects.
// Pairs that share their session and first diverging transaction run as one
// group, which executes around the members' fire points, follows the golden
// run in between, and splits only where the members' verdicts differ
// (target.Core.ResumeGroup).

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

// firing returns the fire-point lookup of defects defs (library indexes,
// ascending) in session s, as target.Core.ResumeGroup's lookup returns it:
// the first transaction at or after t on which any of them fires, or the
// trace length. It tests only the mask words that hold one of defs. The
// defects share their first divergence, and nothing fires before it.
func (p *batchPlan) firing(s int, defs []int) func(t int) int {
	masks, first := p.masks[s], int(p.first[defs[0]][s])
	var words []int
	var bits []uint64
	for _, d := range defs {
		if w := d >> 6; len(words) == 0 || words[len(words)-1] != w {
			words, bits = append(words, w), append(bits, 0)
		}
		bits[len(bits)-1] |= uint64(1) << uint(d&63)
	}
	return func(t int) int {
		if t <= first {
			return first
		}
		for ; t < len(masks); t++ {
			for j, w := range words {
				if masks[t][w]&bits[j] != 0 {
					return t
				}
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

// resumeGroup is one unit of resumed execution: the divergent defects
// (library indexes, ascending) whose session first diverges on the same
// golden transaction.
type resumeGroup struct {
	session int
	members []int
}

// runBatched is the Batch engine's dispatch over the todo defects (library
// indexes, ascending). It screens the library with the batch the library
// keeps (see defects.Library.Batch, built on the pool on first use), its
// kernel on the pool too (see batchScreen), and settles every clean defect
// at once: the sweep proved each session's trace transfers unchanged, so its
// run is bit-identical to golden, and it is observed with zero duration.
// The divergent (defect, session) pairs are grouped by (session, first
// diverging transaction), and each group is one target.Core.ResumeGroup
// call on the batch's channels, one group per crosstalk.RunBlocks block,
// largest first. A defect is judged, its sessions in ascending order, when
// the last group that holds one of its sessions ends, and Observe receives
// its share of its groups' time: each group's wall time split evenly among
// its members. A failed group fails its lowest library index.
func (r *Runner) runBatched(ctx context.Context, c *campaignRun, todo []int) error {
	b, err := c.lib.Batch(ctx, r.models[c.bus].Thresholds, c.workers, c.opts.Slots)
	if err != nil {
		return err
	}
	bplan, err := r.batchScreen(ctx, c.bus, b, c.workers, c.opts.Slots)
	if err != nil {
		return err
	}
	n := len(c.lib.Defects)
	runs := make([][]RunResult, n)   // runs[i][s]: defect i's run of session s
	left := make([]atomic.Int32, n)  // groups yet to end that hold defect i
	share := make([]atomic.Int64, n) // defect i's share of its groups' time, ns
	for _, i := range todo {
		first := bplan.first[i]
		if first == nil {
			r.batchScreened.Add(1)
			c.done(i, Outcome{Bus: c.bus, Replayed: true}, 0)
			continue
		}
		runs[i] = make([]RunResult, len(first))
		for _, tx := range first {
			if tx >= 0 {
				left[i].Add(1)
			}
		}
	}
	groups := bplan.groups(todo)
	_ = crosstalk.RunBlocks(ctx, len(groups), 1, c.workers, c.opts.Slots, func(k, _ int) {
		g := groups[k]
		t0 := time.Now()
		res, executed, err := r.resumeGroup(c.bus, bplan, g)
		if err != nil {
			c.fail(g.members[0], err)
			return
		}
		r.executedSteps.Add(int64(executed))
		each := int64(time.Since(t0)) / int64(len(g.members))
		for j, i := range g.members {
			runs[i][g.session] = res[j]
			share[i].Add(each)
			if left[i].Add(-1) == 0 {
				c.done(i, r.judgeResumed(c.bus, bplan.first[i], runs[i]), time.Duration(share[i].Load()))
				runs[i] = nil
			}
		}
	})
	return nil
}

// groups groups the divergent (defect, session) pairs of the defects todo
// (library indexes, ascending) by (session, first diverging transaction),
// largest group first.
func (p *batchPlan) groups(todo []int) []resumeGroup {
	var groups []resumeGroup
	at := make(map[[2]int32]int) // (session, first divergence) -> group
	for _, i := range todo {
		for s, tx := range p.first[i] {
			if tx < 0 {
				continue // this session's trace replayed cleanly for this defect
			}
			key := [2]int32{int32(s), tx}
			g, ok := at[key]
			if !ok {
				g = len(groups)
				at[key] = g
				groups = append(groups, resumeGroup{session: s})
			}
			groups[g].members = append(groups[g].members, i)
		}
	}
	sort.SliceStable(groups, func(a, b int) bool { return len(groups[a].members) > len(groups[b].members) })
	return groups
}

// resumeGroup runs group g on the core, on the batch's channels of its
// members, with lookups from the screen's masks. It returns the members'
// results in g.members order and the instructions executed.
func (r *Runner) resumeGroup(bus core.BusID, bplan *batchPlan, g resumeGroup) ([]RunResult, int, error) {
	chs := make([]*crosstalk.Channel, len(g.members))
	for j, i := range g.members {
		chs[j] = bplan.batch.Channel(i)
	}
	return r.core.ResumeGroup(g.session, bus, chs, func(members []int) func(int) int {
		defs := make([]int, len(members))
		for j, m := range members {
			defs[j] = g.members[m]
		}
		return bplan.firing(g.session, defs)
	})
}

// judgeResumed composes a divergent defect's outcome from its runs of the
// sessions that diverge (first[s] >= 0), in ascending session order.
func (r *Runner) judgeResumed(bus core.BusID, first []int32, runs []RunResult) Outcome {
	out := Outcome{Bus: bus}
	for s, res := range runs {
		if first[s] >= 0 {
			r.judge(&out, s, res)
		}
	}
	r.fallbacks.Add(1)
	return out
}
