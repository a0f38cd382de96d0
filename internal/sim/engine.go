package sim

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/crosstalk"
)

// Engine selects a Runner's defect-simulation strategy: the exact production
// engine, the only one the service and the CLI run, or the Execute
// reference that tests and the benchmark compare it against.
//
// The production engine rests on a determinism argument: the bus traffic a
// program drives is a function of the values the initiator and responder
// have received so far, so as long as every transaction of a defective run
// latches exactly the golden values, the whole run is bit-identical to the
// golden run and the defect is provably undetected. A screening sweep
// therefore pushes each session's golden transaction trace through the
// defective channels as pure channel arithmetic — no CPU, no RAM — and only
// the sessions whose trace diverges are executed, resumed from the golden
// snapshot at the first diverging transaction, so fault masking, crashes and
// hangs are modelled exactly as the paper's Fig. 9 flow requires.
type Engine int

const (
	// Batch is the exact production engine: one batched sweep over each
	// session's golden trace evaluates every defect per transition
	// (structure-of-arrays over the perturbed coupling matrices, bitset
	// survivor mask), clearing the clean defects in a single pass and handing
	// only the divergent (defect, session) pairs — with the sweep's
	// per-transaction event masks — to the differential execution tier. A
	// single-defect run is a batch of one. Campaigns are byte-identical to
	// Execute.
	Batch Engine = iota
	// Execute performs the complete execution of every session program for
	// every defect — the paper's Fig. 9 flow verbatim, kept as the reference
	// the production engine is tested against.
	Execute
)

// EngineStats are a Runner's cumulative engine counters across all defect
// runs (atomic snapshot; the runner may be serving concurrent campaigns).
type EngineStats struct {
	// Fallbacks counts defect runs whose screening sweep diverged, so they
	// resumed execution from the first diverging transaction.
	Fallbacks int64 `json:"fallbacks"`
	// Executes counts defect runs performed entirely by the Execute tier
	// because the caller asked for it.
	Executes int64 `json:"executes"`
	// DegradedExecutes counts defect runs that requested the Batch engine but
	// ran as full Execute because the golden traffic itself suffered
	// crosstalk events (replayOK is false), voiding the screening
	// precondition. Kept distinct from Executes so stats consumers see the
	// degradation instead of a silent engine swap; omitted from JSON when
	// zero so existing report and metrics bytes are unchanged on healthy
	// runs.
	DegradedExecutes int64 `json:"degraded_executes,omitempty"`
	// BatchScreened counts defects the screening sweep cleared as undetected
	// in O(1) — no channel construction, no execution.
	BatchScreened int64 `json:"batch_screened,omitempty"`
	// BatchSweeps counts session-trace sweeps the screening pass performed
	// (one per (session, screened library) pair, regardless of library size —
	// the point of inverting the loop).
	BatchSweeps int64 `json:"batch_sweeps,omitempty"`
	// ExecutedSteps counts the instructions (script steps, on a scripted
	// target) that resumed execution actually executed: the work left after
	// starting at the first divergence, following the golden run between
	// fire points and skipping the periods of repeating hangs.
	ExecutedSteps int64 `json:"executed_steps,omitempty"`
	// MemoHits and MemoMisses count channel-transmit memo lookups
	// (crosstalk.Channel.EnableMemo). Production runs memoize no channel,
	// so a Runner leaves both zero.
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
}

// Stats snapshots the runner's engine counters.
func (r *Runner) Stats() EngineStats {
	return EngineStats{
		Fallbacks:        r.fallbacks.Load(),
		Executes:         r.executes.Load(),
		DegradedExecutes: r.degradedExecutes.Load(),
		BatchScreened:    r.batchScreened.Load(),
		BatchSweeps:      r.batchSweeps.Load(),
		ExecutedSteps:    r.executedSteps.Load(),
	}
}

// RunDefectEngine simulates one defective parameter set on the given channel
// (the other channels stay nominal) across every session program, using the
// selected engine; both produce identical Outcomes. Batch runs the defect as
// a batch of one through the same screen-then-resume path a campaign uses.
func (r *Runner) RunDefectEngine(bus core.BusID, defective *crosstalk.Params, eng Engine) (Outcome, error) {
	if err := r.checkBus(bus); err != nil {
		return Outcome{}, err
	}
	var bplan *batchPlan
	if r.screens(eng) {
		b, err := crosstalk.NewBatch([]*crosstalk.Params{defective}, r.models[bus].Thresholds)
		if err != nil {
			return Outcome{}, err
		}
		if bplan, err = r.batchScreen(context.Background(), bus, b, 1, nil); err != nil {
			return Outcome{}, err
		}
	}
	return r.runDefect(bus, defective, eng, bplan, 0)
}

// checkBus validates the channel before any engine work: every tier indexes
// r.models (and the transition tables and core state keyed alongside it), so
// an out-of-range bus must fail identically whether the run screens,
// executes, or degrades.
func (r *Runner) checkBus(bus core.BusID) error {
	if int(bus) < 0 || int(bus) >= len(r.models) {
		return fmt.Errorf("sim: %s has no channel %d", r.tgt.Name(), bus)
	}
	return nil
}

// screens reports whether a run under eng screens its defects before
// executing any: not when the caller asked for Execute, nor when the golden
// traffic itself errs (replayOK is false), which voids the precondition the
// sweep's clean verdicts rest on. Without a screen every defect runs as a
// full execution.
func (r *Runner) screens(eng Engine) bool { return eng != Execute && r.replayOK }

// runDefect resolves defect i of a screened set: a full execution for the
// Execute engine or a degraded runner (bplan nil), otherwise the batched
// verdict with resumed execution of the divergent sessions.
func (r *Runner) runDefect(bus core.BusID, defective *crosstalk.Params, eng Engine, bplan *batchPlan, i int) (Outcome, error) {
	switch {
	case eng == Execute:
		r.executes.Add(1)
		return r.runDefectExecute(bus, defective)
	case bplan == nil:
		// The screening precondition does not hold; the run is exact but its
		// engine request was not honoured, so it is accounted separately
		// from deliberate Execute runs.
		r.degradedExecutes.Add(1)
		return r.runDefectExecute(bus, defective)
	}
	return r.runDefectBatched(bus, bplan, i)
}
