package sim

import (
	"context"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
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
	// per-transaction event masks — to the differential execution tier,
	// which runs the pairs that share a first divergence as one group. A
	// single-defect run is a campaign over a one-defect library. Campaigns
	// are byte-identical to Execute.
	Batch Engine = iota
	// Execute performs the complete execution of every session program for
	// every defect — the paper's Fig. 9 flow verbatim, kept as the reference
	// the production engine is tested against.
	Execute
)

// EngineStats are a Runner's cumulative engine counters across all defect
// runs (atomic snapshot; the runner may be serving concurrent campaigns).
type EngineStats struct {
	// Fallbacks counts defects whose screening sweep diverged, so they
	// resumed execution from the first diverging transaction (one per
	// defect, however many groups its sessions ran in).
	Fallbacks int64 `json:"fallbacks"`
	// Executes counts defect runs performed entirely by the Execute tier
	// because the caller asked for it.
	Executes int64 `json:"executes"`
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
	// fire points and skipping the periods of repeating hangs. A group of
	// defects that share a first divergence counts its instructions once;
	// a member that leaves the group executes the instruction it left on
	// again, and that counts too.
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
		Fallbacks:     r.fallbacks.Load(),
		Executes:      r.executes.Load(),
		BatchScreened: r.batchScreened.Load(),
		BatchSweeps:   r.batchSweeps.Load(),
		ExecutedSteps: r.executedSteps.Load(),
	}
}

// RunDefectEngine simulates one defective parameter set on the given channel
// (the other channels stay nominal) across every session program, using the
// selected engine; both produce identical Outcomes. The run is a campaign
// over a one-defect library on one worker, so Batch screens and resumes the
// defect exactly as a library campaign does.
func (r *Runner) RunDefectEngine(bus core.BusID, defective *crosstalk.Params, eng Engine) (Outcome, error) {
	lib := &defects.Library{Defects: []defects.Defect{{Params: defective}}}
	res, err := r.CampaignCtx(context.Background(), bus, lib, CampaignOpts{Workers: 1, Engine: eng})
	if err != nil {
		return Outcome{}, err
	}
	return res.Outcomes[0], nil
}
