package infield

import (
	"context"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Scheduler drives one in-field test schedule: for each manifest slice not
// yet in the ledger it issues the interleaved functional phase, executes the
// slice, and merges the outcomes. Slice i always interleaves with phase
// sequence index i — the phase iterator is realigned on resume — so an
// interrupted schedule continues exactly where the uninterrupted one would
// be.
type Scheduler struct {
	Manifest *Manifest
	Ledger   *Ledger
	// Phases supplies the functional phase interleaved before each slice.
	Phases *workload.PhaseIterator
	// Interval paces recurring slices: the wait between one slice's merge
	// and the next slice's phase. Zero runs the schedule without pacing.
	Interval time.Duration
	// RunPhase, when non-nil, executes the functional phase (e.g. a random
	// Parwan workload program); errors abort the schedule.
	RunPhase func(ctx context.Context, ph workload.Phase) error
	// RunSlice executes one slice's campaign over the full defect library
	// and returns the outcomes in library order.
	RunSlice func(ctx context.Context, sl Slice) ([]sim.Outcome, error)
	// OnMerge, when non-nil, observes each completed merge (progress
	// publication, metrics).
	OnMerge func(sl Slice, pt CoveragePoint)
}

// Run executes every pending slice of the manifest in order. It returns
// early on context cancellation with the ledger holding every slice merged
// so far — the checkpoint a resume continues from.
func (s *Scheduler) Run(ctx context.Context) error {
	if s.Manifest == nil || s.Ledger == nil || s.Phases == nil || s.RunSlice == nil {
		return fmt.Errorf("infield: scheduler needs a manifest, a ledger, functional phases and a slice runner")
	}
	if s.Ledger.Slices() != len(s.Manifest.Slices) {
		return fmt.Errorf("infield: ledger tracks %d slices, manifest has %d",
			s.Ledger.Slices(), len(s.Manifest.Slices))
	}
	started := false
	for _, sl := range s.Manifest.Slices {
		if s.Ledger.Merged(sl.Index) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if started && s.Interval > 0 {
			t := time.NewTimer(s.Interval)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		started = true
		// Realign after a resume: phase sequence index == slice index.
		if d := sl.Index - s.Phases.Seq(); d > 0 {
			s.Phases.Skip(d)
		}
		ph := s.Phases.Next()
		if s.RunPhase != nil {
			if err := s.RunPhase(ctx, ph); err != nil {
				return fmt.Errorf("infield: functional phase %q before slice %d: %w", ph.Name, sl.Index, err)
			}
		}
		meta := PointMeta{SliceCycles: sl.Cycles, Phase: ph.Name, WorkloadCycles: s.Phases.CyclesIssued()}
		outs, err := s.RunSlice(ctx, sl)
		if err != nil {
			return err
		}
		if err := s.Ledger.MergeSlice(sl.Index, outs, meta); err != nil {
			return err
		}
		if s.OnMerge != nil {
			pts := s.Ledger.Points()
			s.OnMerge(sl, pts[len(pts)-1])
		}
	}
	return nil
}
