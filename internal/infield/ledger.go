package infield

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Ledger accumulates per-slice detection vectors into the cumulative
// library-wide coverage state. Merging is idempotent per slice and
// order-independent: every defect starts from its identity verdict and
// folds each slice's verdict in through sim.Outcome.Merge, whose
// composition (OR, sum, AND and set union) is the one a campaign
// applies across sessions, so any permutation of the manifest's slices —
// including slices computed on different fleet nodes — merges to the same
// outcomes, byte for byte, and the completed ledger equals the one-shot
// campaign over the full plan.
type Ledger struct {
	bus    core.BusID
	merged []bool // per slice index
	outs   []sim.Outcome
	points []CoveragePoint

	mergedCount int
	detected    int
	activations int64
}

// CoveragePoint is one step of the coverage-over-time curve, recorded at
// each slice merge in merge order.
type CoveragePoint struct {
	// Slice is the manifest slice index merged at this point; Merged counts
	// slices merged so far (including this one).
	Slice  int `json:"slice"`
	Merged int `json:"merged"`
	// SliceCycles is this slice's own golden test cost.
	SliceCycles uint64 `json:"slice_cycles"`
	// NewDetections counts defects first detected at this merge; Detected is
	// the cumulative count, Coverage its fraction of the library, and
	// ConvergenceGap the defects not yet detected (monotone non-increasing;
	// at convergence it equals the one-shot campaign's undetected count).
	NewDetections  int     `json:"new_detections"`
	Detected       int     `json:"detected"`
	Coverage       float64 `json:"coverage"`
	ConvergenceGap int     `json:"convergence_gap"`
	// Activations is the cumulative crosstalk activation count.
	Activations int64 `json:"activations"`
}

// PointMeta carries the scheduling context recorded with a merge.
type PointMeta struct {
	SliceCycles uint64
}

// NewLedger builds an empty ledger for a library of libSize defects under a
// manifest of slices slices, on the given bus.
func NewLedger(libSize, slices int, bus core.BusID) *Ledger {
	return &Ledger{
		bus:    bus,
		merged: make([]bool, slices),
		outs:   make([]sim.Outcome, libSize),
	}
}

// Size returns the defect-library size the ledger tracks.
func (l *Ledger) Size() int { return len(l.outs) }

// Slices returns the manifest slice count.
func (l *Ledger) Slices() int { return len(l.merged) }

// MergedCount returns how many slices have been merged.
func (l *Ledger) MergedCount() int { return l.mergedCount }

// Merged reports whether a slice's outcomes are already in the ledger.
func (l *Ledger) Merged(slice int) bool {
	return slice >= 0 && slice < len(l.merged) && l.merged[slice]
}

// Detected returns the cumulative detected-defect count.
func (l *Ledger) Detected() int { return l.detected }

// ConvergenceGap returns the defects not yet detected by any merged slice.
func (l *Ledger) ConvergenceGap() int { return len(l.outs) - l.detected }

// MergeSlice folds one slice's library-order outcomes into the ledger and
// records a coverage point. Re-merging an already-merged slice is a no-op
// (checkpoint replay); merging out-of-range or misshapen data is an error
// that leaves the ledger unchanged, so a retried merge counts nothing twice.
func (l *Ledger) MergeSlice(slice int, outs []sim.Outcome, meta PointMeta) error {
	if slice < 0 || slice >= len(l.merged) {
		return fmt.Errorf("infield: slice %d out of range for a %d-slice ledger", slice, len(l.merged))
	}
	if l.merged[slice] {
		return nil
	}
	if len(outs) != len(l.outs) {
		return fmt.Errorf("infield: slice %d carries %d outcomes, ledger tracks %d defects",
			slice, len(outs), len(l.outs))
	}
	// Every merge carries every defect, so the first one starts each defect
	// from its identity verdict and later ones must name the same defects.
	first := l.mergedCount == 0
	for i, src := range outs {
		if dst := &l.outs[i]; !first && (dst.DefectID != src.DefectID || dst.Bus != src.Bus) {
			return fmt.Errorf("infield: slice %d outcome %d is defect %d on bus %v, ledger holds defect %d on bus %v",
				slice, i, src.DefectID, src.Bus, dst.DefectID, dst.Bus)
		}
	}
	newDet := 0
	for i, src := range outs {
		dst := &l.outs[i]
		if first {
			*dst = sim.Outcome{DefectID: src.DefectID, Bus: src.Bus, Replayed: true}
		}
		if src.Detected && !dst.Detected {
			newDet++
		}
		dst.Merge(src)
		l.activations += int64(src.Activations)
	}
	l.merged[slice] = true
	l.mergedCount++
	l.detected += newDet
	l.points = append(l.points, CoveragePoint{
		Slice:          slice,
		Merged:         l.mergedCount,
		SliceCycles:    meta.SliceCycles,
		NewDetections:  newDet,
		Detected:       l.detected,
		Coverage:       float64(l.detected) / float64(len(l.outs)),
		ConvergenceGap: len(l.outs) - l.detected,
		Activations:    l.activations,
	})
	return nil
}

// Outcomes returns the merged per-defect outcomes in library order. The
// slice aliases ledger state; callers must not mutate it.
func (l *Ledger) Outcomes() []sim.Outcome { return l.outs }

// Points returns the coverage curve in merge order.
func (l *Ledger) Points() []CoveragePoint { return l.points }

// Result aggregates the merged outcomes into a campaign result. On a
// complete ledger this is byte-identical (through report.WriteCampaignJSON)
// to the one-shot campaign over the full plan.
func (l *Ledger) Result(busName string) *sim.CampaignResult {
	res := sim.Aggregate(l.bus, l.outs)
	res.BusName = busName
	return res
}
