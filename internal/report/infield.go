package report

import (
	"encoding/json"
	"io"

	"repro/internal/infield"
)

// In-field schedule reporting: a deterministic coverage-over-time document.
// The NDJSON form streams one line per coverage point between a header and a
// summary line, so a fleet-health dashboard can tail the convergence curve;
// all three line shapes are byte-stable for a given schedule.

// InfieldSliceJSON is one manifest slice.
type InfieldSliceJSON struct {
	Index    int    `json:"index"`
	Sessions []int  `json:"sessions"`
	Cycles   uint64 `json:"cycles"`
	Tests    int    `json:"tests"`
}

// InfieldHeaderJSON is the schedule identity: the manifest and library the
// curve was recorded under.
type InfieldHeaderJSON struct {
	Kind        string             `json:"kind"` // always "infield"
	Target      string             `json:"target"`
	Bus         string             `json:"bus"`
	ManifestKey string             `json:"manifest_key"`
	PlanHash    string             `json:"plan_hash"`
	Seed        int64              `json:"seed"`
	Sigma       float64            `json:"sigma"`
	CthFactor   float64            `json:"cth_factor"`
	SliceCycles uint64             `json:"slice_cycles"`
	TotalCycles uint64             `json:"total_cycles"`
	TotalTests  int                `json:"total_tests"`
	Defects     int                `json:"defects"`
	Slices      []InfieldSliceJSON `json:"slices"`
}

// InfieldSummaryJSON is the terminal line: the converged coverage state.
type InfieldSummaryJSON struct {
	Kind           string  `json:"kind"` // always "summary"
	SlicesMerged   int     `json:"slices_merged"`
	Detected       int     `json:"detected"`
	Coverage       float64 `json:"coverage"`
	ConvergenceGap int     `json:"convergence_gap"`
	Activations    int64   `json:"activations"`
}

// InfieldJSON is the complete in-field schedule report.
type InfieldJSON struct {
	Header  InfieldHeaderJSON       `json:"header"`
	Points  []infield.CoveragePoint `json:"points"`
	Summary InfieldSummaryJSON      `json:"summary"`
}

// NewInfieldJSON assembles the report from a manifest and its (typically
// complete) ledger.
func NewInfieldJSON(target, bus string, m *infield.Manifest, l *infield.Ledger) *InfieldJSON {
	doc := &InfieldJSON{
		Header: InfieldHeaderJSON{
			Kind:        "infield",
			Target:      target,
			Bus:         bus,
			ManifestKey: m.Key,
			PlanHash:    m.PlanHash,
			Seed:        m.Seed,
			Sigma:       m.Sigma,
			CthFactor:   m.CthFactor,
			SliceCycles: m.SliceCycles,
			TotalCycles: m.TotalCycles,
			TotalTests:  m.TotalTests,
			Defects:     l.Size(),
		},
		Points: l.Points(),
	}
	for _, sl := range m.Slices {
		doc.Header.Slices = append(doc.Header.Slices, InfieldSliceJSON{
			Index: sl.Index, Sessions: sl.Sessions, Cycles: sl.Cycles, Tests: sl.Tests,
		})
	}
	doc.Summary = InfieldSummaryJSON{
		Kind:           "summary",
		SlicesMerged:   l.MergedCount(),
		Detected:       l.Detected(),
		Coverage:       float64(l.Detected()) / float64(l.Size()),
		ConvergenceGap: l.ConvergenceGap(),
		Activations:    sumActivations(l),
	}
	return doc
}

func sumActivations(l *infield.Ledger) int64 {
	pts := l.Points()
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].Activations
}

// WriteInfieldNDJSON streams the report as NDJSON: the header line, one line
// per coverage point in merge order, and the summary line.
func WriteInfieldNDJSON(w io.Writer, doc *InfieldJSON) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc.Header); err != nil {
		return err
	}
	for _, p := range doc.Points {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	return enc.Encode(doc.Summary)
}
