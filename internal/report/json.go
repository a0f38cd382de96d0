package report

import (
	"io"

	"repro/internal/maf"
	"repro/internal/sim"
)

// JSON rendering of campaign results for the service API. The encoding is
// deterministic — map-shaped data is flattened into slices with a fixed sort
// order — so that two runs of the same seeded campaign produce byte-identical
// documents, which is how the service's correctness is verified against a
// direct Runner.Campaign call.

// FaultCountJSON is one (fault, defect count) pair.
type FaultCountJSON struct {
	Fault string `json:"fault"`
	Count int    `json:"count"`
}

// OutcomeJSON is one defect's verdict.
type OutcomeJSON struct {
	Defect      int      `json:"defect"`
	Detected    bool     `json:"detected"`
	Crashed     bool     `json:"crashed,omitempty"`
	DetectedBy  []string `json:"detected_by,omitempty"`
	Activations int      `json:"activations"`
}

// CampaignJSON is the wire form of a sim.CampaignResult.
type CampaignJSON struct {
	Bus           string           `json:"bus"`
	Total         int              `json:"total"`
	Detected      int              `json:"detected"`
	Crashed       int              `json:"crashed"`
	Coverage      float64          `json:"coverage"`
	PerFault      []FaultCountJSON `json:"per_fault,omitempty"`
	UniqueByFault []FaultCountJSON `json:"unique_by_fault,omitempty"`
	Outcomes      []OutcomeJSON    `json:"outcomes"`
}

// faultCounts lists the faults of u with a non-zero count, in universe
// order, which is the canonical maf.Compare order.
func faultCounts(u *maf.FaultUniverse, counts []int) []FaultCountJSON {
	var out []FaultCountJSON
	for i, n := range counts {
		if n > 0 {
			out = append(out, FaultCountJSON{Fault: u.Name(i), Count: n})
		}
	}
	return out
}

// NewCampaignJSON converts a campaign result.
func NewCampaignJSON(res *sim.CampaignResult) *CampaignJSON {
	bus := res.BusName
	if bus == "" {
		bus = res.Bus.String()
	}
	out := &CampaignJSON{
		Bus:           bus,
		Total:         res.Total,
		Detected:      res.Detected,
		Crashed:       res.Crashed,
		Coverage:      res.Coverage(),
		PerFault:      faultCounts(res.Universe, res.PerFault),
		UniqueByFault: faultCounts(res.Universe, res.UniqueByFault),
	}
	for _, o := range res.Outcomes {
		out.Outcomes = append(out.Outcomes, OutcomeJSON{
			Defect:      o.DefectID,
			Detected:    o.Detected,
			Crashed:     o.Crashed,
			DetectedBy:  o.DetectedBy.Names(),
			Activations: o.Activations,
		})
	}
	return out
}

// WriteCampaignJSON renders res as indented JSON. The output is byte-stable
// for a given result. width is ignored; it is kept for the callers that
// still pass one.
func WriteCampaignJSON(w io.Writer, res *sim.CampaignResult, width int) error {
	return writeIndented(w, NewCampaignJSON(res))
}
