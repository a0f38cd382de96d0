package report

import (
	"encoding/json"
	"io"

	"repro/internal/defects"
	"repro/internal/diagnose"
	"repro/internal/sim"
)

// JSON rendering for the analysis jobs' three products: diagnosis,
// minimization and the per-line rank. Like CampaignJSON, every document is
// deterministic: slices arrive pre-sorted from internal/diagnose or in line
// order and are emitted in that order, so repeated runs of the same seeded
// campaign render byte-identical reports.

// DictStatsJSON is the detection-set dictionary summary.
type DictStatsJSON struct {
	Defects    int     `json:"defects"`
	Detected   int     `json:"detected"`
	Attributed int     `json:"attributed"`
	CrashOnly  int     `json:"crash_only"`
	Tests      int     `json:"tests"`
	Classes    int     `json:"classes"`
	Largest    int     `json:"largest_class"`
	Ambiguous  int     `json:"ambiguous"`
	MeanSet    float64 `json:"mean_set"`
}

// DetectionSetJSON is one defect's detection set.
type DetectionSetJSON struct {
	Defect int      `json:"defect"`
	Tests  []string `json:"tests"`
}

// CandidateJSON is one ranked localization hypothesis.
type CandidateJSON struct {
	Fault string  `json:"fault"` // e.g. "gp[4]"
	Wire  int     `json:"wire"`
	Kind  string  `json:"kind"`
	Score float64 `json:"score"`
	Exact int     `json:"exact"`
}

// AccuracyJSON is the dictionary self-diagnosis accuracy experiment.
type AccuracyJSON struct {
	Evaluated int `json:"evaluated"`
	TopHit    int `json:"top_hit"`
	Top3Hit   int `json:"top3_hit"`
}

// DiagnosisJSON is the wire form of a diagnose campaign: the dictionary
// summary, per-defect detection sets, the self-diagnosis accuracy, and — when
// a failure signature was supplied — the ranked candidates for it.
type DiagnosisJSON struct {
	Bus        string             `json:"bus"`
	Stats      DictStatsJSON      `json:"stats"`
	Accuracy   *AccuracyJSON      `json:"accuracy,omitempty"`
	Signature  []string           `json:"signature,omitempty"`
	Candidates []CandidateJSON    `json:"candidates,omitempty"`
	Sets       []DetectionSetJSON `json:"sets"`
}

// NewDiagnosisJSON renders the dictionary. acc may be nil; sigNames and cands
// are included only when a signature diagnosis was requested.
func NewDiagnosisJSON(bus string, s *diagnose.Sets, acc *diagnose.Accuracy, sigNames []string, cands []diagnose.Candidate) *DiagnosisJSON {
	st := s.ComputeStats()
	out := &DiagnosisJSON{
		Bus: bus,
		Stats: DictStatsJSON{
			Defects:    st.Defects,
			Detected:   st.Detected,
			Attributed: st.Attributed,
			CrashOnly:  st.CrashOnly,
			Tests:      st.Tests,
			Classes:    st.Classes,
			Largest:    st.Largest,
			Ambiguous:  st.Ambiguous,
			MeanSet:    st.MeanSet,
		},
		Signature: sigNames,
	}
	if acc != nil {
		out.Accuracy = &AccuracyJSON{Evaluated: acc.Evaluated, TopHit: acc.TopHit, Top3Hit: acc.Top3Hit}
	}
	for _, c := range cands {
		out.Candidates = append(out.Candidates, CandidateJSON{
			Fault: c.String(), Wire: c.Wire, Kind: c.Kind.String(), Score: c.Score, Exact: c.Exact,
		})
	}
	for _, o := range s.Outcomes {
		if names := o.DetectedBy.Names(); names != nil {
			out.Sets = append(out.Sets, DetectionSetJSON{Defect: o.DefectID, Tests: names})
		}
	}
	return out
}

// ChosenTestJSON is one selected test of the minimized program, with the
// number of defects it newly covered at selection time.
type ChosenTestJSON struct {
	Fault        string `json:"fault"`
	NewlyCovered int    `json:"newly_covered"`
}

// VerificationJSON is the re-simulation proof attached to a minimization.
type VerificationJSON struct {
	Total        int    `json:"total"`
	FullDetected int    `json:"full_detected"`
	MinDetected  int    `json:"min_detected"`
	Mismatches   []int  `json:"mismatches,omitempty"`
	FullHash     string `json:"full_hash"`
	MinHash      string `json:"min_hash"`
	Identical    bool   `json:"identical"`
}

// MinimizeJSON is the wire form of a minimize campaign: the greedy cover,
// the program-size comparison, and the verification verdict.
type MinimizeJSON struct {
	Bus       string           `json:"bus"`
	FullTests int              `json:"full_tests"`
	Chosen    []ChosenTestJSON `json:"chosen"`
	Reduction float64          `json:"reduction"`
	Coverable int              `json:"coverable"`
	Covered   int              `json:"covered"`
	CrashOnly []int            `json:"crash_only,omitempty"`
	// Augmented lists tests the verify-augment loop added beyond the greedy
	// cover (context-dependent detections the re-laid-out minimized program
	// did not reproduce); VerifyRounds is how many verification campaigns
	// ran before the detection vectors matched.
	Augmented    []string `json:"augmented,omitempty"`
	VerifyRounds int      `json:"verify_rounds,omitempty"`
	// Applied-test counts of the full and minimized self-test programs
	// (core.Plan.TotalApplied; zero when the caller did not regenerate the
	// programs).
	FullProgramTests int               `json:"full_program_tests,omitempty"`
	MinProgramTests  int               `json:"min_program_tests,omitempty"`
	Verification     *VerificationJSON `json:"verification,omitempty"`
}

// NewMinimizeJSON renders a greedy cover; v may be nil when verification was
// skipped.
func NewMinimizeJSON(bus string, c *diagnose.Cover, v *diagnose.Verification) *MinimizeJSON {
	out := &MinimizeJSON{
		Bus:       bus,
		FullTests: c.FullTests,
		Reduction: c.Reduction(),
		Coverable: c.Coverable,
		Covered:   c.Covered,
		CrashOnly: c.CrashOnly,
	}
	for i, f := range c.Chosen {
		out.Chosen = append(out.Chosen, ChosenTestJSON{Fault: f.String(), NewlyCovered: c.NewlyCovered[i]})
	}
	if v != nil {
		out.Verification = &VerificationJSON{
			Total:        v.Total,
			FullDetected: v.FullDetected,
			MinDetected:  v.MinDetected,
			Mismatches:   v.Mismatches,
			FullHash:     v.FullHash,
			MinHash:      v.MinHash,
			Identical:    v.Identical,
		}
	}
	return out
}

// RankWireJSON is one line of the paper's Fig. 11: the defects the
// program of that line's MA tests detects on its own, that count's share
// of the library, the share detected by the programs of lines 0..Wire
// together, and the library's defects over Cth on that line.
type RankWireJSON struct {
	Wire          int     `json:"wire"`
	Detected      int     `json:"detected"`
	Individual    float64 `json:"individual"`
	Cumulative    float64 `json:"cumulative"`
	OverThreshold int     `json:"over_threshold"`
}

// RankJSON is the wire form of a rank job: the paper's Fig. 11 for one
// bus, in line order, over a library of Defects defects.
type RankJSON struct {
	Bus     string         `json:"bus"`
	Width   int            `json:"width"`
	Defects int            `json:"defects"`
	Wires   []RankWireJSON `json:"wires"`
}

// NewRankJSON builds the Fig. 11 document from one campaign per line of
// lib's bus, lines[w] running line w's MA tests alone over lib (nil when
// line w has no applicable test).
func NewRankJSON(bus string, lib *defects.Library, lines []*sim.CampaignResult) *RankJSON {
	total := len(lib.Defects)
	over := lib.VictimHistogram()
	doc := &RankJSON{Bus: bus, Width: len(lines), Defects: total}
	cum := make([]bool, total)
	cumCount := 0
	for w, res := range lines {
		row := RankWireJSON{Wire: w, OverThreshold: over[w]}
		if res != nil {
			for i, out := range res.Outcomes {
				if out.Detected {
					row.Detected++
					if !cum[i] {
						cum[i] = true
						cumCount++
					}
				}
			}
		}
		row.Individual = float64(row.Detected) / float64(total)
		row.Cumulative = float64(cumCount) / float64(total)
		doc.Wires = append(doc.Wires, row)
	}
	return doc
}

func writeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteDiagnosisJSON, WriteMinimizeJSON and WriteRankJSON render the three
// documents as indented JSON, byte-stable for a given input.
func WriteDiagnosisJSON(w io.Writer, d *DiagnosisJSON) error { return writeIndented(w, d) }
func WriteMinimizeJSON(w io.Writer, m *MinimizeJSON) error   { return writeIndented(w, m) }
func WriteRankJSON(w io.Writer, r *RankJSON) error           { return writeIndented(w, r) }
