// Package diagnose is the detection-set analytics layer above the defect
// simulator: it turns a campaign's per-defect outcomes into the three
// artifacts a test-program owner actually wants beyond a coverage number.
//
//   - Detection sets (Sets): for every library defect, exactly which MA
//     tests detect it, and for every MA test, exactly which defects it
//     catches — the fault dictionary of classic diagnosis literature,
//     recorded deterministically from sim.Outcome.DetectedBy (a set that
//     walks its faults in canonical order).
//
//   - Fault localization (Localize): map an observed failure signature —
//     the set of MA tests that failed on a part — back to ranked
//     (wire, error-effect) candidates, generalizing the one-compaction-group
//     diagnosis of core.DiagnoseOneHotSignature (§4.3, Fig. 8) to full
//     campaign signatures via similarity-weighted voting over the
//     dictionary.
//
//   - Test-set minimization (GreedyCover): the paper's R4 result shows
//     heavy detection-set overlap between MA tests, so a greedy set cover
//     over the dictionary yields a much smaller test program with the same
//     library coverage; Verify then proves, from a re-simulation of the
//     minimized program, that its per-defect detection vector is
//     byte-identical to the full program's.
//
// Everything in this package is deterministic: detection sets are collected
// by library index, faults are kept in maf.Compare order, greedy ties break
// canonically, and floating-point scores are accumulated in a fixed order —
// so reports rendered from these results are byte-stable across engines,
// worker counts, and fleet shard merges.
package diagnose

import (
	"fmt"

	"repro/internal/maf"
	"repro/internal/sim"
)

// Sets is the detection-set dictionary of one campaign: the bipartite
// defect↔test detection relation in both orientations, with faults held in
// canonical maf.Compare order and defects by library index.
type Sets struct {
	// Total is the library size (number of outcomes collected).
	Total int
	// DefectIDs maps position → library defect ID (normally the identity).
	DefectIDs []int
	// Faults lists every fault that detects at least one defect, in
	// maf.Compare order. Positions in this slice are the fault indices used
	// by ByDefect.
	Faults []maf.Fault
	// ByFault is parallel to Faults: the ascending library positions of the
	// defects each fault's test detects — the fault's detection set.
	ByFault [][]int
	// ByDefect holds, per library position, the ascending fault indices of
	// the tests detecting that defect.
	ByDefect [][]int
	// Detected and Crashed mirror the per-defect outcome flags.
	Detected []bool
	Crashed  []bool
	// CrashOnly lists the library positions of defects that were detected
	// (crash or hang) but attributed to no individual test; set cover cannot
	// target them, so minimization reports them explicitly and verification
	// re-checks them empirically.
	CrashOnly []int
}

// Collect builds the detection-set dictionary from a campaign's outcomes in
// library index order (sim.CampaignResult.Outcomes). Detection sets walk
// their faults in canonical order, so collection is a linear pass.
func Collect(outcomes []sim.Outcome) *Sets {
	s := &Sets{
		Total:     len(outcomes),
		DefectIDs: make([]int, len(outcomes)),
		ByDefect:  make([][]int, len(outcomes)),
		Detected:  make([]bool, len(outcomes)),
		Crashed:   make([]bool, len(outcomes)),
	}
	// First pass: the faults actually observed, the union of the sets, and
	// each one's position in Faults by universe index.
	var seen maf.Set
	for _, out := range outcomes {
		seen = seen.Union(out.DetectedBy)
	}
	s.Faults = make([]maf.Fault, 0, seen.Len())
	var index [maf.SetBits]int
	for i := seen.Next(0); i >= 0; i = seen.Next(i + 1) {
		index[i] = len(s.Faults)
		s.Faults = append(s.Faults, seen.Universe().Fault(i))
	}
	s.ByFault = make([][]int, len(s.Faults))
	// Second pass: both orientations, defects in index order so ByFault rows
	// come out ascending without a sort.
	for d, out := range outcomes {
		s.DefectIDs[d] = out.DefectID
		s.Detected[d] = out.Detected
		s.Crashed[d] = out.Crashed
		if set := out.DetectedBy; set.Len() > 0 {
			row := make([]int, 0, set.Len())
			for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
				fi := index[i]
				row = append(row, fi)
				s.ByFault[fi] = append(s.ByFault[fi], d)
			}
			s.ByDefect[d] = row
		} else if out.Detected {
			s.CrashOnly = append(s.CrashOnly, d)
		}
	}
	return s
}

// DetectedCount returns the number of detected defects.
func (s *Sets) DetectedCount() int {
	n := 0
	for _, d := range s.Detected {
		if d {
			n++
		}
	}
	return n
}

// AttributedCount returns the number of defects with a non-empty detection
// set (detected and attributed to at least one test).
func (s *Sets) AttributedCount() int {
	n := 0
	for _, row := range s.ByDefect {
		if len(row) > 0 {
			n++
		}
	}
	return n
}

// Stats summarizes the dictionary's resolution: how many distinct detection
// sets ("signature classes") exist, how defects distribute over them, and
// the mean detection-set size (the paper's R4 overlap, quantified).
type Stats struct {
	Defects    int     // library size
	Detected   int     // defects detected at all
	Attributed int     // defects with a non-empty detection set
	CrashOnly  int     // detected without attribution (crash/hang only)
	Tests      int     // tests detecting at least one defect
	Classes    int     // distinct non-empty detection sets
	Largest    int     // defects in the largest class
	Ambiguous  int     // defects sharing their class with another defect
	MeanSet    float64 // mean detection-set size over attributed defects
}

// ComputeStats derives the dictionary statistics.
func (s *Sets) ComputeStats() Stats {
	st := Stats{
		Defects:    s.Total,
		Detected:   s.DetectedCount(),
		Attributed: s.AttributedCount(),
		CrashOnly:  len(s.CrashOnly),
		Tests:      len(s.Faults),
	}
	classes := make(map[string]int)
	sum := 0
	for _, row := range s.ByDefect {
		if len(row) == 0 {
			continue
		}
		sum += len(row)
		classes[fmt.Sprint(row)]++
	}
	st.Classes = len(classes)
	for _, n := range classes {
		if n > st.Largest {
			st.Largest = n
		}
		if n > 1 {
			st.Ambiguous += n
		}
	}
	if st.Attributed > 0 {
		st.MeanSet = float64(sum) / float64(st.Attributed)
	}
	return st
}
