// Package diagnose is the detection-set analytics layer above the defect
// simulator: it turns a campaign's per-defect outcomes into the three
// artifacts a test-program owner actually wants beyond a coverage number.
//
//   - Detection sets (Sets): for every library defect, exactly which MA
//     tests detect it, and for every MA test, exactly which defects it
//     catches — the fault dictionary of classic diagnosis literature, read
//     straight from sim.Outcome.DetectedBy, a bitset over the target's fault
//     universe.
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
// Everything in this package is deterministic: defects are visited by
// library index, faults in universe (maf.Compare) order, greedy ties break
// canonically, and floating-point scores are accumulated in a fixed order —
// so reports rendered from these results are byte-stable across engines,
// worker counts, and fleet shard merges.
package diagnose

import (
	"repro/internal/maf"
	"repro/internal/sim"
)

// Sets is the detection-set dictionary of one campaign: a read-only view
// over its outcomes. Defect d's detection set is Outcomes[d].DetectedBy, and
// the dictionary's tests are the union of the sets.
type Sets struct {
	// Outcomes are the campaign's outcomes in library index order; the
	// analyses never modify them.
	Outcomes []sim.Outcome
	// Tests is the union of the detection sets: every test that detects at
	// least one defect.
	Tests maf.Set
	// byFault holds, per universe index, the ascending library positions of
	// the defects that fault's test detects; GreedyCover walks it.
	byFault [][]int
	// size and hyps hold, per library position, the detection set's size
	// and its (victim, kind) hypotheses, the two facts Localize reads of
	// every defect it weighs.
	size []int
	hyps []hypotheses
}

// hypotheses is a set of (victim, kind) localization hypotheses, bit
// victim*4+kind. 64 wires × 4 kinds suffice: a fault universe holds at most
// maf.SetBits faults, four per wire and direction.
type hypotheses [hypKeys / 64]uint64

const hypKeys = 64 * len(maf.Kinds)

// Collect builds the dictionary over a campaign's outcomes in library index
// order (sim.CampaignResult.Outcomes).
func Collect(outcomes []sim.Outcome) *Sets {
	s := &Sets{Outcomes: outcomes, size: make([]int, len(outcomes)), hyps: make([]hypotheses, len(outcomes))}
	for _, out := range outcomes {
		s.Tests = s.Tests.Union(out.DetectedBy)
	}
	u := s.Tests.Universe()
	if u == nil {
		return s
	}
	s.byFault = make([][]int, u.Len())
	for d, out := range outcomes {
		set := out.DetectedBy
		s.size[d] = set.Len()
		for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
			s.byFault[i] = append(s.byFault[i], d)
			f := u.Fault(i)
			k := f.Victim*len(maf.Kinds) + int(f.Kind)
			s.hyps[d][k>>6] |= 1 << uint(k&63)
		}
	}
	return s
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
	st := Stats{Defects: len(s.Outcomes), Tests: s.Tests.Len()}
	classes := make(map[maf.Set]int)
	sum := 0
	for d, o := range s.Outcomes {
		if o.Detected {
			st.Detected++
		}
		if s.size[d] == 0 {
			if o.Detected {
				st.CrashOnly++
			}
			continue
		}
		st.Attributed++
		sum += s.size[d]
		classes[o.DetectedBy]++
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
