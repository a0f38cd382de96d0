package diagnose

import (
	"repro/internal/maf"
	"repro/internal/sim"
)

// Repair is the result of the minimize-verify-augment loop around a greedy
// cover. The greedy cover is provably sufficient against the dictionary, but
// the dictionary records detections from the FULL program, and some of them
// are context-dependent: a defect can be detected through incidental bus
// transitions (instruction fetches between tests) or collateral corruption
// of another test's response cell, effects that a re-laid-out minimized
// program does not reproduce. RepairCover closes that gap empirically:
// simulate the minimized program, and for every defect whose detected flag
// differs from the full program's, add its entire detection set to the
// chosen tests, then re-simulate — until the per-defect detection vector is
// byte-identical or no further tests can help.
type Repair struct {
	// Tests is the final minimized test set (cover plus additions), in
	// canonical maf.Compare order.
	Tests []maf.Fault
	// Added lists the tests the repair rounds added beyond the greedy
	// cover, in addition order (deterministic: mismatches ascending, each
	// defect's detection set in canonical order).
	Added []maf.Fault
	// Rounds is the number of verification campaigns run (≥ 1).
	Rounds int
	// Verification is the last round's comparison against the full
	// program; Identical reports whether the loop converged.
	Verification Verification
	// Outcomes is the last round's per-defect outcomes.
	Outcomes []sim.Outcome
}

// repairRounds bounds the verification campaigns one repair runs.
const repairRounds = 5

// RepairCover runs the verify-augment loop against the full program's
// outcomes, the ones s views, starting from cover, a GreedyCover of s.
// simulate re-runs the library under a program restricted to the tests the
// filter accepts, returning outcomes in library order. The loop runs at most
// repairRounds simulate calls, and stops early when a round converges or
// when the mismatched defects have no unchosen tests left to add (crash-only
// defects, or defects the minimized program detects that the full one does
// not).
func RepairCover(s *Sets, cover *Cover, simulate func(filter func(maf.Fault) bool) ([]sim.Outcome, error)) (*Repair, error) {
	u := s.Tests.Universe()
	var chosen maf.Set
	for _, f := range cover.Chosen {
		i, _ := u.Index(f)
		chosen.Add(u, i)
	}
	accept := func(f maf.Fault) bool {
		if u == nil {
			return false // no test detected anything, so none is chosen
		}
		i, ok := u.Index(f)
		return ok && chosen.Has(i)
	}
	r := &Repair{}
	for {
		r.Rounds++
		out, err := simulate(accept)
		if err != nil {
			return nil, err
		}
		v, err := Verify(s.Outcomes, out)
		if err != nil {
			return nil, err
		}
		r.Verification = v
		r.Outcomes = out
		if v.Identical || r.Rounds >= repairRounds {
			break
		}
		progress := false
		for _, d := range v.Mismatches {
			set := s.Outcomes[d].DetectedBy
			for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
				if !chosen.Has(i) {
					chosen.Add(u, i)
					r.Added = append(r.Added, u.Fault(i))
					progress = true
				}
			}
		}
		if !progress {
			break
		}
	}
	r.Tests = chosen.Faults()
	return r, nil
}
