package diagnose

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/maf"
	"repro/internal/sim"
)

// Cover is a greedy set-cover solution over the detection-set dictionary:
// the smallest-found subset of MA tests whose detection sets together cover
// every attributed defect.
type Cover struct {
	// Chosen lists the selected tests in selection order (most productive
	// first); NewlyCovered is parallel: how many previously uncovered
	// defects each selection added.
	Chosen       []maf.Fault
	NewlyCovered []int
	// Coverable is the number of defects with non-empty detection sets (the
	// set-cover universe); Covered is how many the chosen tests cover —
	// always equal to Coverable by construction.
	Coverable int
	Covered   int
	// CrashOnly lists library positions detected without attribution; no
	// test's detection set contains them, so the cover cannot target them
	// and verification must re-check them empirically.
	CrashOnly []int
	// FullTests is the dictionary's test count, for reduction reporting.
	FullTests int
}

// Reduction returns the fractional test-count reduction of the cover, e.g.
// 0.8 when 100 dictionary tests shrank to 20.
func (c *Cover) Reduction() float64 {
	if c.FullTests == 0 {
		return 0
	}
	return 1 - float64(len(c.Chosen))/float64(c.FullTests)
}

// GreedyCover computes a minimal-found test subset preserving the full
// program's library coverage, by the standard greedy set-cover heuristic
// (ln n-approximate, and in practice near-optimal here because the paper's
// R4 overlap means a handful of tests already cover almost everything).
//
// Determinism: each round picks the test covering the most still-uncovered
// defects; ties break toward the canonically first fault (tests are walked
// in universe order, which is maf.Compare order), so the same dictionary
// always yields the same cover. A chosen test covers nothing new afterwards,
// so no round picks it again.
func GreedyCover(s *Sets) *Cover {
	c := &Cover{FullTests: s.Tests.Len()}
	uncovered := make([]bool, len(s.Outcomes))
	remaining := 0
	for d, o := range s.Outcomes {
		switch {
		case s.size[d] > 0:
			uncovered[d] = true
			remaining++
		case o.Detected:
			c.CrashOnly = append(c.CrashOnly, d)
		}
	}
	c.Coverable = remaining
	for remaining > 0 {
		best, bestGain := -1, 0
		for i := s.Tests.Next(0); i >= 0; i = s.Tests.Next(i + 1) {
			gain := 0
			for _, d := range s.byFault[i] {
				if uncovered[d] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break // cannot happen: every uncovered defect has a detecting test
		}
		c.Chosen = append(c.Chosen, s.Tests.Universe().Fault(best))
		c.NewlyCovered = append(c.NewlyCovered, bestGain)
		for _, d := range s.byFault[best] {
			if uncovered[d] {
				uncovered[d] = false
				remaining--
			}
		}
	}
	c.Covered = c.Coverable - remaining
	return c
}

// DetectionHash is the canonical content hash of a campaign's per-defect
// detection vector: sha256 over one byte per defect in library order ('1'
// detected, '0' not). Two campaigns whose hashes agree detected byte-for-byte
// the same defects.
func DetectionHash(outcomes []sim.Outcome) string {
	vec := make([]byte, len(outcomes))
	for i, out := range outcomes {
		if out.Detected {
			vec[i] = '1'
		} else {
			vec[i] = '0'
		}
	}
	sum := sha256.Sum256(vec)
	return hex.EncodeToString(sum[:])
}

// Verification is the outcome of re-simulating the minimized program over
// the same defect library and comparing detection vectors with the full
// program's campaign.
type Verification struct {
	Total        int
	FullDetected int
	MinDetected  int
	// Mismatches lists library positions whose detected flag differs
	// between the two campaigns (empty when identical).
	Mismatches []int
	// FullHash and MinHash are the two campaigns' DetectionHash values;
	// Identical means they are equal — the minimized program's coverage is
	// byte-identically the full program's.
	FullHash  string
	MinHash   string
	Identical bool
}

// Verify compares the full and minimized campaigns' outcomes defect by
// defect. Both slices must be in library index order over the same library.
func Verify(full, minimized []sim.Outcome) (Verification, error) {
	if len(full) != len(minimized) {
		return Verification{}, fmt.Errorf("diagnose: verification over %d defects, full campaign has %d",
			len(minimized), len(full))
	}
	v := Verification{
		Total:    len(full),
		FullHash: DetectionHash(full),
		MinHash:  DetectionHash(minimized),
	}
	for i := range full {
		if full[i].Detected {
			v.FullDetected++
		}
		if minimized[i].Detected {
			v.MinDetected++
		}
		if full[i].Detected != minimized[i].Detected {
			v.Mismatches = append(v.Mismatches, i)
		}
	}
	v.Identical = v.FullHash == v.MinHash
	return v, nil
}
