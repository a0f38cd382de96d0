package diagnose

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/defects"
	"repro/internal/maf"
)

// Candidate is one ranked fault-localization hypothesis: "the defect causes
// MAF effect Kind on victim wire Wire". Score is the similarity-weighted
// vote mass the hypothesis collected from the dictionary, normalized so all
// candidates of one diagnosis sum to 1; Exact counts library defects whose
// detection set equals the observed signature exactly and whose behaviour
// includes this hypothesis.
type Candidate struct {
	Wire  int
	Kind  maf.Kind
	Score float64
	Exact int
}

// String renders the candidate as the paper would name it, e.g. "gp[4]".
func (c Candidate) String() string { return fmt.Sprintf("%s[%d]", c.Kind, c.Wire) }

// ResolveSignature maps observed failing-test names (maf.ParseFault forms,
// width-qualified or not) to the set of dictionary tests they name. A
// pattern without a width matches every width it occurs at. It fails when an
// entry matches no dictionary test — such a test never detected any library
// defect, so the dictionary carries no evidence for it.
func (s *Sets) ResolveSignature(names []string) (maf.Set, error) {
	var sig maf.Set
	u := s.Tests.Universe()
	for _, name := range names {
		pat, err := maf.ParseFault(name)
		if err != nil {
			return maf.Set{}, err
		}
		matched := false
		for i := s.Tests.Next(0); i >= 0; i = s.Tests.Next(i + 1) {
			if pat.Matches(u.Fault(i)) {
				matched = true
				sig.Add(u, i)
			}
		}
		if !matched {
			return maf.Set{}, fmt.Errorf("diagnose: signature test %q detects no library defect (not in dictionary)", name)
		}
	}
	return sig, nil
}

// Localize maps an observed failure signature — the set of MA tests that
// failed — to ranked (wire, error-effect) candidates.
//
// The dictionary is the evidence: every library defect votes for the
// hypotheses its own behaviour exhibits (the victim/kind pairs of the faults
// in its detection set), weighted by the Jaccard similarity between its
// detection set and the observed signature: the size of their intersection
// over the size of their union. A defect that fails exactly the observed
// tests votes with weight 1; one sharing half its tests votes with
// proportionally less. Each hypothesis accumulates its votes in library
// order. Scores are normalized to sum to 1 and candidates are ordered by
// score descending, then wire, then kind — a deterministic ranking for
// byte-stable reports.
//
// This generalizes core.DiagnoseOneHotSignature: for the compacted one-hot
// group, a signature's missing bits are rising-delay failures on exactly
// those lines, and the dictionary vote reproduces that mapping; for full
// campaign signatures it degrades gracefully to a ranking when compaction
// aliasing or fault masking makes the inverse ambiguous.
func (s *Sets) Localize(sig maf.Set) []Candidate {
	var scores [hypKeys]float64
	var exact [hypKeys]int
	n := sig.Len()
	for d := range s.Outcomes {
		set := s.Outcomes[d].DetectedBy
		inter := sig.IntersectLen(set)
		if inter == 0 {
			continue
		}
		w := float64(inter) / float64(n+s.size[d]-inter)
		same := sig == set
		for j, word := range s.hyps[d] {
			for ; word != 0; word &= word - 1 {
				k := j<<6 | bits.TrailingZeros64(word)
				scores[k] += w
				if same {
					exact[k]++
				}
			}
		}
	}
	// Normalize after the deterministic sort so the float accumulation
	// order is fixed and the scores are byte-stable in reports.
	var out []Candidate
	for k, sc := range scores {
		if sc > 0 {
			out = append(out, Candidate{Wire: k / len(maf.Kinds), Kind: maf.Kind(k % len(maf.Kinds)),
				Score: sc, Exact: exact[k]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Wire != b.Wire {
			return a.Wire < b.Wire
		}
		return a.Kind < b.Kind
	})
	var total float64
	for _, c := range out {
		total += c.Score
	}
	if total > 0 {
		for i := range out {
			out[i].Score /= total
		}
	}
	return out
}

// LocalizeNames is Localize over failing-test names (see ResolveSignature).
func (s *Sets) LocalizeNames(names []string) ([]Candidate, error) {
	sig, err := s.ResolveSignature(names)
	if err != nil {
		return nil, err
	}
	return s.Localize(sig), nil
}

// Accuracy measures how well dictionary localization recovers the true
// victim wires of the library's own defects: every attributed defect's
// detection set is diagnosed as if it were an observed signature, and the
// top-ranked candidate wire is checked against the defect's over-threshold
// wires (the ground truth the library generator recorded).
type Accuracy struct {
	Evaluated int // attributed defects diagnosed
	TopHit    int // top candidate wire is a true over-threshold wire
	Top3Hit   int // some top-3 candidate wire is a true over-threshold wire
}

// EvaluateAccuracy runs the self-diagnosis experiment against the library
// the outcomes were simulated from. Defects are evaluated in library order,
// so the result is deterministic.
func (s *Sets) EvaluateAccuracy(lib *defects.Library) (Accuracy, error) {
	if len(lib.Defects) != len(s.Outcomes) {
		return Accuracy{}, fmt.Errorf("diagnose: library has %d defects, dictionary %d", len(lib.Defects), len(s.Outcomes))
	}
	var acc Accuracy
	for d, out := range s.Outcomes {
		if s.size[d] == 0 {
			continue
		}
		acc.Evaluated++
		// Bit w is set for each over-threshold wire w. Shifts by 64 or more
		// give 0, and no candidate names a wire past 63.
		var truth uint64
		for _, w := range lib.Defects[d].OverThreshold {
			truth |= 1 << uint(w)
		}
		for i, c := range s.Localize(out.DetectedBy) {
			if i >= 3 {
				break
			}
			if truth>>uint(c.Wire)&1 != 0 {
				if i == 0 {
					acc.TopHit++
				}
				acc.Top3Hit++
				break
			}
		}
	}
	return acc, nil
}
