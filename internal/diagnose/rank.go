package diagnose

import (
	"math/bits"
	"sort"

	"repro/internal/defects"
)

// WireRank is one wire's row in the vulnerability ranking: how much of the
// library's detection evidence the wire's victim tests account for.
type WireRank struct {
	Wire int `json:"wire"`
	// Detected is the number of defects detected by at least one MA test
	// whose victim is this wire; Unique counts the defects only this wire's
	// tests detect.
	Detected int `json:"detected"`
	Unique   int `json:"unique"`
	// OverThreshold is ground truth from the defect library: defects whose
	// injected coupling caps push this wire over the detection threshold.
	// Zero when no library is supplied.
	OverThreshold int `json:"over_threshold"`
	// Share is Detected over the number of attributed defects.
	Share float64 `json:"share"`
}

// RankWires ranks a bus's wires by crosstalk vulnerability, reproducing the
// paper's Fig. 11 observation that centre wires dominate detection while the
// side wires (0 and width-1), with only one neighbour each, trail far behind.
//
// Only dictionary faults with Width == width contribute, so on a combined
// data+address plan the ranking of one bus is not polluted by same-victim
// faults of the other. lib may be nil; when given and sized to the
// dictionary, ground-truth over-threshold counts are included. The result is
// ordered by Detected descending, then wire ascending.
func RankWires(s *Sets, width int, lib *defects.Library) []WireRank {
	ranks := make([]WireRank, width)
	for w := range ranks {
		ranks[w].Wire = w
	}
	attributed := 0
	for d, out := range s.Outcomes {
		if s.size[d] == 0 {
			continue
		}
		attributed++
		var wires uint64 // bit w: a test of this width with victim w detects the defect
		set := out.DetectedBy
		for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
			if f := set.Universe().Fault(i); f.Width == width && f.Victim >= 0 && f.Victim < width {
				wires |= 1 << uint(f.Victim)
			}
		}
		unique := bits.OnesCount64(wires) == 1
		for ; wires != 0; wires &= wires - 1 {
			w := bits.TrailingZeros64(wires)
			ranks[w].Detected++
			if unique {
				ranks[w].Unique++
			}
		}
	}
	if attributed > 0 {
		for w := range ranks {
			ranks[w].Share = float64(ranks[w].Detected) / float64(attributed)
		}
	}
	if lib != nil && len(lib.Defects) == len(s.Outcomes) {
		for _, d := range lib.Defects {
			for _, w := range d.OverThreshold {
				if w >= 0 && w < width {
					ranks[w].OverThreshold++
				}
			}
		}
	}
	sort.Slice(ranks, func(i, j int) bool {
		if ranks[i].Detected != ranks[j].Detected {
			return ranks[i].Detected > ranks[j].Detected
		}
		return ranks[i].Wire < ranks[j].Wire
	})
	return ranks
}
