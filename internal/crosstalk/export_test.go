package crosstalk

import (
	"math/bits"

	"repro/internal/logic"
	"repro/internal/maf"
)

// RiskMasks exposes a channel's risk masks (see riskMasks) to the external
// tests, which check them against the shipped targets' bus models.
func (c *Channel) RiskMasks() (delay [2]uint64, glitch uint64) { return c.delayRisk, c.glitchRisk }

// ProvedLists counts, for the transition prev -> next driven in direction
// dir, the victim lists EventMask visits (a switching wire's delay list, a
// stable wire's glitch list, on the wires some set is at risk on) and how
// many of them the batch's envelope proves clean, so that EventMask skips
// them.
func (b *Batch) ProvedLists(prev, next logic.Word, dir maf.Direction) (proved, lists int) {
	a, v2 := prev.Uint64(), next.Uint64()
	edges := a ^ v2
	if edges == 0 {
		return 0, 0
	}
	for risk := edges&b.env.delayRisk[dir] | ^edges&b.env.glitchRisk; risk != 0; risk &= risk - 1 {
		lists++
		if !b.env.mayErrOn(bits.TrailingZeros64(risk), a, v2, dir) {
			proved++
		}
	}
	return proved, lists
}
