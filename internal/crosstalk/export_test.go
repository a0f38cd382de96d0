package crosstalk

// RiskMasks exposes a channel's risk masks (see riskMasks) to the external
// tests, which check them against the shipped targets' bus models.
func (c *Channel) RiskMasks() (delay [2]uint64, glitch uint64) { return c.delayRisk, c.glitchRisk }
