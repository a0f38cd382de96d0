package defects

import "repro/internal/crosstalk"

// KeptBatch returns the batch the library keeps for its own thresholds, or
// nil before its first use.
func KeptBatch(l *Library) *crosstalk.Batch {
	l.batchMu.Lock()
	defer l.batchMu.Unlock()
	return l.batch
}
