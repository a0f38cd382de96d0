package defects

import "repro/internal/crosstalk"

// KeptBatch returns the batch the library keeps for its own thresholds, or
// nil before its first use.
func KeptBatch(l *Library) *crosstalk.Batch {
	l.batchMu.Lock()
	defer l.batchMu.Unlock()
	return l.batch
}

// BuildInFlight reports whether a build of the library's kept batch is in
// flight.
func BuildInFlight(l *Library) bool {
	l.batchMu.Lock()
	defer l.batchMu.Unlock()
	return l.building != nil
}
