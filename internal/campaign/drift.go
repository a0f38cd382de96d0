package campaign

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/infield"
	"repro/internal/obs"
	"repro/internal/report"
)

// driftAlertName derives the external-alert name for a manifest key (the
// short prefix keeps /alerts readable; the key is a hex digest so eight
// characters already discriminate).
func driftAlertName(key string) string {
	short := key
	if len(short) > 8 {
		short = short[:8]
	}
	return "infield_drift_" + short
}

// checkDrift compares a completed in-field run's coverage curve against the
// persisted baseline for its manifest key. The first completed run becomes
// the baseline; later runs get a verdict on progress, and a drift verdict
// raises an external alert, bumps the drift counter, and lands in the
// flight recorder. The report carries no verdict: which run of a key
// completes first is a matter of timing, and the report is a function of
// the spec alone.
func (m *Manager) checkDrift(job *Job, doc *report.InfieldJSON) {
	key := doc.Header.ManifestKey
	if key == "" || m.baselines == nil {
		return
	}
	base, ok := m.baselines.Get(key)
	if !ok {
		m.baselines.Put(&infield.Baseline{
			Key:     key,
			SavedAt: time.Now(),
			Points:  append([]infield.CoveragePoint(nil), doc.Points...),
		})
		job.mu.Lock()
		job.progress.Drift = infield.VerdictBaseline
		job.publishLocked()
		job.mu.Unlock()
		m.obs.Record("infield.baseline",
			obs.Label{Key: "job", Value: job.id},
			obs.Label{Key: "manifest", Value: key},
			obs.Label{Key: "points", Value: strconv.Itoa(len(doc.Points))})
		return
	}
	rep := infield.Compare(base, doc.Points)
	job.mu.Lock()
	job.progress.Drift = rep.Verdict
	job.progress.DriftReasons = rep.Reasons
	job.publishLocked()
	job.mu.Unlock()
	alert := driftAlertName(key)
	if rep.Drifted() {
		m.infieldDriftAlerts.Inc()
		m.obs.Record("infield.drift",
			obs.Label{Key: "job", Value: job.id},
			obs.Label{Key: "manifest", Value: key},
			obs.Label{Key: "reasons", Value: strings.Join(rep.Reasons, "; ")})
		m.obs.SLO.RaiseExternal(alert, strings.Join(rep.Reasons, "; "))
	} else {
		m.obs.SLO.ResolveExternal(alert)
	}
}
