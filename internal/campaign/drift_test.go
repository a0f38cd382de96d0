package campaign

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/infield"
)

// verdictFreeReport renders a job's infield report (infieldNDJSON) and
// checks that it ends at its summary line: a drift verdict is published on
// progress, alerts and events, never in the report.
func verdictFreeReport(t *testing.T, job *Job) []byte {
	t.Helper()
	out := infieldNDJSON(t, job)
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var last struct{ Kind string }
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Kind != "summary" {
		t.Fatalf("job %s report ends with %s (%v), want the summary line", job.ID(), lines[len(lines)-1], err)
	}
	return out
}

// TestInfieldDriftLifecycle is the drift acceptance proof: the first
// completed run becomes the baseline, a byte-identical rerun stays silent
// (verdict ok, no alert, no counter), and a run compared against a doctored
// (inflated) baseline fires the drift alert with reasons. Every run renders
// the same report bytes: the verdicts live on progress, not in the report.
func TestInfieldDriftLifecycle(t *testing.T) {
	spec := Spec{Type: TypeInfield, Bus: "addr", Size: 60, Seed: 1, TargetOnly: true, Slices: 3}
	m := New(Config{Workers: 4})

	// First run: becomes the baseline.
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)
	if st := first.Status(); st.Progress.Drift != infield.VerdictBaseline {
		t.Fatalf("first run drift = %q, want %q", st.Progress.Drift, infield.VerdictBaseline)
	}
	firstReport := verdictFreeReport(t, first)
	if m.Baselines().Len() != 1 {
		t.Fatalf("baseline store holds %d curves, want 1", m.Baselines().Len())
	}

	// Byte-identical rerun: deterministic schedule reproduces the curve, so
	// the verdict is ok with no reasons, no alert fires, and the drift
	// counter stays zero.
	rerun, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, rerun)
	st := rerun.Status()
	if st.Progress.Drift != infield.VerdictOK || len(st.Progress.DriftReasons) != 0 {
		t.Fatalf("identical rerun drift = %q (reasons %v), want silent ok",
			st.Progress.Drift, st.Progress.DriftReasons)
	}
	if !bytes.Equal(verdictFreeReport(t, rerun), firstReport) {
		t.Fatal("rerun report differs from the baseline run's")
	}
	if got := series(t, m, "xtalkd_infield_drift_alerts_total"); got != 0 {
		t.Fatalf("drift alert counter = %d after identical rerun, want 0", got)
	}
	for _, a := range m.Obs().SLO.Alerts() {
		if strings.HasPrefix(a.Name, "infield_drift_") && a.State == "firing" {
			t.Fatalf("identical rerun raised alert %+v", a)
		}
	}

	// Doctor the baseline into an unreachable curve: every merge position
	// and the final coverage now sit far above anything the run produces, so
	// the next completed run must report drift and raise the external alert.
	an, _ := first.Analysis()
	key := an.Infield.Header.ManifestKey
	if key == "" {
		t.Fatal("infield header has no manifest key")
	}
	doctored := make([]infield.CoveragePoint, len(an.Infield.Points))
	for i, p := range an.Infield.Points {
		p.Coverage = 1.5 // unreachably high; any real curve drops >0.02 below
		doctored[i] = p
	}
	if err := m.Baselines().Put(&infield.Baseline{Key: key, SavedAt: time.Now(), Points: doctored}); err != nil {
		t.Fatal(err)
	}
	degraded, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, degraded)
	st = degraded.Status()
	if st.Progress.Drift != infield.VerdictDrift || len(st.Progress.DriftReasons) == 0 {
		t.Fatalf("degraded run drift = %q (reasons %v), want drift with reasons",
			st.Progress.Drift, st.Progress.DriftReasons)
	}
	if got := series(t, m, "xtalkd_infield_drift_alerts_total"); got != 1 {
		t.Fatalf("drift alert counter = %d, want 1", got)
	}
	found := false
	for _, a := range m.Obs().SLO.Alerts() {
		if a.Name == "infield_drift_"+key[:8] {
			found = true
			if a.State != "firing" || !a.External || a.Reason == "" {
				t.Fatalf("drift alert = %+v, want firing external with reason", a)
			}
		}
	}
	if !found {
		t.Fatalf("no drift alert for key %s in %+v", key, m.Obs().SLO.Alerts())
	}
	if !bytes.Equal(verdictFreeReport(t, degraded), firstReport) {
		t.Fatal("drifted run report differs from the baseline run's")
	}

	// The flight recorder captured the drift event.
	events := m.Obs().Rec.Events()
	sawDrift := false
	for _, ev := range events {
		if ev.Type == "infield.drift" {
			sawDrift = true
		}
	}
	if !sawDrift {
		t.Fatalf("flight recorder has no infield.drift event: %+v", events)
	}

	// Restoring the true baseline resolves the alert on the next clean run.
	if err := m.Baselines().Put(&infield.Baseline{Key: key, SavedAt: time.Now(),
		Points: append([]infield.CoveragePoint(nil), an.Infield.Points...)}); err != nil {
		t.Fatal(err)
	}
	recovered, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, recovered)
	if st := recovered.Status(); st.Progress.Drift != infield.VerdictOK {
		t.Fatalf("recovered run drift = %q, want ok", st.Progress.Drift)
	}
	for _, a := range m.Obs().SLO.Alerts() {
		if a.Name == "infield_drift_"+key[:8] && a.State == "firing" {
			t.Fatalf("alert still firing after recovery: %+v", a)
		}
	}
}

// TestInfieldDriftBaselinePersistence proves a manager with a baseline
// directory hands drift detection to its successor: a second manager over
// the same directory (a restarted daemon) compares its first run against the
// previous manager's baseline instead of re-baselining.
func TestInfieldDriftBaselinePersistence(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Type: TypeInfield, Bus: "addr", Size: 60, Seed: 1, TargetOnly: true, Slices: 3}

	m1 := New(Config{Workers: 4, BaselineDir: dir})
	job, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.Status(); st.Progress.Drift != infield.VerdictBaseline {
		t.Fatalf("first manager drift = %q, want baseline", st.Progress.Drift)
	}

	m2 := New(Config{Workers: 4, BaselineDir: dir})
	job, err = m2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	if st := job.Status(); st.Progress.Drift != infield.VerdictOK {
		t.Fatalf("restarted manager drift = %q, want ok against the persisted baseline", st.Progress.Drift)
	}
}
