package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/infield"
	"repro/internal/report"
)

// driftNDJSON renders a job's infield analysis and returns the NDJSON lines.
func driftNDJSON(t *testing.T, job *Job) []map[string]any {
	t.Helper()
	an, ok := job.Analysis()
	if !ok || an.Infield == nil {
		t.Fatal("infield job carries no analysis")
	}
	var buf bytes.Buffer
	if err := report.WriteInfieldNDJSON(&buf, an.Infield); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var doc map[string]any
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, doc)
	}
	return lines
}

// TestInfieldDriftLifecycle is the drift acceptance proof: the first
// completed run becomes the baseline with unchanged report bytes, a
// byte-identical rerun stays silent (verdict ok, no alert, no counter), and
// a run compared against a doctored (inflated) baseline fires the drift
// alert with reasons.
func TestInfieldDriftLifecycle(t *testing.T) {
	spec := Spec{Type: TypeInfield, Bus: "addr", Size: 60, Seed: 1, TargetOnly: true, Slices: 3}
	m := New(Config{Workers: 4})

	// First run: becomes the baseline; the report has no drift trailer so
	// single-run NDJSON bytes are identical to the pre-drift format.
	first, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, first)
	if st := first.Status(); st.Progress.Drift != infield.VerdictBaseline {
		t.Fatalf("first run drift = %q, want %q", st.Progress.Drift, infield.VerdictBaseline)
	}
	firstLines := driftNDJSON(t, first)
	if kind := firstLines[len(firstLines)-1]["kind"]; kind != "summary" {
		t.Fatalf("first run trailing line kind = %v, want summary (no drift line)", kind)
	}
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
	rerunLines := driftNDJSON(t, rerun)
	lastLine := rerunLines[len(rerunLines)-1]
	if lastLine["kind"] != "drift" || lastLine["verdict"] != infield.VerdictOK {
		t.Fatalf("rerun trailing line = %v, want a drift line with verdict ok", lastLine)
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
	degradedLines := driftNDJSON(t, degraded)
	lastLine = degradedLines[len(degradedLines)-1]
	if lastLine["kind"] != "drift" || lastLine["verdict"] != infield.VerdictDrift {
		t.Fatalf("degraded trailing line = %v, want drift verdict", lastLine)
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
