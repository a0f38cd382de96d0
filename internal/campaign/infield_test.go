package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/report"
)

// oneShot strips the infield scheduling fields off a spec, leaving the plain
// campaign over the identical plan and library.
func oneShot(spec Spec) Spec {
	spec.Type = ""
	spec.Slices = 0
	spec.SliceCycles = 0
	spec.IntervalMS = 0
	return spec
}

// TestInfieldConvergenceIdentity is the headline acceptance proof: the merged
// ledger of a sliced in-field schedule renders the byte-identical campaign
// report to the one-shot campaign over the same plan — on the Parwan target
// and on both wide-bus widths, under both slicing modes.
func TestInfieldConvergenceIdentity(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"parwan-addr-slices", Spec{Type: TypeInfield, Bus: "addr", Size: 60, Seed: 1, TargetOnly: true, Slices: 3}},
		{"parwan-addr-finest", Spec{Type: TypeInfield, Bus: "addr", Size: 60, Seed: 1, TargetOnly: true}},
		{"widebus16-cycles", Spec{Type: TypeInfield, Target: "widebus16", Bus: "bus", Size: 40, Seed: 7, MaxSessions: 6, SliceCycles: 200}},
		{"widebus32-slices", Spec{Type: TypeInfield, Target: "widebus32", Bus: "bus", Size: 40, Seed: 7, MaxSessions: 4, Slices: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(Config{Workers: 4})
			job, err := m.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, job)
			res, width, ok := job.Result()
			if !ok {
				t.Fatalf("infield job finished %s (err=%v), want done", job.Status().State, job.Err())
			}
			ref, err := m.Submit(oneShot(tc.spec))
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, ref)
			refRes, refWidth, ok := ref.Result()
			if !ok {
				t.Fatalf("one-shot job finished %s (err=%v), want done", ref.Status().State, ref.Err())
			}
			got := renderJSON(t, res, width)
			want := renderJSON(t, refRes, refWidth)
			if !bytes.Equal(got, want) {
				t.Fatalf("infield merged report differs from one-shot campaign report (%d vs %d bytes)",
					len(got), len(want))
			}

			an, ok := job.Analysis()
			if !ok || an.Infield == nil {
				t.Fatal("infield job carries no infield analysis")
			}
			doc := an.Infield
			if doc.Header.Kind != "infield" || len(doc.Points) != len(doc.Header.Slices) {
				t.Fatalf("analysis header %q with %d points over %d slices",
					doc.Header.Kind, len(doc.Points), len(doc.Header.Slices))
			}
			if tc.spec.Slices > 0 && len(doc.Header.Slices) > tc.spec.Slices {
				t.Fatalf("manifest has %d slices, requested at most %d", len(doc.Header.Slices), tc.spec.Slices)
			}
			last := doc.Points[len(doc.Points)-1]
			if last.Detected != res.Detected || doc.Summary.Detected != res.Detected {
				t.Fatalf("curve ends at %d detected (summary %d), result has %d",
					last.Detected, doc.Summary.Detected, res.Detected)
			}
			if doc.Summary.ConvergenceGap != res.Total-res.Detected {
				t.Fatalf("convergence gap %d, want %d", doc.Summary.ConvergenceGap, res.Total-res.Detected)
			}
			st := job.Status()
			if st.Progress.Slice != len(doc.Points) || st.Progress.Slices != len(doc.Points) {
				t.Fatalf("final progress slice %d/%d, want %d/%d",
					st.Progress.Slice, st.Progress.Slices, len(doc.Points), len(doc.Points))
			}
			if st.Progress.Done != res.Total*len(doc.Points) {
				t.Fatalf("final progress done %d, want %d defect runs", st.Progress.Done, res.Total*len(doc.Points))
			}
		})
	}
}

// TestUnknownJobType pins the typed rejection (and that it is error-matchable
// with errors.As).
func TestUnknownJobType(t *testing.T) {
	m := New(Config{Workers: 1})
	_, err := m.Submit(Spec{Type: "bogus", Bus: "addr", Size: 10, Seed: 1})
	if err == nil {
		t.Fatal("unknown job type accepted")
	}
	var ute *UnknownTypeError
	if !errors.As(err, &ute) {
		t.Fatalf("error %v (%T) is not an UnknownTypeError", err, err)
	}
	if ute.Type != "bogus" {
		t.Fatalf("UnknownTypeError carries %q, want %q", ute.Type, "bogus")
	}
	// The infield scheduling fields are meaningless on other job types.
	if _, err := m.Submit(Spec{Bus: "addr", Size: 10, Seed: 1, Slices: 2}); err == nil {
		t.Error("plain campaign with slices accepted")
	}
	if _, err := m.Submit(Spec{Type: TypeInfield, Bus: "addr", Size: 10, Seed: 1, Slices: 2, SliceCycles: 100}); err == nil {
		t.Error("infield with both slice count and cycle budget accepted")
	}
}

// TestInfieldResume cancels a paced schedule mid-run and resumes it: the
// merged slices stay in the ledger (they are not re-simulated into different
// state) and the resumed job converges to the identical report.
func TestInfieldResume(t *testing.T) {
	spec := Spec{Type: TypeInfield, Bus: "addr", Size: 60, Seed: 1, TargetOnly: true, IntervalMS: 200}
	m := New(Config{Workers: 4})
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := job.Subscribe()
	for p := range events {
		if p.Slice >= 1 {
			if err := m.Cancel(job.ID()); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	unsub()
	waitDone(t, job)
	if st := job.Status().State; st != Canceled {
		t.Fatalf("job is %s after cancel, want %s", st, Canceled)
	}
	job.mu.Lock()
	merged := job.ledger.MergedCount()
	slices := job.ledger.Slices()
	job.mu.Unlock()
	if merged < 1 || merged >= slices {
		t.Fatalf("cancel landed with %d of %d slices merged; test needs a partial schedule", merged, slices)
	}

	resumed, err := m.Resume(job.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, resumed)
	res, width, ok := resumed.Result()
	if !ok {
		t.Fatalf("resumed job finished %s (err=%v), want done", resumed.Status().State, resumed.Err())
	}
	ref, err := m.Submit(oneShot(spec))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref)
	refRes, refWidth, ok := ref.Result()
	if !ok {
		t.Fatal("one-shot reference did not finish")
	}
	if got, want := renderJSON(t, res, width), renderJSON(t, refRes, refWidth); !bytes.Equal(got, want) {
		t.Fatalf("resumed infield report differs from one-shot campaign report (%d vs %d bytes)", len(got), len(want))
	}
}

// infieldNDJSON renders a finished infield job's coverage report as NDJSON.
func infieldNDJSON(t *testing.T, job *Job) []byte {
	t.Helper()
	an, ok := job.Analysis()
	if !ok || an.Infield == nil {
		t.Fatalf("job %s finished %s (err=%v) without an infield analysis",
			job.ID(), job.Status().State, job.Err())
	}
	var buf bytes.Buffer
	if err := report.WriteInfieldNDJSON(&buf, an.Infield); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInfieldSchedulePinned pins the schedule's checkpoint: a paced
// schedule canceled after two or more merges and then resumed renders the
// NDJSON an uninterrupted run renders on a fresh manager, byte for byte.
func TestInfieldSchedulePinned(t *testing.T) {
	paced := Spec{Type: TypeInfield, Target: "widebus16", Bus: "bus", Size: 40, Seed: 7, MaxSessions: 8, IntervalMS: 100}
	ref, err := New(Config{Workers: 2}).Submit(paced)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref)
	want := infieldNDJSON(t, ref)

	m := New(Config{Workers: 2})
	cut, err := m.Submit(paced)
	if err != nil {
		t.Fatal(err)
	}
	events, unsub := cut.Subscribe()
	for p := range events {
		if p.Slice >= 2 {
			if err := m.Cancel(cut.ID()); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	unsub()
	waitDone(t, cut)
	if st := cut.Status(); st.State != Canceled || st.Progress.Slice < 2 || st.Progress.Slice >= st.Progress.Slices {
		t.Fatalf("cancel left the job %s at slice %d of %d; test needs a partial schedule",
			st.State, st.Progress.Slice, st.Progress.Slices)
	}
	resumed, err := m.Resume(cut.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, resumed)
	if got := infieldNDJSON(t, resumed); !bytes.Equal(got, want) {
		t.Fatalf("resumed schedule's NDJSON differs from an uninterrupted run:\n%s\nwant:\n%s", got, want)
	}
}

// TestInfieldRunsRaiseNoAlert runs the pinned schedule's spec at two library
// sizes on one manager. The two runs share a manifest key, since the key
// names neither library size nor bus, yet neither may raise an alert: the
// alert list holds only the manager's registered objectives, each ok, and
// /metrics carries no in-field drift-alert or baseline series.
func TestInfieldRunsRaiseNoAlert(t *testing.T) {
	m, ts := newTestServer(t, 2)
	objectives := m.Obs().SLO.Alerts()
	for _, size := range []int{200, 20} {
		job, err := m.Submit(Spec{Type: TypeInfield, Target: "widebus16", Bus: "bus", Size: size, Seed: 7, MaxSessions: 8})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		if st := job.Status(); st.State != Done {
			t.Fatalf("size %d job ended %s (err=%v), want done", size, st.State, job.Err())
		}
	}
	alerts := m.Obs().SLO.Alerts()
	if len(alerts) != len(objectives) {
		t.Fatalf("alert list %+v, want only the registered objectives %+v", alerts, objectives)
	}
	for i, a := range alerts {
		if a.Name != objectives[i].Name || a.State != obs.AlertOK.String() {
			t.Errorf("alert %+v, want objective %s in state ok", a, objectives[i].Name)
		}
	}
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	// The prefixes cover the drift-alert counter and the baseline gauge.
	for _, prefix := range []string{"xtalkd_infield_drift", "xtalkd_infield_baseline"} {
		if strings.Contains(string(body), prefix) {
			t.Errorf("metrics exposition carries a %s* series", prefix)
		}
	}
}

// TestHTTPInfieldResultNDJSON runs an infield job through the HTTP tier and
// checks the /result stream: NDJSON content type, an infield header line,
// one line per slice, and a summary line.
func TestHTTPInfieldResultNDJSON(t *testing.T) {
	m, ts := newTestServer(t, 4)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns",
		`{"type":"infield","bus":"addr","size":60,"seed":1,"target_only":true,"slices":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitDoneHTTP(t, m, st.ID)

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/result", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("result content type %q, want application/x-ndjson", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var doc map[string]any
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, doc)
	}
	if len(lines) < 3 {
		t.Fatalf("result stream has %d lines, want header + points + summary", len(lines))
	}
	if kind := lines[0]["kind"]; kind != "infield" {
		t.Fatalf("first line kind %v, want infield", kind)
	}
	if kind := lines[len(lines)-1]["kind"]; kind != "summary" {
		t.Fatalf("last line kind %v, want summary", kind)
	}
	slices := lines[0]["slices"].([]any)
	if points := len(lines) - 2; points != len(slices) {
		t.Fatalf("stream carries %d points for %d slices", points, len(slices))
	}

	// The job's final status carries the infield progress dimensions.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Progress.Slices != len(slices) || st.Progress.Slice != len(slices) || st.Progress.Coverage <= 0 {
		t.Fatalf("final progress %+v does not reflect the completed schedule", st.Progress)
	}
}

// TestInfieldMetricsExposition extends the exposition parse to the infield
// metric families: after a completed schedule the slice counter equals the
// manifest's slice count and the payload still parses.
func TestInfieldMetricsExposition(t *testing.T) {
	m, ts := newTestServer(t, 4)
	job, err := m.Submit(Spec{Type: TypeInfield, Bus: "addr", Size: 60, Seed: 1, TargetOnly: true, Slices: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	an, ok := job.Analysis()
	if !ok || an.Infield == nil {
		t.Fatal("infield job carries no analysis")
	}

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if _, err := obs.ParseExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, body)
	}
	text := string(body)
	for _, family := range []string{
		"xtalkd_infield_slices_run_total",
		"xtalkd_infield_cumulative_detections",
		"xtalkd_infield_convergence_gap",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("metrics exposition is missing %s", family)
		}
	}
	res, _, _ := job.Result()
	if got := metricValue(t, text, "xtalkd_infield_slices_run_total"); got != int64(len(an.Infield.Points)) {
		t.Errorf("slices run counter %d, want %d", got, len(an.Infield.Points))
	}
	if got := metricValue(t, text, "xtalkd_infield_cumulative_detections"); got != int64(res.Detected) {
		t.Errorf("cumulative detections gauge %d, want %d", got, res.Detected)
	}
	if got := metricValue(t, text, "xtalkd_infield_convergence_gap"); got != int64(res.Total-res.Detected) {
		t.Errorf("convergence gap gauge %d, want %d", got, res.Total-res.Detected)
	}
	slices, detections := series(t, m, "xtalkd_infield_slices_run_total"), series(t, m, "xtalkd_infield_cumulative_detections")
	if slices != int64(len(an.Infield.Points)) || detections != int64(res.Detected) {
		t.Errorf("registry reads %d slices and %d detections, want %d and %d",
			slices, detections, len(an.Infield.Points), res.Detected)
	}
}
