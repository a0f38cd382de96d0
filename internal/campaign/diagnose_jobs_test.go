package campaign

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

func TestDiagnoseJob(t *testing.T) {
	m := New(Config{Workers: 4})
	spec := smallSpec()
	spec.Type = TypeDiagnose
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	an, ok := job.Analysis()
	if !ok || an.Diagnosis == nil {
		t.Fatalf("no diagnosis (state %s, err %v)", job.Status().State, job.Err())
	}
	d := an.Diagnosis
	if d.Stats.Defects != spec.Size || d.Stats.Detected == 0 {
		t.Fatalf("stats %+v", d.Stats)
	}
	if len(d.Sets) != d.Stats.Attributed {
		t.Fatalf("%d sets for %d attributed", len(d.Sets), d.Stats.Attributed)
	}
	if d.Accuracy == nil || d.Accuracy.Evaluated != d.Stats.Attributed {
		t.Fatalf("accuracy %+v", d.Accuracy)
	}
	// The base campaign result is still recorded.
	if _, _, ok := job.Result(); !ok {
		t.Fatal("diagnose job lost its campaign result")
	}

	// A second submission reuses the caches and must render byte-identically.
	job2, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job2)
	an2, ok := job2.Analysis()
	if !ok {
		t.Fatalf("second job: %v", job2.Err())
	}
	var a, b bytes.Buffer
	if err := report.WriteDiagnosisJSON(&a, d); err != nil {
		t.Fatal(err)
	}
	if err := report.WriteDiagnosisJSON(&b, an2.Diagnosis); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("diagnosis not deterministic across submissions")
	}
}

func TestDiagnoseJobWithSignature(t *testing.T) {
	m := New(Config{Workers: 4})
	spec := smallSpec()
	spec.Type = TypeDiagnose
	spec.Signature = []string{"dr[3]/fwd"}
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	an, ok := job.Analysis()
	if !ok {
		t.Fatalf("job %s: %v", job.Status().State, job.Err())
	}
	if len(an.Diagnosis.Candidates) == 0 {
		t.Fatal("signature diagnosis produced no candidates")
	}
	top := an.Diagnosis.Candidates[0]
	if top.Wire < 0 || top.Score <= 0 {
		t.Fatalf("top candidate %+v", top)
	}
}

func TestMinimizeJob(t *testing.T) {
	m := New(Config{Workers: 4})
	spec := smallSpec()
	spec.Type = TypeMinimize
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	an, ok := job.Analysis()
	if !ok || an.Minimize == nil {
		t.Fatalf("no minimization (state %s, err %v)", job.Status().State, job.Err())
	}
	mn := an.Minimize
	if len(mn.Chosen) == 0 || len(mn.Chosen)+len(mn.Augmented) >= mn.FullTests {
		t.Fatalf("cover %d+%d of %d tests", len(mn.Chosen), len(mn.Augmented), mn.FullTests)
	}
	if mn.VerifyRounds < 1 {
		t.Fatalf("verify rounds %d", mn.VerifyRounds)
	}
	if mn.MinProgramTests == 0 || mn.MinProgramTests >= mn.FullProgramTests {
		t.Fatalf("program %d -> %d tests is not a reduction", mn.FullProgramTests, mn.MinProgramTests)
	}
	if mn.Verification == nil {
		t.Fatal("no verification campaign")
	}
	v := mn.Verification
	if !v.Identical || v.FullHash != v.MinHash || len(v.Mismatches) != 0 {
		t.Fatalf("verification failed: %+v", v)
	}
	if v.Total != spec.Size || v.FullDetected != v.MinDetected {
		t.Fatalf("verification counts %+v", v)
	}
}

func TestRankJob(t *testing.T) {
	m := New(Config{Workers: 4})
	spec := smallSpec()
	spec.Type = TypeRank
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	an, ok := job.Analysis()
	if !ok || an.Rank == nil {
		t.Fatalf("no ranking (state %s, err %v)", job.Status().State, job.Err())
	}
	r := an.Rank
	if r.Width != 12 || len(r.Wires) != 12 || r.Defects != spec.Size {
		t.Fatalf("addr rank of %d wires, width %d, %d defects", len(r.Wires), r.Width, r.Defects)
	}
	for i, w := range r.Wires {
		if w.Wire != i {
			t.Fatalf("row %d is wire %d; rows must be in line order", i, w.Wire)
		}
	}
	// The base campaign result is still recorded.
	if _, _, ok := job.Result(); !ok {
		t.Fatal("rank job lost its campaign result")
	}
}

// TestFig11Shape reproduces the paper's Fig. 11 claims with a rank job on a
// reduced library: centre wires have higher individual coverage than edge
// wires, edge wires have (near) zero — no Gaussian perturbation pushes
// their small nominal coupling past Cth — and cumulative coverage is
// monotone and (near) complete.
func TestFig11Shape(t *testing.T) {
	job, err := New(Config{Workers: 4}).Submit(Spec{Type: TypeRank, Bus: "addr", Size: 120, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	an, ok := job.Analysis()
	if !ok {
		t.Fatalf("rank job finished %s: %v", job.Status().State, job.Err())
	}
	pts := an.Rank.Wires
	if len(pts) != 12 {
		t.Fatalf("series length = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Cumulative < pts[i-1].Cumulative {
			t.Fatalf("cumulative coverage not monotone at wire %d", i)
		}
	}
	centre := (pts[5].Individual + pts[6].Individual) / 2
	edge := (pts[0].Individual + pts[11].Individual) / 2
	if centre <= edge {
		t.Errorf("centre coverage %.3f not above edge %.3f", centre, edge)
	}
	if pts[0].Individual > 0.05 {
		t.Errorf("edge wire 0 individual coverage %.3f, expected near zero", pts[0].Individual)
	}
	if final := pts[len(pts)-1].Cumulative; final < 0.95 {
		t.Errorf("final cumulative coverage = %.3f, want near-complete", final)
	}
}

func TestJobTypeValidation(t *testing.T) {
	m := New(Config{Workers: 1})
	bad := smallSpec()
	bad.Type = "optimize"
	if _, err := m.Submit(bad); err == nil {
		t.Error("unknown type accepted")
	}
	sig := smallSpec()
	sig.Signature = []string{"dr[3]/fwd"}
	if _, err := m.Submit(sig); err == nil {
		t.Error("signature on campaign job accepted")
	}
	inline := smallSpec()
	inline.Type = TypeMinimize
	plan, err := SpecPlan(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	inline.Plan = buf.Bytes()
	if _, err := m.Submit(inline); err == nil {
		t.Error("minimize with inline plan accepted")
	}
}

func TestWatchCarriesTypeAndPhase(t *testing.T) {
	m := New(Config{Workers: 4})
	spec := smallSpec()
	spec.Type = TypeMinimize
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := job.Subscribe()
	defer cancel()
	phases := make(map[string]bool)
	var last Progress
	for p := range events {
		if p.State == Running || p.State.Terminal() {
			if p.Type != TypeMinimize {
				t.Fatalf("progress type %q, want %q (%+v)", p.Type, TypeMinimize, p)
			}
		}
		if p.Phase != "" {
			phases[p.Phase] = true
		}
		last = p
		if p.State.Terminal() {
			break
		}
	}
	if last.State != Done {
		t.Fatalf("terminal state %s: %v", last.State, job.Err())
	}
	// The subscription channel has latest-value semantics, so intermediate
	// phases can be skipped under load; the terminal snapshot of a minimize
	// job always carries the verify phase.
	if last.Phase != PhaseVerify {
		t.Fatalf("final phase %q, want %q", last.Phase, PhaseVerify)
	}
	if !phases[PhaseSimulate] && !phases[PhaseAnalyze] && !phases[PhaseVerify] {
		t.Fatalf("no phases observed: %v", phases)
	}
}

func TestHTTPDiagnoseResultRendering(t *testing.T) {
	m, ts := newTestServer(t, 4)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns",
		`{"bus":"addr","size":60,"seed":1,"target_only":true,"type":"rank"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	waitDoneHTTP(t, m, st.ID)
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/result", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", resp.StatusCode, body)
	}
	var r report.RankJSON
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("result is not a rank document: %v\n%s", err, body)
	}
	if r.Bus != "addr" || len(r.Wires) != 12 {
		t.Fatalf("rank document %s", body)
	}
}
