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
	if r.Width != 12 || len(r.Wires) != 12 {
		t.Fatalf("addr ranking %d wires, width %d", len(r.Wires), r.Width)
	}
	for i := 1; i < len(r.Wires); i++ {
		if r.Wires[i].Detected > r.Wires[i-1].Detected {
			t.Fatalf("ranking not descending at %d: %+v", i, r.Wires)
		}
	}
	// Fig. 11 shape: the side wires (one neighbour each) trail the top wire.
	top := r.Wires[0]
	if top.Wire == 0 || top.Wire == r.Width-1 {
		t.Fatalf("side wire %d ranked first", top.Wire)
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
