package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func newTestServer(t *testing.T, workers int) (*Manager, *httptest.Server) {
	t.Helper()
	m := New(Config{Workers: workers})
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(ts.Close)
	return m, ts
}

func doJSON(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func submitSmall(t *testing.T, ts *httptest.Server) Status {
	t.Helper()
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns",
		`{"bus":"addr","size":60,"seed":1,"target_only":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State == "" {
		t.Fatalf("submit returned incomplete status: %s", body)
	}
	return st
}

func waitDoneHTTP(t *testing.T, m *Manager, id string) {
	t.Helper()
	job, ok := m.Get(id)
	if !ok {
		t.Fatalf("job %s not in manager", id)
	}
	waitDone(t, job)
}

func TestHTTPSubmitStatusResult(t *testing.T) {
	m, ts := newTestServer(t, 4)
	st := submitSmall(t, ts)
	waitDoneHTTP(t, m, st.ID)

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d: %s", resp.StatusCode, body)
	}
	var got Status
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != Done || got.Progress.Done != got.Progress.Total {
		t.Fatalf("status after completion: %+v", got)
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/result", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", resp.StatusCode, body)
	}
	// The HTTP result must be byte-identical to rendering the direct run.
	direct, width := directResult(t, Spec{Bus: "addr", Size: 60, Seed: 1, TargetOnly: true})
	want := renderJSON(t, direct, width)
	if !bytes.Equal(body, want) {
		t.Fatalf("HTTP result differs from direct render (%d vs %d bytes)", len(body), len(want))
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d: %s", resp.StatusCode, body)
	}
	var all []Status
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].ID != st.ID {
		t.Fatalf("list = %s", body)
	}
}

func TestHTTPResultBeforeDoneAndUnknownJob(t *testing.T) {
	m, ts := newTestServer(t, 1)
	// A job that is still running: result must 409. The test holds the one
	// pool slot until the request has landed.
	release := holdSlot(m)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns",
		`{"bus":"addr","size":400,"seed":3,"target_only":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/result", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result before done: %d, want 409", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/nope", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status: %d, want 404", resp.StatusCode)
	}
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/campaigns/nope", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job cancel: %d, want 404", resp.StatusCode)
	}
	release()
	waitDoneHTTP(t, m, st.ID)
}

func TestHTTPCancelAndResume(t *testing.T) {
	m, ts := newTestServer(t, 1)
	// The test holds the one pool slot, so the job stays mid-campaign
	// until the cancel has landed.
	release := holdSlot(m)
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns",
		`{"bus":"addr","size":600,"seed":2,"target_only":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	// Let some defects complete so the cancel lands mid-campaign.
	job, _ := m.Get(st.ID)
	runUntil(t, m, job, 1)

	resp, body = doJSON(t, http.MethodDelete, ts.URL+"/v1/campaigns/"+st.ID, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d: %s", resp.StatusCode, body)
	}
	release()
	waitDoneHTTP(t, m, st.ID)
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID, "")
	var got Status
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.State != Canceled {
		t.Fatalf("state after cancel = %s (%s)", got.State, body)
	}
	// Cancelling again conflicts.
	resp, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/campaigns/"+st.ID, "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: %d, want 409", resp.StatusCode)
	}

	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns/"+st.ID+"/resume", "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume: %d: %s", resp.StatusCode, body)
	}
	waitDoneHTTP(t, m, st.ID)
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/campaigns/"+st.ID+"/result", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result after resume: %d: %s", resp.StatusCode, body)
	}
	direct, width := directResult(t, Spec{Bus: "addr", Size: 600, Seed: 2, TargetOnly: true})
	if want := renderJSON(t, direct, width); !bytes.Equal(body, want) {
		t.Fatal("resumed HTTP result differs from direct render")
	}
}

func TestHTTPWatchStreamsMonotoneProgress(t *testing.T) {
	m, ts := newTestServer(t, 2)
	st := submitSmall(t, ts)
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("watch content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	last := Progress{}
	events := 0
	for sc.Scan() {
		var p Progress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		if p.Done < last.Done || p.Detected < last.Detected {
			t.Fatalf("watch regressed: %+v after %+v", p, last)
		}
		last = p
		events++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events == 0 || !last.State.Terminal() {
		t.Fatalf("watch ended after %d events in state %s", events, last.State)
	}
	waitDoneHTTP(t, m, st.ID)
}

// TestHTTPWatchKeepAlive starves a small job of the single-slot pool, which
// the test holds, so its /watch stream goes idle mid-run; the server must
// keep emitting (identical) keep-alive snapshots so proxies do not reap the
// connection. Real progress events always change Done, so two consecutive
// identical events prove a keep-alive was sent.
func TestHTTPWatchKeepAlive(t *testing.T) {
	m := New(Config{Workers: 1})
	srv := NewServer(m)
	srv.KeepAlive = time.Millisecond
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	release := holdSlot(m)
	st := submitSmall(t, ts)

	watch, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	defer watch.Body.Close()
	sc := bufio.NewScanner(watch.Body)
	var last Progress
	keepAlives, events := 0, 0
	for sc.Scan() {
		var p Progress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad event %q: %v", sc.Text(), err)
		}
		if events > 0 && reflect.DeepEqual(p, last) {
			keepAlives++
			if keepAlives >= 3 {
				break // proven; stop streaming
			}
		}
		if p.Done < last.Done {
			t.Fatalf("keep-alive broke monotonicity: %+v after %+v", p, last)
		}
		last = p
		events++
		if p.State.Terminal() {
			break
		}
	}
	if err := sc.Err(); err != nil && keepAlives < 3 {
		t.Fatal(err)
	}
	if keepAlives == 0 {
		t.Fatalf("idle watch stream produced no keep-alive events (%d events, final %+v)", events, last)
	}
	release()
	waitDoneHTTP(t, m, st.ID)
}

func TestHTTPBadSubmissions(t *testing.T) {
	_, ts := newTestServer(t, 1)
	for _, body := range []string{
		``,
		`{`,
		`{"bus":"ctrl"}`,
		`{"bus":"addr","bogus_field":1}`,
		`{"bus":"addr","engine":"warp"}`,
		`{"bus":"addr","engine":"execute"}`,
	} {
		resp, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// The removed screening-only engine is a client error that says why.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns", `{"bus":"addr","engine":"replay"}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "removed") {
		t.Errorf("submit with engine replay: status %d body %q, want 400 saying the mode was removed", resp.StatusCode, body)
	}
}

// TestHTTPOversizedSubmission posts a spec over MaxRequestBytes: the server
// stops reading at the cap and answers 413.
func TestHTTPOversizedSubmission(t *testing.T) {
	m, ts := newTestServer(t, 1)
	body := `{"bus":"addr","plan":"` + strings.Repeat("a", MaxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte submission: status %d, want 413", len(body), resp.StatusCode)
	}
	if n := len(m.Jobs()); n != 0 {
		t.Fatalf("oversized submission registered %d jobs", n)
	}
}

// loopSpec is an address-bus spec whose inline plan is one program that
// loops (nop; jmp) for steps steps.
func loopSpec(steps int) string {
	return fmt.Sprintf(`{"bus":"addr","seed":1,"plan":{"programs":[{"session":0,"entry":16,"step_limit":%d,`+
		`"image":[{"addr":16,"hex":"e08010"}]}]}}`, steps)
}

// appliedSpec is an address-bus spec whose inline parwan plan is one
// looping program applying one gp test on bus, of the given direction and
// width.
func appliedSpec(bus, dir string, width int) string {
	return fmt.Sprintf(`{"bus":"addr","seed":1,"plan":{"programs":[{"session":0,"entry":16,"step_limit":10,`+
		`"response_cells":[512],"image":[{"addr":16,"hex":"e08010"}],"applied":[{"victim":0,"kind":"gp",`+
		`"dir":%q,"width":%d,"bus":%q,"scheme":"data-fwd","order":0,"response_cells":[512]}]}]}}`, dir, width, bus)
}

// TestSpecBounds submits specs just past each request bound: a library one
// defect over MaxLibrarySize, the reproduction that used to panic in
// defects.Generate, a one-program plan looping one step past
// core.MaxPlanSteps, a plan of core.MaxPlanPrograms+1 empty programs,
// cth_factor values that are neither 0 nor above 1, and inline plans whose
// test names a fault outside parwan's universe (a 16-wire fault) or outside
// its own bus (an address-bus fault on the data bus, a reverse fault on the
// unidirectional address bus), and a rank job with an inline plan, which
// has no generation config to build per-line programs from. Submit refuses
// each, POST /v1/campaigns answers 400, and no job is registered. A library of exactly
// MaxLibrarySize defects, a plan of exactly core.MaxPlanSteps steps, a plan
// whose test is a fault of its own bus, and cth_factor 0 and 1.55 are still
// valid specs.
func TestSpecBounds(t *testing.T) {
	m, ts := newTestServer(t, 1)
	for name, body := range map[string]string{
		"size":         fmt.Sprintf(`{"bus":"addr","seed":1,"size":%d}`, MaxLibrarySize+1),
		"size 2^60":    `{"bus":"addr","seed":1,"size":1152921504606846976}`,
		"steps":        loopSpec(core.MaxPlanSteps + 1),
		"programs":     `{"bus":"addr","seed":1,"plan":{"programs":[` + strings.Repeat(`{},`, core.MaxPlanPrograms) + `{}]}}`,
		"cth -1":       `{"bus":"addr","seed":1,"cth_factor":-1}`,
		"cth 0.5":      `{"bus":"addr","seed":1,"cth_factor":0.5}`,
		"cth 1":        `{"bus":"addr","seed":1,"cth_factor":1}`,
		"width 16":     appliedSpec("data", "fwd", 16),
		"addr on data": appliedSpec("data", "fwd", 12),
		"rev on addr":  appliedSpec("addr", "rev", 12),
		"signature":    `{"type":"diagnose","bus":"addr","size":50,"seed":1,"signature":["bogus"]}`,
		"signature @W": `{"type":"diagnose","bus":"addr","size":50,"seed":1,"signature":["dr[3]/fwd","dr[13]/fwd@12"]}`,
		"rank plan":    `{"type":"rank",` + appliedSpec("addr", "fwd", 12)[1:],
	} {
		var spec Spec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("%s: Submit accepted the spec", name)
		}
		if resp, msg := doJSON(t, http.MethodPost, ts.URL+"/v1/campaigns", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST /v1/campaigns status %d (%s), want 400", name, resp.StatusCode, msg)
		}
	}
	if n := len(m.Jobs()); n != 0 {
		t.Fatalf("specs past the bounds registered %d jobs", n)
	}
	if err := (Spec{Bus: "addr", Seed: 1, Size: MaxLibrarySize}).Validate(); err != nil {
		t.Errorf("a library at the cap is refused: %v", err)
	}
	var atCap Spec
	if err := json.Unmarshal([]byte(loopSpec(core.MaxPlanSteps)), &atCap); err != nil {
		t.Fatal(err)
	}
	if err := atCap.Validate(); err != nil {
		t.Errorf("a plan at the step cap is refused: %v", err)
	}
	for _, body := range []string{appliedSpec("data", "rev", 8), appliedSpec("addr", "fwd", 12)} {
		var own Spec
		if err := json.Unmarshal([]byte(body), &own); err != nil {
			t.Fatal(err)
		}
		if err := own.Validate(); err != nil {
			t.Errorf("a plan whose test is a fault of its own bus is refused: %v", err)
		}
	}
	for _, cth := range []float64{0, 1.55} {
		if err := (Spec{Bus: "addr", Seed: 1, CthFactor: cth}).Validate(); err != nil {
			t.Errorf("cth_factor %g is refused: %v", cth, err)
		}
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	m, ts := newTestServer(t, 2)
	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz is not JSON: %q: %v", body, err)
	}
	if h.Status != "ok" {
		t.Fatalf("healthz status %q, want ok", h.Status)
	}
	if h.Role != "standalone" {
		t.Fatalf("healthz role %q, want standalone (the NewServer default)", h.Role)
	}
	if h.UptimeSeconds < 0 {
		t.Fatalf("healthz uptime %g is negative", h.UptimeSeconds)
	}
	if h.GoVersion == "" || h.Version == "" {
		t.Fatalf("healthz missing build info: %+v", h)
	}
	st := submitSmall(t, ts)
	waitDoneHTTP(t, m, st.ID)
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"xtalkd_jobs_submitted_total 1",
		"xtalkd_jobs_completed_total 1",
		"xtalkd_defects_simulated_total 60",
		"xtalkd_fleet_shards_served_total 0",
		"xtalkd_golden_cache_misses_total 1",
		"xtalkd_workers 2",
		"xtalkd_engine_batch_screened_total ",
		"xtalkd_engine_fallbacks_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
	for _, gone := range []string{"xtalkd_engine_replay_hits_total", "xtalkd_engine_screened_total", "xtalkd_channel_memo_",
		"xtalkd_engine_executes_total", `tier="execute"`} {
		if strings.Contains(text, gone) {
			t.Errorf("metrics still expose the removed %s family", gone)
		}
	}
	// The default engine resolves every defect by the screening sweep or by
	// resumed execution, so the two counters sum to the defect count.
	if got := metricValue(t, text, "xtalkd_engine_batch_screened_total") +
		metricValue(t, text, "xtalkd_engine_fallbacks_total"); got != 60 {
		t.Errorf("batch screened + fallbacks = %d, want 60:\n%s", got, text)
	}
	// Resumed defects execute instructions, and the count is exported.
	if metricValue(t, text, "xtalkd_engine_fallbacks_total") > 0 &&
		metricValue(t, text, "xtalkd_engine_executed_steps_total") <= 0 {
		t.Errorf("defects resumed but no executed steps counted:\n%s", text)
	}
}

// metricValue extracts one counter from the text exposition.
func metricValue(t *testing.T, text, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, text)
	return 0
}
