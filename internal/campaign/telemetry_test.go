package campaign

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestMetricsRaceDuringJob hammers the snapshot paths — Metrics() and the
// Prometheus exposition — while a job is mutating every counter they read.
// Under -race this proves the counters are synchronized; the old field-per-
// counter implementation read them unlocked and failed here.
func TestMetricsRaceDuringJob(t *testing.T) {
	m := New(Config{Workers: 2})
	job, err := m.Submit(Spec{Bus: "addr", Size: 200, Seed: 4, TargetOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = m.Metrics()
				var buf bytes.Buffer
				m.Obs().Reg.WritePrometheus(&buf)
				_ = m.HealthFacts()
			}
		}()
	}
	waitDone(t, job)
	close(stop)
	wg.Wait()
	if got := series(t, m, "xtalkd_jobs_completed_total"); got != 1 {
		t.Fatalf("xtalkd_jobs_completed_total = %d, want 1", got)
	}
}

// TestMetricsExpositionWellFormed parses the whole /metrics payload with the
// strict exposition parser: HELP/TYPE before samples, no duplicate families,
// no duplicate series, histograms complete.
func TestMetricsExpositionWellFormed(t *testing.T) {
	m, ts := newTestServer(t, 2)
	st := submitSmall(t, ts)
	waitDoneHTTP(t, m, st.ID)

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	if _, err := obs.ParseExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, body)
	}

	// The per-tier simulation latency histogram must attribute every defect
	// of the job: under the auto engine each defect lands in the replay or
	// the fallback tier.
	text := string(body)
	var tiers int64
	for _, tier := range []string{"replay", "fallback"} {
		tiers += metricValue(t, text, `xtalkd_sim_defect_seconds_count{tier="`+tier+`"}`)
	}
	if tiers != 60 {
		t.Fatalf("sim latency histogram covers %d defects, want 60:\n%s", tiers, text)
	}
	if metricValue(t, text, "xtalkd_job_queue_wait_seconds_count") != 1 {
		t.Fatalf("queue wait histogram did not observe the job:\n%s", text)
	}
}

// TestHealthzFacts asserts /healthz carries live registry facts alongside
// the static build info.
func TestHealthzFacts(t *testing.T) {
	m, ts := newTestServer(t, 3)
	st := submitSmall(t, ts)
	waitDoneHTTP(t, m, st.ID)

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Facts == nil {
		t.Fatalf("healthz has no facts: %s", body)
	}
	if got := h.Facts["workers"]; got != float64(3) {
		t.Fatalf("facts workers = %v, want 3 (%s)", got, body)
	}
	if got := h.Facts["jobs"]; got != float64(1) {
		t.Fatalf("facts jobs = %v, want 1 (%s)", got, body)
	}
	byState, ok := h.Facts["jobs_by_state"].(map[string]any)
	if !ok || byState["done"] != float64(1) {
		t.Fatalf("facts jobs_by_state = %v, want done:1 (%s)", h.Facts["jobs_by_state"], body)
	}
}

// TestDebugEventsAndTrace exercises the flight recorder and per-job trace
// endpoints end to end over HTTP.
func TestDebugEventsAndTrace(t *testing.T) {
	m, ts := newTestServer(t, 2)
	st := submitSmall(t, ts)
	waitDoneHTTP(t, m, st.ID)

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/debug/events", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/events: %d", resp.StatusCode)
	}
	var events []obs.Event
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("events not JSON: %q: %v", body, err)
	}
	seen := map[string]bool{}
	for _, ev := range events {
		if ev.Fields["job"] == st.ID {
			seen[ev.Type] = true
		}
	}
	for _, want := range []string{"job.submit", "job.state"} {
		if !seen[want] {
			t.Errorf("flight recorder missing %s for job %s: %s", want, st.ID, body)
		}
	}

	resp, body = doJSON(t, http.MethodGet, ts.URL+"/debug/trace/"+st.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/trace: %d %q", resp.StatusCode, body)
	}
	spans := map[string]obs.SpanRecord{}
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var s obs.SpanRecord
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if s.Trace != st.ID {
			t.Fatalf("span %s in trace %q, want %q", s.Name, s.Trace, st.ID)
		}
		spans[s.Name] = s
	}
	run, ok := spans["job.run"]
	if !ok || run.Parent != "" {
		t.Fatalf("job.run missing or not the trace root: %+v", spans)
	}
	for _, child := range []string{"job.setup", "job.campaign"} {
		s, ok := spans[child]
		if !ok {
			t.Fatalf("trace missing span %s: %+v", child, spans)
		}
		if s.Parent != run.ID {
			t.Errorf("%s parent = %q, want job.run %q", child, s.Parent, run.ID)
		}
	}

	resp, _ = doJSON(t, http.MethodGet, ts.URL+"/debug/trace/nope", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: %d, want 404", resp.StatusCode)
	}
}
