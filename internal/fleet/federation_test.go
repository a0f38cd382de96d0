package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// TestFederationEndpoints drives the tentpole's HTTP surface end to end:
// two workers push their rendered registries through the heartbeat body
// (the real POST /v1/fleet/workers path), and the coordinator serves the
// fleet-wide /metrics (linted, worker-labeled, byte-stable under permuted
// push order), /fleet/status, and /healthz staleness facts.
func TestFederationEndpoints(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{HeartbeatTTL: time.Minute})
	ts := httptest.NewServer(NewCoordinatorServer(coord))
	t.Cleanup(ts.Close)

	// Two worker-shaped registries with real campaign traffic in their
	// counters and histograms.
	spec := campaign.Spec{Bus: "addr", Size: 40, Seed: 3, TargetOnly: true}
	expositions := make(map[string]string, 2)
	urls := make([]string, 0, 2)
	for i := 0; i < 2; i++ {
		mgr := campaign.New(campaign.Config{Workers: 2})
		if _, err := mgr.RunShard(context.Background(), resolve(t, spec), 0, 40); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		mgr.Obs().Reg.WritePrometheus(&buf)
		url := fmt.Sprintf("http://worker-%d:8080", i)
		urls = append(urls, url)
		expositions[url] = buf.String()
	}

	push := func(url string) {
		t.Helper()
		body, err := json.Marshal(RegisterRequest{URL: url, Metrics: expositions[url]})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/fleet/workers", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("register %s: status %d", url, resp.StatusCode)
		}
	}
	scrape := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	push(urls[0])
	push(urls[1])
	first := scrape("/metrics")
	if err := obs.LintExposition(bytes.NewReader(first)); err != nil {
		t.Fatalf("federated /metrics lint: %v\n%s", err, first)
	}
	text := string(first)
	for _, url := range urls {
		for _, family := range []string{
			"xtalkd_fleet_defects_simulated_total",
			"xtalkd_fleet_workers",
			"xtalkd_fleet_jobs_pending",
		} {
			want := fmt.Sprintf("%s{worker=%q}", family, url)
			if !strings.Contains(text, want) {
				t.Errorf("federated metrics missing %s:\n%s", want, text)
			}
		}
	}
	// The coordinator's own families survive the merge alongside the
	// relabeled worker series of the same gauge.
	if !strings.Contains(text, "xtalkd_fleet_workers 2\n") {
		t.Errorf("federated metrics missing the coordinator's own worker gauge:\n%s", text)
	}

	// Byte stability: re-pushing the identical snapshots in the opposite
	// order must render the identical exposition.
	push(urls[1])
	push(urls[0])
	if second := scrape("/metrics"); !bytes.Equal(first, second) {
		t.Fatalf("federated exposition changed under permuted push order:\n--- first ---\n%s\n--- second ---\n%s",
			first, second)
	}

	var st FleetStatus
	if err := json.Unmarshal(scrape("/fleet/status"), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 2 || st.WorkersAlive != 2 {
		t.Fatalf("fleet status = %+v, want 2 alive workers", st)
	}
	for i, w := range st.Workers {
		if w.URL != urls[i] {
			t.Fatalf("worker %d = %s, want %s (sorted by URL)", i, w.URL, urls[i])
		}
		if !w.Scraped || !w.Alive {
			t.Fatalf("worker %s = %+v, want alive and scraped", w.URL, w)
		}
		if w.Slots != 2 {
			t.Fatalf("worker %s slots = %d, want 2 (from its pushed snapshot)", w.URL, w.Slots)
		}
	}
	if st.Alerts == nil {
		t.Fatal("fleet status has no alert summary")
	}

	var h campaign.Health
	if err := json.Unmarshal(scrape("/healthz"), &h); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Facts["alerts"]; !ok {
		t.Fatalf("healthz facts lack the alerts block: %v", h.Facts)
	}
	stale, ok := h.Facts["scrape_staleness_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("healthz facts lack scrape staleness: %v", h.Facts)
	}
	for _, url := range urls {
		if _, ok := stale[url]; !ok {
			t.Fatalf("scrape staleness missing %s: %v", url, stale)
		}
	}

	var alerts struct {
		Alerts  []obs.Alert    `json:"alerts"`
		Summary map[string]int `json:"summary"`
	}
	if err := json.Unmarshal(scrape("/alerts"), &alerts); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range alerts.Alerts {
		if a.Name == "shard_roundtrip" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/alerts lacks the shard_roundtrip objective: %+v", alerts.Alerts)
	}
}

// TestIngestMetricsErrors pins the failure modes: unregistered workers and
// unparseable payloads are rejected, and a bad push does not clobber the
// previous good snapshot.
func TestIngestMetricsErrors(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{HeartbeatTTL: time.Minute})
	if err := coord.IngestMetrics("http://nobody:1", "# HELP x x\n# TYPE x counter\nx 1\n"); err == nil {
		t.Fatal("ingest for an unregistered worker succeeded")
	}
	coord.Register("http://w:1")
	good := "# HELP xtalkd_thing_total t.\n# TYPE xtalkd_thing_total counter\nxtalkd_thing_total 5\n"
	if err := coord.IngestMetrics("http://w:1", good); err != nil {
		t.Fatal(err)
	}
	if err := coord.IngestMetrics("http://w:1", "not an exposition {{{"); err == nil {
		t.Fatal("unparseable exposition ingested without error")
	}
	snaps := coord.workerSnapshots()
	if v, ok := snaps["http://w:1"].Value("xtalkd_thing_total", ""); !ok || v != 5 {
		t.Fatalf("bad push clobbered the previous snapshot: %v %v", v, ok)
	}
}
