package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
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
	ts := serveCoordinator(t, coord)

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
	if _, err := obs.ParseExposition(bytes.NewReader(first)); err != nil {
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

// TestIngestMetricsErrors pins the refusals: an unregistered worker, and
// every heartbeat whose metrics do not parse or would not federate, is
// refused with a 400 (413 for a body over obs.MaxExpositionBytes); the
// previous snapshot stays, and the fleet /metrics still answers 200 with
// text that parses.
func TestIngestMetricsErrors(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{HeartbeatTTL: time.Minute})
	if err := coord.IngestMetrics("http://nobody:1", "# HELP x x\n# TYPE x counter\nx 1\n"); err == nil {
		t.Fatal("ingest for an unregistered worker succeeded")
	}
	ts := serveCoordinator(t, coord)
	push := func(url, metrics string) int {
		t.Helper()
		body, err := json.Marshal(RegisterRequest{URL: url, Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/fleet/workers", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	good := "# HELP xtalkd_thing_total t.\n# TYPE xtalkd_thing_total counter\nxtalkd_thing_total 5\n"
	if code := push("http://w:1", good); code != http.StatusOK {
		t.Fatalf("good push: status %d", code)
	}
	// Another worker's counter makes a gauge of the same name a conflict.
	other := "# HELP xtalkd_x_total x\n# TYPE xtalkd_x_total counter\nxtalkd_x_total 1\n"
	if code := push("http://a:1", other); code != http.StatusOK {
		t.Fatalf("second worker's push: status %d", code)
	}
	check := func(name string, code, want int) {
		t.Helper()
		if code != want {
			t.Errorf("%s: status %d, want %d", name, code, want)
		}
		if v, ok := coord.workerSnapshots()["http://w:1"].Value("xtalkd_thing_total", ""); !ok || v != 5 {
			t.Fatalf("%s: refused push clobbered the previous snapshot: %v %v", name, v, ok)
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: GET /metrics: status %d", name, resp.StatusCode)
		}
		if _, err := obs.ParseExposition(resp.Body); err != nil {
			t.Fatalf("%s: federated /metrics does not parse: %v", name, err)
		}
	}
	for name, metrics := range map[string]string{
		"unparseable":           "not an exposition {{{",
		"help only":             "# HELP xtalkd_evil_total x\n",
		"bare histogram sample": "# HELP h x\n# TYPE h histogram\nh 1\n",
		"hex float":             "# HELP g x\n# TYPE g gauge\ng 0x1p4\n",
		"infinity":              "# HELP g x\n# TYPE g gauge\ng infinity\n",
		"quote in family name":  "# HELP a\"b x\n# TYPE a\"b counter\na\"b 1\n",
		"duplicate label name":  "# HELP g x\n# TYPE g gauge\ng{a=\"1\",a=\"2\"} 1\n",
		"invalid label name":    "# HELP g x\n# TYPE g gauge\ng{a-b=\"1\"} 1\n",
		"reordered duplicate":   "# HELP g x\n# TYPE g gauge\ng{b=\"1\",a=\"2\"} 1\ng{a=\"2\",b=\"1\"} 5\n",
		"count not +Inf bucket": "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"pushed worker label":   "# HELP g x\n# TYPE g gauge\ng{worker=\"evil\"} 1\n",
		"rename collision": "# HELP xtalkd_fleet_x x\n# TYPE xtalkd_fleet_x histogram\n" +
			"xtalkd_fleet_x_bucket{le=\"+Inf\"} 1\nxtalkd_fleet_x_sum 1\nxtalkd_fleet_x_count 1\n" +
			"# HELP xtalkd_x x\n# TYPE xtalkd_x counter\nxtalkd_x 1\n",
		"kind conflict with another worker": "# HELP xtalkd_x_total x\n# TYPE xtalkd_x_total gauge\nxtalkd_x_total 1\n",
		"kind conflict with the coordinator": "# HELP xtalkd_fleet_campaigns_total x\n" +
			"# TYPE xtalkd_fleet_campaigns_total gauge\nxtalkd_fleet_campaigns_total 1\n",
	} {
		check(name, push("http://w:1", metrics), http.StatusBadRequest)
	}
	check("oversized body", push("http://w:1", good+strings.Repeat("\n", obs.MaxExpositionBytes)),
		http.StatusRequestEntityTooLarge)
}

// TestIngestMetricsConcurrentConflict pushes one family as a counter and
// as a gauge from many workers at once: ingests are serialized, so only one
// kind is retained and the fleet /metrics still renders.
func TestIngestMetricsConcurrentConflict(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{HeartbeatTTL: time.Minute})
	kinds := []string{"counter", "gauge", "counter", "gauge", "counter", "gauge", "counter", "gauge"}
	accepted := make([]bool, len(kinds))
	var wg sync.WaitGroup
	for i, kind := range kinds {
		url := fmt.Sprintf("http://w%d:1", i)
		coord.Register(url)
		wg.Add(1)
		go func() {
			defer wg.Done()
			text := "# HELP xtalkd_x_total x\n# TYPE xtalkd_x_total " + kind + "\nxtalkd_x_total 1\n"
			accepted[i] = coord.IngestMetrics(url, text) == nil
		}()
	}
	wg.Wait()
	kept := ""
	for i, ok := range accepted {
		if ok && kept == "" {
			kept = kinds[i]
		}
		if ok && kinds[i] != kept {
			t.Fatalf("both a %s and a %s push of one family were accepted", kept, kinds[i])
		}
	}
	var buf bytes.Buffer
	if err := coord.WriteFederatedMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseExposition(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFederatedMetricsPinned pins the fleet /metrics byte for byte for
// a coordinator that has ingested two workers: the coordinator's own
// families first-hand, worker families relabeled under xtalkd_fleet_* with
// a worker label, integer text passed through, and workers in URL order.
func TestWriteFederatedMetricsPinned(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{HeartbeatTTL: time.Minute})
	for i, url := range []string{"http://w2:1", "http://w1:1"} {
		reg := obs.NewRegistry()
		reg.Counter("xtalkd_defects_simulated_total", "Defect runs simulated.").Add(int64(1000000 * (i + 1)))
		reg.Gauge("xtalkd_workers", "Pool slots.").Set(int64(2 + i))
		reg.Counter("xtalkd_engine_runs_total", "Defect runs by engine tier.",
			obs.Label{Key: "engine", Value: "replay"}).Add(int64(5 + i))
		h := reg.Histogram("xtalkd_job_seconds", "Job wall time.", []float64{0.1, 1})
		h.Observe(0.05 * float64(i+1))
		h.Observe(2)
		var buf bytes.Buffer
		reg.WritePrometheus(&buf)
		coord.Register(url)
		if err := coord.IngestMetrics(url, buf.String()); err != nil {
			t.Fatal(err)
		}
	}
	const want = `# HELP xtalkd_fleet_campaigns_failed_total distributed campaigns that failed
# TYPE xtalkd_fleet_campaigns_failed_total counter
xtalkd_fleet_campaigns_failed_total 0
# HELP xtalkd_fleet_campaigns_total distributed campaigns run
# TYPE xtalkd_fleet_campaigns_total counter
xtalkd_fleet_campaigns_total 0
# HELP xtalkd_fleet_defects_merged_total defect outcomes merged from shards
# TYPE xtalkd_fleet_defects_merged_total counter
xtalkd_fleet_defects_merged_total 0
# HELP xtalkd_fleet_defects_simulated_total Defect runs simulated.
# TYPE xtalkd_fleet_defects_simulated_total counter
xtalkd_fleet_defects_simulated_total{worker="http://w1:1"} 2000000
xtalkd_fleet_defects_simulated_total{worker="http://w2:1"} 1000000
# HELP xtalkd_fleet_engine_runs_total Defect runs by engine tier.
# TYPE xtalkd_fleet_engine_runs_total counter
xtalkd_fleet_engine_runs_total{engine="replay",worker="http://w1:1"} 6
xtalkd_fleet_engine_runs_total{engine="replay",worker="http://w2:1"} 5
# HELP xtalkd_fleet_job_seconds Job wall time.
# TYPE xtalkd_fleet_job_seconds histogram
xtalkd_fleet_job_seconds_bucket{worker="http://w1:1",le="0.1"} 1
xtalkd_fleet_job_seconds_bucket{worker="http://w1:1",le="1"} 1
xtalkd_fleet_job_seconds_bucket{worker="http://w1:1",le="+Inf"} 2
xtalkd_fleet_job_seconds_sum{worker="http://w1:1"} 2.1
xtalkd_fleet_job_seconds_count{worker="http://w1:1"} 2
xtalkd_fleet_job_seconds_bucket{worker="http://w2:1",le="0.1"} 1
xtalkd_fleet_job_seconds_bucket{worker="http://w2:1",le="1"} 1
xtalkd_fleet_job_seconds_bucket{worker="http://w2:1",le="+Inf"} 2
xtalkd_fleet_job_seconds_sum{worker="http://w2:1"} 2.05
xtalkd_fleet_job_seconds_count{worker="http://w2:1"} 2
# HELP xtalkd_fleet_plan_cache_evictions_total self-test plans evicted from the bounded plan cache
# TYPE xtalkd_fleet_plan_cache_evictions_total counter
xtalkd_fleet_plan_cache_evictions_total 0
# HELP xtalkd_fleet_plan_cache_hits_total self-test plan cache hits (plan generation skipped)
# TYPE xtalkd_fleet_plan_cache_hits_total counter
xtalkd_fleet_plan_cache_hits_total 0
# HELP xtalkd_fleet_plan_cache_misses_total self-test plan cache misses (plan generated and hashed)
# TYPE xtalkd_fleet_plan_cache_misses_total counter
xtalkd_fleet_plan_cache_misses_total 0
# HELP xtalkd_fleet_shard_dispatch_seconds one shard's full dispatch including retries and backoff
# TYPE xtalkd_fleet_shard_dispatch_seconds histogram
xtalkd_fleet_shard_dispatch_seconds_bucket{le="1e-06"} 0
xtalkd_fleet_shard_dispatch_seconds_bucket{le="4e-06"} 0
xtalkd_fleet_shard_dispatch_seconds_bucket{le="1.6e-05"} 0
xtalkd_fleet_shard_dispatch_seconds_bucket{le="6.4e-05"} 0
xtalkd_fleet_shard_dispatch_seconds_bucket{le="0.000256"} 0
xtalkd_fleet_shard_dispatch_seconds_bucket{le="0.001024"} 0
xtalkd_fleet_shard_dispatch_seconds_bucket{le="0.004096"} 0
xtalkd_fleet_shard_dispatch_seconds_bucket{le="0.016384"} 0
xtalkd_fleet_shard_dispatch_seconds_bucket{le="0.065536"} 0
xtalkd_fleet_shard_dispatch_seconds_bucket{le="0.262144"} 0
xtalkd_fleet_shard_dispatch_seconds_bucket{le="1.048576"} 0
xtalkd_fleet_shard_dispatch_seconds_bucket{le="4.194304"} 0
xtalkd_fleet_shard_dispatch_seconds_bucket{le="16.777216"} 0
xtalkd_fleet_shard_dispatch_seconds_bucket{le="+Inf"} 0
xtalkd_fleet_shard_dispatch_seconds_sum 0
xtalkd_fleet_shard_dispatch_seconds_count 0
# HELP xtalkd_fleet_shard_retries_total shard attempts retried after a failure
# TYPE xtalkd_fleet_shard_retries_total counter
xtalkd_fleet_shard_retries_total 0
# HELP xtalkd_fleet_shard_roundtrip_seconds one successful shard POST round-trip (excludes retries and backoff)
# TYPE xtalkd_fleet_shard_roundtrip_seconds histogram
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="1e-06"} 0
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="4e-06"} 0
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="1.6e-05"} 0
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="6.4e-05"} 0
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="0.000256"} 0
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="0.001024"} 0
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="0.004096"} 0
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="0.016384"} 0
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="0.065536"} 0
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="0.262144"} 0
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="1.048576"} 0
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="4.194304"} 0
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="16.777216"} 0
xtalkd_fleet_shard_roundtrip_seconds_bucket{le="+Inf"} 0
xtalkd_fleet_shard_roundtrip_seconds_sum 0
xtalkd_fleet_shard_roundtrip_seconds_count 0
# HELP xtalkd_fleet_shards_dispatched_total shard assignments completed by workers
# TYPE xtalkd_fleet_shards_dispatched_total counter
xtalkd_fleet_shards_dispatched_total 0
# HELP xtalkd_fleet_shards_inflight shards currently dispatched and awaiting results
# TYPE xtalkd_fleet_shards_inflight gauge
xtalkd_fleet_shards_inflight 0
# HELP xtalkd_fleet_workers registered workers
# TYPE xtalkd_fleet_workers gauge
xtalkd_fleet_workers 2
xtalkd_fleet_workers{worker="http://w1:1"} 3
xtalkd_fleet_workers{worker="http://w2:1"} 2
# HELP xtalkd_fleet_workers_alive registered workers currently alive
# TYPE xtalkd_fleet_workers_alive gauge
xtalkd_fleet_workers_alive 2
# HELP xtalkd_obs_events_dropped_total Flight-recorder events overwritten because the bounded ring was full.
# TYPE xtalkd_obs_events_dropped_total counter
xtalkd_obs_events_dropped_total 0
# HELP xtalkd_slo_alert_state Alert state per objective: 0 ok, 1 pending, 2 firing, 3 resolved.
# TYPE xtalkd_slo_alert_state gauge
xtalkd_slo_alert_state{objective="shard_roundtrip"} 0
# HELP xtalkd_slo_burn_rate Current burn rate per objective and window (1 = exactly on budget).
# TYPE xtalkd_slo_burn_rate gauge
xtalkd_slo_burn_rate{objective="shard_roundtrip",window="fast"} 0
xtalkd_slo_burn_rate{objective="shard_roundtrip",window="slow"} 0
# HELP xtalkd_slo_evaluations_total SLO evaluation ticks performed.
# TYPE xtalkd_slo_evaluations_total counter
xtalkd_slo_evaluations_total 0
# HELP xtalkd_slo_transitions_total Alert state-machine transitions across all objectives.
# TYPE xtalkd_slo_transitions_total counter
xtalkd_slo_transitions_total 0
`
	var out bytes.Buffer
	if err := coord.WriteFederatedMetrics(&out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Fatalf("federated exposition changed:\n%s", out.String())
	}
}
