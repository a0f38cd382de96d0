package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// TestCoordinatorMetricsRace hammers the coordinator's snapshot paths while
// a distributed campaign is mutating every counter they read; -race proves
// the synchronization.
func TestCoordinatorMetricsRace(t *testing.T) {
	spec := campaign.Spec{Bus: "addr", Size: 120, Seed: 9, TargetOnly: true}
	coord, _ := startWorkers(t, 2)

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
				var buf bytes.Buffer
				coord.Obs().Reg.WritePrometheus(&buf)
				_ = coord.HealthFacts()
			}
		}()
	}
	if _, _, _, err := coord.RunCampaign(context.Background(), spec, 4); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if got, _ := coord.Obs().Reg.Snapshot().Value("xtalkd_fleet_campaigns_total", ""); got != 1 {
		t.Fatalf("xtalkd_fleet_campaigns_total = %g, want 1", got)
	}
}

// TestFleetNestedTrace runs a sharded campaign and asserts the coordinator's
// collector holds the full cross-node trace: worker-side spans shipped back
// in each shard response and ingested under their dispatching span, giving
// the chain fleet.campaign → shard.dispatch → worker.shard → shard.execute.
func TestFleetNestedTrace(t *testing.T) {
	spec := campaign.Spec{Bus: "addr", Size: 120, Seed: 2, TargetOnly: true}
	coord, _ := startWorkers(t, 2)
	_, _, fs, err := coord.RunCampaign(context.Background(), spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fs.TraceID == "" {
		t.Fatal("campaign returned no trace ID")
	}

	spans := coord.Obs().Tracer.Trace(fs.TraceID)
	byID := make(map[string]obs.SpanRecord, len(spans))
	count := map[string]int{}
	for _, s := range spans {
		byID[s.ID] = s
		count[s.Name]++
	}
	if count["fleet.campaign"] != 1 {
		t.Fatalf("trace has %d fleet.campaign roots, want 1 (%v)", count["fleet.campaign"], count)
	}
	if count["shard.dispatch"] != 4 || count["worker.shard"] != 4 || count["shard.execute"] != 4 {
		t.Fatalf("trace spans = %v, want 4 each of shard.dispatch, worker.shard, shard.execute", count)
	}
	// Every span must chain to the fleet.campaign root via recorded parents,
	// across the coordinator→worker process boundary.
	for _, s := range spans {
		hops := 0
		cur := s
		for cur.Parent != "" {
			parent, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %s has dangling parent %s", s.Name, cur.Parent)
			}
			cur = parent
			if hops++; hops > 10 {
				t.Fatalf("span %s parent chain does not terminate", s.Name)
			}
		}
		if cur.Name != "fleet.campaign" {
			t.Fatalf("span %s roots at %s, want fleet.campaign", s.Name, cur.Name)
		}
		wantHops := map[string]int{"fleet.campaign": 0, "shard.dispatch": 1, "worker.shard": 2, "shard.execute": 3}
		if want, ok := wantHops[s.Name]; ok && hops != want {
			t.Errorf("span %s is %d hops from the root, want %d", s.Name, hops, want)
		}
	}
}

// TestCoordinatorServerTelemetryEndpoints covers /healthz facts, /metrics
// exposition parse, and the flight recorder on the coordinator's HTTP face.
func TestCoordinatorServerTelemetryEndpoints(t *testing.T) {
	spec := campaign.Spec{Bus: "addr", Size: 60, Seed: 1, TargetOnly: true}
	coord, _ := startWorkers(t, 2)
	if _, _, _, err := coord.RunCampaign(context.Background(), spec, 2); err != nil {
		t.Fatal(err)
	}
	ts := serveCoordinator(t, coord)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h campaign.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Role != "coordinator" || h.Status != "ok" {
		t.Fatalf("healthz = %+v", h)
	}
	if h.Facts["workers"] != float64(2) || h.Facts["workers_alive"] != float64(2) {
		t.Fatalf("healthz facts = %v, want 2 workers alive", h.Facts)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := obs.ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("coordinator exposition lint: %v\n%s", err, buf.Bytes())
	}
	for _, want := range []string{
		"xtalkd_fleet_campaigns_total 1",
		"xtalkd_fleet_shards_dispatched_total 2",
		"xtalkd_fleet_workers 2",
		"xtalkd_fleet_shard_roundtrip_seconds_count 2",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("coordinator metrics missing %q:\n%s", want, buf.Bytes())
		}
	}

	resp, err = http.Get(ts.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	joins := 0
	for _, ev := range events {
		if ev.Type == "worker.join" {
			joins++
		}
	}
	if joins != 2 {
		t.Fatalf("flight recorder has %d worker.join events, want 2: %+v", joins, events)
	}
}

// TestCrossRoleFamiliesDisjoint proves the campaign and fleet metric
// families never collide: a worker-role process registers both sets in ONE
// registry (manager + shard endpoint share it), and the coordinator's
// families are disjoint from the campaign node's, so a scraper aggregating
// the whole fleet sees each family from exactly one role.
func TestCrossRoleFamiliesDisjoint(t *testing.T) {
	// Shared registry: campaign manager + coordinator in one process must
	// not panic on duplicate registration with conflicting kinds.
	shared := obs.NewTelemetry()
	campaign.New(campaign.Config{Workers: 1, Obs: shared})
	NewCoordinator(CoordinatorConfig{Obs: shared})

	expose := func(tel *obs.Telemetry) map[string]bool {
		var buf bytes.Buffer
		tel.Reg.WritePrometheus(&buf)
		snap, err := obs.ParseExposition(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		fams := make(map[string]bool, len(snap.Families))
		for name := range snap.Families {
			fams[name] = true
		}
		return fams
	}

	campTel := obs.NewTelemetry()
	campaign.New(campaign.Config{Workers: 1, Obs: campTel})
	coordTel := obs.NewTelemetry()
	NewCoordinator(CoordinatorConfig{Obs: coordTel, HeartbeatTTL: time.Second})

	camp, coord := expose(campTel), expose(coordTel)
	if len(camp) == 0 || len(coord) == 0 {
		t.Fatalf("empty family sets: campaign %d, coordinator %d", len(camp), len(coord))
	}
	// Process-level families are registered by the obs layer itself (the
	// telemetry bundle's dropped-events counter and the SLO engine's
	// bookkeeping), so by design every role exposes them; role-owned
	// families must still be disjoint.
	processLevel := func(fam string) bool {
		return strings.HasPrefix(fam, "xtalkd_obs_") || strings.HasPrefix(fam, "xtalkd_slo_")
	}
	for fam := range camp {
		if coord[fam] && !processLevel(fam) {
			t.Errorf("family %s is exposed by both the campaign and the coordinator role", fam)
		}
	}
	// And the shared-process registry exposes the union.
	union := expose(shared)
	for fam := range camp {
		if !union[fam] {
			t.Errorf("worker-role registry missing campaign family %s", fam)
		}
	}
	for fam := range coord {
		if !union[fam] {
			t.Errorf("worker-role registry missing fleet family %s", fam)
		}
	}
}

// TestShardRoundtripObjectiveBound observes round trips on both sides of the
// ~4.2 s objective and checks the burn rate the evaluator derives: the two
// above it are bad, so half of the events burn a 5% budget tenfold.
func TestShardRoundtripObjectiveBound(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	slo := c.Obs().SLO
	now := time.Now()
	slo.Tick(now)
	for _, secs := range []float64{1, 4, 5, 10} {
		c.shardRoundtrip.Observe(secs)
	}
	slo.Tick(now.Add(time.Second))
	for _, a := range slo.Alerts() {
		if a.Name == "shard_roundtrip" {
			if a.FastBurn != 10 {
				t.Fatalf("shard_roundtrip fast burn %v after 2 of 4 round trips above 4.2 s, want 10", a.FastBurn)
			}
			return
		}
	}
	t.Fatal("no shard_roundtrip objective")
}
