package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/parwan"
	"repro/internal/report"
	"repro/internal/sim"
)

// startWorkers spins up n in-process fleet workers (each with its own
// manager, as `xtalkd -role worker` would) and registers them with a fresh
// coordinator configured for fast test retries.
func startWorkers(t *testing.T, n int) (*Coordinator, []*httptest.Server) {
	t.Helper()
	coord := NewCoordinator(CoordinatorConfig{Backoff: 5 * time.Millisecond})
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		ts := httptest.NewServer(NewWorker(campaign.New(campaign.Config{})))
		t.Cleanup(ts.Close)
		servers[i] = ts
		coord.Register(ts.URL)
	}
	return coord, servers
}

// resolve resolves a spec the way a worker does.
func resolve(t *testing.T, spec campaign.Spec) *campaign.Resolved {
	t.Helper()
	r, err := campaign.Resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// singleNodeJSON renders the spec's campaign result from one node through
// the same campaign engine the workers use.
func singleNodeJSON(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	mgr := campaign.New(campaign.Config{})
	n := spec.Normalized()
	outcomes, err := mgr.RunShard(context.Background(), resolve(t, spec), 0, n.Size)
	if err != nil {
		t.Fatal(err)
	}
	width := parwan.AddrBits
	if n.Bus == "data" {
		width = parwan.DataBits
	}
	var buf bytes.Buffer
	if err := report.WriteCampaignJSON(&buf, sim.Aggregate(n.BusID(), outcomes), width); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fleetJSON(t *testing.T, coord *Coordinator, spec campaign.Spec, shards int) ([]byte, FleetStats) {
	t.Helper()
	res, width, fs, err := coord.RunCampaign(context.Background(), spec, shards)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteCampaignJSON(&buf, res, width); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), fs
}

// TestFleetByteIdenticalE5 is the subsystem's acceptance test: the full E5
// campaign sharded across 4 in-process workers renders campaign-result JSON
// byte-identical to a single-node run of the same spec.
func TestFleetByteIdenticalE5(t *testing.T) {
	size := 1000 // the paper's library size
	if testing.Short() {
		size = 120
	}
	spec := campaign.Spec{Bus: "addr", Size: size, Seed: 1}
	coord, _ := startWorkers(t, 4)
	got, fs := fleetJSON(t, coord, spec, 0)
	want := singleNodeJSON(t, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet campaign JSON differs from single-node run (%d vs %d bytes)", len(got), len(want))
	}
	if fs.Shards != 16 { // 4 shards per worker × 4 workers
		t.Fatalf("fleet used %d shards, want 16", fs.Shards)
	}
	t.Logf("4-worker fleet: %d defects, %d shards, %d bytes byte-identical to single node",
		size, fs.Shards, len(got))
}

// TestFleetBatchEngineByteIdentity extends the fleet acceptance to the
// batched screening engine: each worker batches its own shard's sub-library,
// and the merged fleet JSON must match both the fleet's rendering under the
// "auto" spelling (a distinct spec and shard key for the same engine) and a
// single-node batched run — on the paper's E5 campaign and on a wide-bus
// target.
func TestFleetBatchEngineByteIdentity(t *testing.T) {
	size := 1000 // the paper's library size
	if testing.Short() {
		size = 120
	}
	coord, _ := startWorkers(t, 3)

	batchSpec := campaign.Spec{Bus: "addr", Size: size, Seed: 1, Engine: "batch"}
	autoSpec := batchSpec
	autoSpec.Engine = "auto"
	batch, _ := fleetJSON(t, coord, batchSpec, 0)
	auto, _ := fleetJSON(t, coord, autoSpec, 0)
	if !bytes.Equal(batch, auto) {
		t.Fatalf("fleet batch JSON differs from fleet auto (%d vs %d bytes)", len(batch), len(auto))
	}
	if single := singleNodeJSON(t, batchSpec); !bytes.Equal(batch, single) {
		t.Fatalf("fleet batch JSON differs from single-node batch run (%d vs %d bytes)", len(batch), len(single))
	}

	wideBatch := campaign.Spec{Target: "widebus32", Bus: "bus", Size: 160, Seed: 9, Engine: "batch"}
	wideAuto := wideBatch
	wideAuto.Engine = "auto"
	wb, _ := fleetJSON(t, coord, wideBatch, 0)
	wa, _ := fleetJSON(t, coord, wideAuto, 0)
	if !bytes.Equal(wb, wa) {
		t.Fatalf("widebus fleet batch JSON differs from auto (%d vs %d bytes)", len(wb), len(wa))
	}
	t.Logf("fleet batch: %d E5 defects + 160 widebus defects byte-identical across engines", size)
}

// TestFleetWorkerDeathMidCampaign kills one of three workers after it
// serves its first shard; the coordinator must retry the lost shards on the
// survivors and still produce the exact single-node bytes.
func TestFleetWorkerDeathMidCampaign(t *testing.T) {
	spec := campaign.Spec{Bus: "addr", Size: 240, Seed: 5, TargetOnly: true}
	coord, _ := startWorkers(t, 2)

	// A third worker that dies right after its first shard response reaches
	// the coordinator.
	var victimSrv atomic.Pointer[httptest.Server]
	var served atomic.Int32
	inner := NewWorker(campaign.New(campaign.Config{}))
	victim := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		if served.Add(1) == 1 {
			if s := victimSrv.Load(); s != nil {
				go s.CloseClientConnections()
				go s.Close()
			}
		}
	}))
	victimSrv.Store(victim)
	t.Cleanup(victim.Close)
	coord.Register(victim.URL)

	got, fs := fleetJSON(t, coord, spec, 12)
	want := singleNodeJSON(t, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet campaign JSON differs from single-node run after worker death (%d vs %d bytes)",
			len(got), len(want))
	}
	if fs.Retries == 0 {
		t.Fatal("worker death produced no shard retries")
	}
	for _, w := range coord.FleetStatus().Workers {
		if w.URL == victim.URL && w.Alive {
			t.Fatalf("dead worker %s still marked alive", w.URL)
		}
	}
	t.Logf("3-worker fleet survived a mid-campaign worker loss: %d shards, %d retries, bytes identical",
		fs.Shards, fs.Retries)
}

func TestFleetNoWorkers(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{})
	_, _, _, err := coord.RunCampaign(context.Background(), campaign.Spec{Bus: "addr", Size: 10, Seed: 1}, 0)
	if err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("expected a no-live-workers error, got %v", err)
	}
}

func TestWorkerRejectsShardKeyMismatch(t *testing.T) {
	ts := httptest.NewServer(NewWorker(campaign.New(campaign.Config{})))
	defer ts.Close()
	body, _ := json.Marshal(ShardRequest{
		Spec:   campaign.Spec{Bus: "addr", Size: 20, Seed: 1, TargetOnly: true},
		Key:    "not-the-real-key",
		Shards: 2,
		Start:  0,
		End:    10,
	})
	resp, err := http.Post(ts.URL+"/v1/fleet/shards", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched shard key got status %d, want %d", resp.StatusCode, http.StatusConflict)
	}
}

// TestWorkerRejectsInvalidShardSpec checks that a spec naming a bus the
// target lacks is a client error whether or not the request carries a key:
// it must neither derive a key (409) nor fail inside the shard run (500).
func TestWorkerRejectsInvalidShardSpec(t *testing.T) {
	ts := httptest.NewServer(NewWorker(campaign.New(campaign.Config{})))
	defer ts.Close()
	for _, key := range []string{"", "some-key"} {
		body, _ := json.Marshal(ShardRequest{
			Spec:   campaign.Spec{Bus: "nope", Size: 20, Seed: 1},
			Key:    key,
			Shards: 2,
			Start:  0,
			End:    10,
		})
		resp, err := http.Post(ts.URL+"/v1/fleet/shards", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad bus with key %q got status %d, want %d", key, resp.StatusCode, http.StatusBadRequest)
		}
	}
}

// TestOversizedRequestBodies posts a body over campaign.MaxRequestBytes to
// the worker's shard endpoint and to the coordinator's job endpoint: both
// stop reading at the cap and answer 413.
func TestOversizedRequestBodies(t *testing.T) {
	coord, servers := startWorkers(t, 1)
	cs := serveCoordinator(t, coord)
	plan := `"plan":"` + strings.Repeat("a", campaign.MaxRequestBytes) + `"`
	for url, body := range map[string]string{
		servers[0].URL + "/v1/fleet/shards": `{"spec":{"bus":"addr",` + plan + `}}`,
		cs.URL + "/v1/campaigns":            `{"bus":"addr",` + plan + `}`,
	} {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %d bytes: status %d, want 413", url, len(body), resp.StatusCode)
		}
	}
	snap := coord.Obs().Reg.Snapshot()
	jobs, _ := snap.Value("xtalkd_jobs_submitted_total", "")
	campaigns, _ := snap.Value("xtalkd_fleet_campaigns_total", "")
	if jobs != 0 || campaigns != 0 {
		t.Errorf("an oversized request submitted %g jobs and ran %g campaigns", jobs, campaigns)
	}
}

// TestSpecBoundsOnFleetRoles submits specs past the library-size, plan and
// cth_factor bounds, one naming the removed execute engine, inline plans
// whose test names a fault outside parwan's universe or its own bus, and a
// rank job with an inline plan, to a fleet-backed manager, the
// coordinator's job endpoint and a worker's shard endpoint: Submit refuses
// them and both endpoints answer 400 without running anything.
func TestSpecBoundsOnFleetRoles(t *testing.T) {
	worker := campaign.New(campaign.Config{})
	ws := httptest.NewServer(NewWorker(worker))
	t.Cleanup(ws.Close)
	coord := NewCoordinator(CoordinatorConfig{Backoff: 5 * time.Millisecond})
	coord.Register(ws.URL)
	cs := serveCoordinator(t, coord)
	m := coord.NewManager(campaign.Config{}, 0)
	loop := `{"programs":[{"session":0,"entry":16,"step_limit":%d,"image":[{"addr":16,"hex":"e08010"}]}]}`
	applied := `{"bus":"addr","seed":1,"plan":{"programs":[{"session":0,"entry":16,"step_limit":10,` +
		`"response_cells":[512],"image":[{"addr":16,"hex":"e08010"}],"applied":[{"victim":0,"kind":"gp",` +
		`"dir":%q,"width":%d,"bus":%q,"scheme":"data-fwd","order":0,"response_cells":[512]}]}]}}`
	for name, spec := range map[string]string{
		"size":         fmt.Sprintf(`{"bus":"addr","seed":1,"size":%d}`, campaign.MaxLibrarySize+1),
		"size 2^60":    `{"bus":"addr","seed":1,"size":1152921504606846976}`,
		"steps":        fmt.Sprintf(`{"bus":"addr","seed":1,"plan":`+loop+`}`, core.MaxPlanSteps+1),
		"programs":     `{"bus":"addr","seed":1,"plan":{"programs":[` + strings.Repeat(`{},`, core.MaxPlanPrograms) + `{}]}}`,
		"cth -1":       `{"bus":"addr","seed":1,"cth_factor":-1}`,
		"cth 0.5":      `{"bus":"addr","seed":1,"cth_factor":0.5}`,
		"cth 1":        `{"bus":"addr","seed":1,"cth_factor":1}`,
		"execute":      `{"bus":"addr","seed":1,"engine":"execute"}`,
		"width 16":     fmt.Sprintf(applied, "fwd", 16, "data"),
		"addr on data": fmt.Sprintf(applied, "fwd", 12, "data"),
		"rev on addr":  fmt.Sprintf(applied, "rev", 12, "addr"),
		"signature":    `{"type":"diagnose","bus":"addr","size":50,"seed":1,"signature":["bogus"]}`,
		"signature @W": `{"type":"diagnose","bus":"addr","size":50,"seed":1,"signature":["dr[3]/fwd","dr[13]/fwd@12"]}`,
		"rank plan":    `{"type":"rank",` + fmt.Sprintf(applied, "fwd", 12, "addr")[1:],
	} {
		var s campaign.Spec
		if err := json.Unmarshal([]byte(spec), &s); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Submit(s); err == nil {
			t.Errorf("%s: a fleet-backed manager accepted the spec", name)
		}
		for url, body := range map[string]string{
			cs.URL + "/v1/campaigns":    spec,
			ws.URL + "/v1/fleet/shards": `{"spec":` + spec + `,"start":0,"end":1}`,
		} {
			resp, err := http.Post(url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: POST %s status %d, want 400", name, url, resp.StatusCode)
			}
		}
	}
	snap := coord.Obs().Reg.Snapshot()
	jobs, _ := snap.Value("xtalkd_jobs_submitted_total", "")
	campaigns, _ := snap.Value("xtalkd_fleet_campaigns_total", "")
	if jobs != 0 || campaigns != 0 {
		t.Errorf("specs past the bounds submitted %g jobs and ran %g campaigns", jobs, campaigns)
	}
	snap = worker.Obs().Reg.Snapshot()
	shards, _ := snap.Value("xtalkd_fleet_shards_served_total", "")
	defects, _ := snap.Value("xtalkd_defects_simulated_total", "")
	if shards != 0 || defects != 0 {
		t.Errorf("specs past the bounds ran %g shards and %g defects on the worker", shards, defects)
	}
}

// TestFleetPlanGeneratedOncePerNode runs two 8-shard campaigns of one spec
// over 2 workers: each worker generates the plan for its first shard only,
// and the coordinator for its first campaign only. Shards go out one at a
// time, since two shards missing on one worker at once would both generate.
func TestFleetPlanGeneratedOncePerNode(t *testing.T) {
	spec := campaign.Spec{Bus: "addr", Size: 80, Seed: 4, TargetOnly: true}
	coord := NewCoordinator(CoordinatorConfig{MaxInFlight: 1, Backoff: 5 * time.Millisecond})
	mgrs := []*campaign.Manager{campaign.New(campaign.Config{}), campaign.New(campaign.Config{})}
	for _, m := range mgrs {
		ts := httptest.NewServer(NewWorker(m))
		t.Cleanup(ts.Close)
		coord.Register(ts.URL)
	}
	want := singleNodeJSON(t, spec)
	for run := 0; run < 2; run++ {
		got, fs := fleetJSON(t, coord, spec, 8)
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d: fleet campaign JSON differs from single-node run", run)
		}
		if fs.Shards != 8 {
			t.Fatalf("run %d: %d shards, want 8", run, fs.Shards)
		}
	}
	for i, m := range mgrs {
		snap := m.Obs().Reg.Snapshot()
		hits, _ := snap.Value("xtalkd_plan_cache_hits_total", "")
		misses, _ := snap.Value("xtalkd_plan_cache_misses_total", "")
		if hits != 7 || misses != 1 {
			t.Errorf("worker %d: plan cache hits/misses = %g/%g over 8 shards, want 7/1", i, hits, misses)
		}
	}
	snap := coord.Obs().Reg.Snapshot()
	hits, _ := snap.Value("xtalkd_fleet_plan_cache_hits_total", "")
	misses, _ := snap.Value("xtalkd_fleet_plan_cache_misses_total", "")
	if hits != 1 || misses != 1 {
		t.Errorf("coordinator plan cache hits/misses = %g/%g over 2 campaigns, want 1/1", hits, misses)
	}
}

func TestHeartbeatExpiryAndRevival(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{HeartbeatTTL: 30 * time.Millisecond})
	coord.Register("http://w1")
	if n := coord.LiveWorkers(); n != 1 {
		t.Fatalf("live workers = %d, want 1", n)
	}
	time.Sleep(60 * time.Millisecond)
	if n := coord.LiveWorkers(); n != 0 {
		t.Fatalf("worker did not expire: live = %d", n)
	}
	coord.Register("http://w1") // heartbeat revives it
	if n := coord.LiveWorkers(); n != 1 {
		t.Fatalf("heartbeat did not revive worker: live = %d", n)
	}
}

// serveCoordinator serves coord's HTTP face with the job manager xtalkd
// -role coordinator builds over it.
func serveCoordinator(t *testing.T, coord *Coordinator) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewCoordinatorServer(coord, coord.NewManager(campaign.Config{}, 0)))
	t.Cleanup(ts.Close)
	return ts
}

// submit posts a spec body to a job API and returns the job ID.
func submit(t *testing.T, base, body string) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st campaign.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s: status %d (%s)", body, resp.StatusCode, st.Error)
	}
	return st.ID
}

// finish watches a job to its terminal state and returns its status.
func finish(t *testing.T, base, id string) campaign.Status {
	t.Helper()
	resp, err := http.Get(base + "/v1/campaigns/" + id + "/watch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Get(base + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st campaign.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// get fetches a path and returns its status code and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestCoordinatorServerEndToEnd(t *testing.T) {
	spec := campaign.Spec{Bus: "data", Size: 80, Seed: 9, TargetOnly: true}
	coord, _ := startWorkers(t, 2)
	cs := serveCoordinator(t, coord)

	// The registry, as /fleet/status serves it.
	_, body := get(t, cs.URL+"/fleet/status")
	var fs FleetStatus
	if err := json.Unmarshal(body, &fs); err != nil {
		t.Fatal(err)
	}
	if len(fs.Workers) != 2 {
		t.Fatalf("fleet status lists %d workers, want 2", len(fs.Workers))
	}

	// A job on the coordinator runs its campaign on the fleet: its result
	// must be the exact single-node campaign JSON.
	specJSON, _ := json.Marshal(spec)
	id := submit(t, cs.URL, string(specJSON))
	if st := finish(t, cs.URL, id); st.State != campaign.Done {
		t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
	}
	code, got := get(t, cs.URL+"/v1/campaigns/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if want := singleNodeJSON(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("coordinator job result differs from single-node run (%d vs %d bytes)", len(got), len(want))
	}

	// The synchronous campaign endpoint is gone.
	resp, err := http.Post(cs.URL+"/v1/fleet/campaigns", "application/json",
		strings.NewReader(`{"spec":{"bus":"addr","size":10,"seed":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/fleet/campaigns: status %d, want 404 or 405", resp.StatusCode)
	}

	// Registration endpoint + metrics exposition. A registration is
	// answered 200 with no body, and the registry is read from
	// /fleet/status only.
	resp, err = http.Post(cs.URL+"/v1/fleet/workers", "application/json",
		strings.NewReader(`{"url":"http://late-worker"}`))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(reply) != 0 {
		t.Errorf("registration: status %d with a %d-byte body %q, want 200 with none", resp.StatusCode, len(reply), reply)
	}
	if code, _ := get(t, cs.URL+"/v1/fleet/workers"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/fleet/workers: status %d, want 405", code)
	}
	_, metrics := get(t, cs.URL+"/metrics")
	for _, want := range []string{
		"xtalkd_fleet_workers 3",
		"xtalkd_fleet_campaigns_total 1",
		"xtalkd_fleet_shards_dispatched_total 8", // 4 shards per worker × 2 workers
		"xtalkd_fleet_defects_merged_total 80",
		"xtalkd_jobs_completed_total 1",
	} {
		if !bytes.Contains(metrics, []byte(want)) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// An invalid spec is refused before any dispatch; a fleet failure fails
	// the job.
	for _, body := range []string{
		`{"bus":"ctrl","size":10,"seed":1}`,
		`{"bus":"addr","size":10,"seed":1,"engine":"replay"}`,
		`{"bus":"addr","size":10,"seed":1,"engine":"execute"}`,
	} {
		resp, err := http.Post(cs.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want %d", body, resp.StatusCode, http.StatusBadRequest)
		}
	}
	if n, _ := coord.Obs().Reg.Snapshot().Value("xtalkd_fleet_campaigns_total", ""); n != 1 {
		t.Errorf("refused specs counted as campaigns: %g campaigns run, want 1", n)
	}
	dead := NewCoordinator(CoordinatorConfig{Backoff: time.Millisecond})
	dead.Register("http://127.0.0.1:1") // nothing listens on port 1
	ds := serveCoordinator(t, dead)
	id = submit(t, ds.URL, `{"bus":"addr","size":10,"seed":1}`)
	if st := finish(t, ds.URL, id); st.State != campaign.Failed || !strings.Contains(st.Error, "shard") {
		t.Errorf("job on a dead fleet finished %s (%q), want failed with a shard error", st.State, st.Error)
	}

	// Coordinator healthz carries its role.
	_, body = get(t, cs.URL+"/healthz")
	var h campaign.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Role != "coordinator" {
		t.Fatalf("coordinator healthz = %+v", h)
	}
}
