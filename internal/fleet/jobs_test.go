package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// runJob submits the spec to m and waits for the job to finish cleanly.
func runJob(t *testing.T, m *campaign.Manager, spec campaign.Spec) *campaign.Job {
	t.Helper()
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", job.ID())
	}
	if st := job.Status(); st.State != campaign.Done {
		t.Fatalf("job %s finished %s: %s", job.ID(), st.State, st.Error)
	}
	return job
}

// TestFleetJobProgressMatchesStandalone runs a campaign job and an in-field
// job on a manager whose campaigns go to a 2-worker fleet: each must end
// with the progress counters of the same spec run standalone, the engine
// attribution that rides the shard wire in sim.Outcome.Replayed included.
// A full plan detects, and so executes, every library defect; the in-field
// job's partial sub-plans are where the screening sweep clears defects.
func TestFleetJobProgressMatchesStandalone(t *testing.T) {
	coord, _ := startWorkers(t, 2)
	counts := func(p campaign.Progress) [6]int64 {
		return [6]int64{int64(p.Done), int64(p.Total), int64(p.Detected), p.Activations,
			int64(p.ReplayHits), int64(p.Executed)}
	}
	replayed := 0
	for _, spec := range []campaign.Spec{
		{Target: "widebus16", Bus: "bus", Size: 80, Seed: 5},
		{Type: campaign.TypeInfield, Target: "widebus16", Bus: "bus", Size: 80, Seed: 5, MaxSessions: 6, Slices: 3},
	} {
		want := runJob(t, campaign.New(campaign.Config{}), spec).Status().Progress
		got := runJob(t, coord.NewManager(campaign.Config{}, 0), spec).Status().Progress
		if counts(got) != counts(want) {
			t.Fatalf("%s job: fleet progress %+v, standalone %+v", spec.JobType(), got, want)
		}
		replayed += got.ReplayHits
		t.Logf("%s job: done %d/%d, detected %d, %d activations, %d replayed, %d executed", spec.JobType(),
			got.Done, got.Total, got.Detected, got.Activations, got.ReplayHits, got.Executed)
	}
	if replayed == 0 {
		t.Fatal("no job had a defect cleared by the screening sweep; the attribution check is vacuous")
	}
}

// TestCoordinatorJobsMatchStandalone submits every job type to a
// coordinator's job API over 2 workers and the same spec to a standalone
// node's: each coordinator job's /result must be byte-identical to the
// standalone one.
func TestCoordinatorJobsMatchStandalone(t *testing.T) {
	coord, _ := startWorkers(t, 2)
	cs := serveCoordinator(t, coord)
	standalone := httptest.NewServer(campaign.NewServer(campaign.New(campaign.Config{})))
	t.Cleanup(standalone.Close)
	for _, body := range []string{
		`{"bus":"addr","size":60,"seed":2,"target_only":true}`,
		`{"type":"diagnose","target":"widebus16","bus":"bus","size":60,"seed":13,"signature":["dr[3]/fwd"]}`,
		`{"type":"minimize","target":"widebus16","bus":"bus","size":60,"seed":13}`,
		`{"type":"rank","target":"widebus16","bus":"bus","size":60,"seed":13}`,
		`{"type":"infield","bus":"addr","size":60,"seed":3,"slices":4}`,
	} {
		var results [2][]byte
		for i, base := range []string{cs.URL, standalone.URL} {
			id := submit(t, base, body)
			if st := finish(t, base, id); st.State != campaign.Done {
				t.Fatalf("%s on %s: job %s finished %s: %s", body, base, id, st.State, st.Error)
			}
			code, res := get(t, base+"/v1/campaigns/"+id+"/result")
			if code != http.StatusOK {
				t.Fatalf("%s: result status %d", body, code)
			}
			results[i] = res
		}
		if !bytes.Equal(results[0], results[1]) {
			t.Fatalf("%s: coordinator result differs from standalone (%d vs %d bytes)\ncoordinator:\n%s\nstandalone:\n%s",
				body, len(results[0]), len(results[1]), results[0], results[1])
		}
	}
}

// TestCoordinatorJobTrace runs a job on a coordinator and reads its trace
// from the coordinator's /debug/trace/{jobID}: one tree rooted at job.run
// that holds the coordinator's dispatches and the workers' spans, with no
// dangling parent.
func TestCoordinatorJobTrace(t *testing.T) {
	coord, _ := startWorkers(t, 2)
	cs := serveCoordinator(t, coord)
	id := submit(t, cs.URL, `{"bus":"addr","size":60,"seed":2,"target_only":true}`)
	if st := finish(t, cs.URL, id); st.State != campaign.Done {
		t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
	}
	_, body := get(t, cs.URL+"/debug/trace/"+id)
	byID := map[string]obs.SpanRecord{}
	var spans []obs.SpanRecord
	for dec := json.NewDecoder(bytes.NewReader(body)); dec.More(); {
		var s obs.SpanRecord
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	chain := []string{"job.run", "job.campaign", "fleet.campaign", "shard.dispatch", "worker.shard", "shard.execute"}
	depth := map[string]int{}
	for i, name := range chain {
		depth[name] = i
	}
	seen := map[string]int{}
	for _, s := range spans {
		path := []string{s.Name}
		for cur := s; cur.Parent != ""; {
			parent, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %s has dangling parent %s", s.Name, cur.Parent)
			}
			cur = parent
			path = append([]string{cur.Name}, path...)
			if len(path) > len(chain)+1 {
				t.Fatalf("span %s parent chain does not terminate", s.Name)
			}
		}
		if path[0] != "job.run" {
			t.Fatalf("span %s roots at %s, want job.run", s.Name, path[0])
		}
		if d, ok := depth[s.Name]; ok {
			if strings.Join(path, " → ") != strings.Join(chain[:d+1], " → ") {
				t.Errorf("span %s sits at %v, want %v", s.Name, path, chain[:d+1])
			}
			seen[s.Name]++
		}
	}
	for _, name := range chain {
		if seen[name] == 0 {
			t.Errorf("trace of %s has no %s span (%d spans)", id, name, len(spans))
		}
	}
	if seen["job.run"] != 1 || seen["worker.shard"] != 8 {
		t.Errorf("trace holds %d job.run and %d worker.shard spans, want 1 and 8", seen["job.run"], seen["worker.shard"])
	}
}
