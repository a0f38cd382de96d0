package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/maf"
	"repro/internal/sim"
	"repro/internal/target"
)

// corruptingWorker serves shards with a real worker but replaces the first
// outcome's detection set with bit 128, past parwan's 112 faults.
func corruptingWorker(t *testing.T) *httptest.Server {
	t.Helper()
	inner := NewWorker(campaign.New(campaign.Config{}))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var resp ShardResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || len(resp.Outcomes) == 0 {
			t.Errorf("the wrapped worker answered %d: %s", rec.Code, rec.Body.Bytes())
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		if err := json.Unmarshal([]byte(`[0,0,1]`), &resp.Outcomes[0].DetectedBy); err != nil {
			t.Error(err)
		}
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestShardFaultsOutsideUniverseRetried: a shard response whose detection
// set names a fault outside the spec's universe is handled like a
// misshapen range. Next to an honest worker the shard is retried there and
// the campaign's bytes equal a single-node run; alone, the campaign fails
// after its attempts, naming the stray bit.
func TestShardFaultsOutsideUniverseRetried(t *testing.T) {
	spec := campaign.Spec{Bus: "addr", Size: 60, Seed: 3, TargetOnly: true}
	coord, _ := startWorkers(t, 1)
	bad := corruptingWorker(t)
	coord.Register(bad.URL)
	got, fs := fleetJSON(t, coord, spec, 4)
	if want := singleNodeJSON(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("fleet campaign with a corrupting worker renders %d bytes, single node %d", len(got), len(want))
	}
	if fs.Retries == 0 {
		t.Error("the corrupting worker's shards were not retried")
	}

	alone := NewCoordinator(CoordinatorConfig{Backoff: time.Millisecond})
	alone.Register(corruptingWorker(t).URL)
	_, _, _, err := alone.RunCampaign(context.Background(), spec, 1)
	if err == nil || !strings.Contains(err.Error(), "bit 128") {
		t.Fatalf("a campaign served only by the corrupting worker: err = %v, want a refusal of bit 128", err)
	}
}

// FuzzShardResponse feeds arbitrary bytes to the coordinator's shard
// response decoder: it never panics, and a response it accepts covers the
// assigned range with every detection set bound to parwan's universe and
// inside it.
func FuzzShardResponse(f *testing.F) {
	u, err := target.FaultUniverse(target.Parwan())
	if err != nil {
		f.Fatal(err)
	}
	var set maf.Set
	set.Add(u, 0)
	set.Add(u, u.Len()-1)
	good, err := json.Marshal(ShardResponse{Start: 5, Outcomes: []sim.Outcome{
		{DefectID: 5, Detected: true, DetectedBy: set, Activations: 3},
		{DefectID: 6, Replayed: true},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, 5, uint8(2))
	f.Add(bytes.Replace(good, []byte(`"DetectedBy":[1`), []byte(`"DetectedBy":[0,0,1`), 1), 5, uint8(2))
	f.Add([]byte(`{"start":0,"outcomes":[{"DetectedBy":[1,2,3,4,5]}]}`), 0, uint8(1))
	f.Add([]byte(`{"start":0,"outcomes":[{"DetectedBy":null},{"DetectedBy":[]}]}`), 0, uint8(2))
	f.Add([]byte(`{"start":0,"outcomes":[{"DetectedBy":"x"}]}`), 0, uint8(1))
	f.Add([]byte(`{"start":0,"outcomes":[{"DetectedBy":[-1]}]}`), 0, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, start int, n uint8) {
		sh := Shard{Start: start, End: start + int(n)}
		resp, err := decodeShardResponse(bytes.NewReader(data), sh, u)
		if err != nil {
			return
		}
		if resp.Start != sh.Start || len(resp.Outcomes) != sh.Len() {
			t.Fatalf("accepted a response covering [%d, %d) for [%d, %d)",
				resp.Start, resp.Start+len(resp.Outcomes), sh.Start, sh.End)
		}
		for i, o := range resp.Outcomes {
			s := o.DetectedBy
			if s.Next(u.Len()) >= 0 {
				t.Fatalf("outcome %d: accepted bit %d past the universe", i, s.Next(u.Len()))
			}
			if s != (maf.Set{}) && s.Universe() != u {
				t.Fatalf("outcome %d: a non-empty set left unbound", i)
			}
			s.Names() // names every bit without indexing past the universe
		}
	})
}
