// Example fleet_campaign demonstrates the distributed campaign subsystem
// (internal/fleet) end to end, in one process: it starts three fleet worker
// nodes on loopback ports, registers them with a coordinator, runs an
// address-bus defect campaign sharded across the fleet — and kills one
// worker after it serves its first shard, so the coordinator retries the
// lost shards on the survivors. The merged result is then rendered and
// compared byte for byte against a single-node run of the same spec.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/parwan"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	spec := campaign.Spec{Bus: "addr", Size: 240, Seed: 7, TargetOnly: true}

	// Three worker nodes, each with its own campaign manager (own caches,
	// own bounded pool) — exactly what `xtalkd -role worker` serves.
	coord := fleet.NewCoordinator(fleet.CoordinatorConfig{Backoff: 20 * time.Millisecond})
	var victim *http.Server
	var victimShards atomic.Int32
	for i := 0; i < 3; i++ {
		mgr := campaign.New(campaign.Config{})
		handler := http.Handler(fleet.NewWorker(mgr))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := &http.Server{Handler: handler}
		if i == 2 {
			// Worker 3 dies after serving its first shard: the response is
			// written, then the node goes away mid-campaign.
			victim = srv
			inner := handler
			srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				inner.ServeHTTP(w, r)
				if victimShards.Add(1) == 1 {
					fmt.Println("worker 3: served one shard; going down")
					go victim.Close()
				}
			})
		}
		go srv.Serve(ln)
		url := "http://" + ln.Addr().String()
		coord.Register(url)
		fmt.Printf("worker %d: %s\n", i+1, url)
	}

	fmt.Printf("\nfleet campaign: %s bus, %d defects, seed %d\n", spec.Bus, spec.Size, spec.Seed)
	res, width, fs, err := coord.RunCampaign(context.Background(), spec, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged %d shards (%d retries after the worker loss): %d/%d detected (%.1f%% coverage)\n",
		fs.Shards, fs.Retries, res.Detected, res.Total, res.Coverage()*100)
	for _, w := range coord.FleetStatus().Workers {
		fmt.Printf("  %s  alive=%-5v shards=%d failures=%d\n", w.URL, w.Alive, w.ShardsCompleted, w.Failures)
	}

	// The coordinator's span collector holds the whole distributed trace:
	// worker-side spans rode back in each ShardResponse and were ingested
	// under their dispatching span, so the tree nests across nodes.
	fmt.Printf("\ntrace %s (coordinator and worker spans, nested)\n", fs.TraceID)
	spans := coord.Obs().Tracer.Trace(fs.TraceID)
	parent := make(map[string]string, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	for _, s := range spans {
		depth := 0
		for p := s.Parent; p != ""; p = parent[p] {
			depth++
		}
		fmt.Printf("  %*s%-16s %s\n", 2*depth, "", s.Name, s.Duration.Round(time.Microsecond))
	}

	// The same campaign on a single node, through the same campaign engine.
	mgr := campaign.New(campaign.Config{})
	r, err := campaign.Resolve(spec)
	if err != nil {
		log.Fatal(err)
	}
	outcomes, err := mgr.RunShard(context.Background(), r, 0, r.Spec.Size)
	if err != nil {
		log.Fatal(err)
	}
	single := sim.Aggregate(r.Bus, outcomes)

	var fleetJSON, singleJSON bytes.Buffer
	if err := report.WriteCampaignJSON(&fleetJSON, res, width); err != nil {
		log.Fatal(err)
	}
	if err := report.WriteCampaignJSON(&singleJSON, single, parwan.AddrBits); err != nil {
		log.Fatal(err)
	}
	if bytes.Equal(fleetJSON.Bytes(), singleJSON.Bytes()) {
		fmt.Printf("\nfleet result is byte-identical to the single-node run (%d bytes of campaign JSON)\n",
			fleetJSON.Len())
	} else {
		log.Fatalf("fleet result diverged from the single-node run (%d vs %d bytes)",
			fleetJSON.Len(), singleJSON.Len())
	}
}
