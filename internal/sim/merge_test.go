// Property tests for the order-restoring shard merge: aggregating any shard
// partition of an outcome set — shards delivered in any order, grouped and
// coalesced any way — must render byte-identical campaign JSON to the
// unsharded sim.Aggregate. This is the invariant the distributed fleet
// (internal/fleet) relies on when it retries and merges partial results.
package sim_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/parwan"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/target"
)

// randomOutcomes builds a synthetic outcome set exercising every field the
// aggregate depends on: detection, crashes, activations, and per-fault
// attribution (including the single-detection case behind UniqueByFault).
func randomOutcomes(rng *rand.Rand, total int) []sim.Outcome {
	u, err := target.FaultUniverse(target.Parwan())
	if err != nil {
		panic(err)
	}
	outcomes := make([]sim.Outcome, total)
	for i := range outcomes {
		out := sim.Outcome{DefectID: i, Bus: core.AddrBus}
		if rng.Intn(3) > 0 {
			out.Detected = true
			out.Crashed = rng.Intn(4) == 0
			out.Activations = rng.Intn(50)
			n := 1 + rng.Intn(3)
			for out.DetectedBy.Len() < n {
				out.DetectedBy.Add(u, rng.Intn(u.Len()))
			}
		}
		outcomes[i] = out
	}
	return outcomes
}

// partition cuts outcomes into k contiguous shards at random cut points.
func partition(rng *rand.Rand, outcomes []sim.Outcome, k int) []sim.OutcomeShard {
	cuts := map[int]bool{0: true}
	for len(cuts) < k {
		cuts[rng.Intn(len(outcomes))] = true
	}
	starts := make([]int, 0, k)
	for c := range cuts {
		starts = append(starts, c)
	}
	// Insertion sort; k is small.
	for i := 1; i < len(starts); i++ {
		for j := i; j > 0 && starts[j] < starts[j-1]; j-- {
			starts[j], starts[j-1] = starts[j-1], starts[j]
		}
	}
	shards := make([]sim.OutcomeShard, len(starts))
	for i, s := range starts {
		end := len(outcomes)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		shards[i] = sim.OutcomeShard{Start: s, Outcomes: outcomes[s:end]}
	}
	return shards
}

func renderJSON(t *testing.T, res *sim.CampaignResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteCampaignJSON(&buf, res, parwan.AddrBits); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMergeOutcomesByteIdenticalToAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	for trial := 0; trial < 60; trial++ {
		total := 1 + rng.Intn(400)
		outcomes := randomOutcomes(rng, total)
		want := renderJSON(t, sim.Aggregate(core.AddrBus, outcomes))

		k := 1 + rng.Intn(total)
		shards := partition(rng, outcomes, k)
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })

		merged, err := sim.MergeOutcomes(core.AddrBus, total, shards)
		if err != nil {
			t.Fatalf("trial %d (total %d, %d shards): %v", trial, total, len(shards), err)
		}
		if got := renderJSON(t, merged); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (total %d, %d shards): merged JSON differs from unsharded aggregate",
				trial, total, len(shards))
		}
	}
}

// TestMergeShardsAssociative checks that coalescing any contiguous grouping
// of shards first (as a coordinator does when it re-collects a retried
// range) changes nothing: merge(merge(g1), merge(g2), ...) == merge(all).
func TestMergeShardsAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		total := 2 + rng.Intn(300)
		outcomes := randomOutcomes(rng, total)
		want := renderJSON(t, sim.Aggregate(core.AddrBus, outcomes))

		shards := partition(rng, outcomes, 2+rng.Intn(total-1))
		// Group consecutive shards at random and coalesce each group.
		var grouped []sim.OutcomeShard
		for i := 0; i < len(shards); {
			n := 1 + rng.Intn(len(shards)-i)
			g, err := sim.MergeShards(shards[i : i+n])
			if err != nil {
				t.Fatalf("trial %d: coalescing shards %d..%d: %v", trial, i, i+n, err)
			}
			grouped = append(grouped, g)
			i += n
		}
		rng.Shuffle(len(grouped), func(i, j int) { grouped[i], grouped[j] = grouped[j], grouped[i] })
		merged, err := sim.MergeOutcomes(core.AddrBus, total, grouped)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := renderJSON(t, merged); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: grouped merge differs from unsharded aggregate", trial)
		}
	}
}

func TestMergeOutcomesRejectsBadTilings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	outcomes := randomOutcomes(rng, 20)
	full := sim.OutcomeShard{Start: 0, Outcomes: outcomes}

	if _, err := sim.MergeOutcomes(core.AddrBus, 20, nil); err == nil {
		t.Fatal("merged zero shards")
	}
	// Gap: [0,10) + [12,20).
	if _, err := sim.MergeOutcomes(core.AddrBus, 20, []sim.OutcomeShard{
		{Start: 0, Outcomes: outcomes[:10]}, {Start: 12, Outcomes: outcomes[12:]},
	}); err == nil {
		t.Fatal("merged shards with a gap")
	}
	// Overlap: [0,12) + [10,20).
	if _, err := sim.MergeOutcomes(core.AddrBus, 20, []sim.OutcomeShard{
		{Start: 0, Outcomes: outcomes[:12]}, {Start: 10, Outcomes: outcomes[10:]},
	}); err == nil {
		t.Fatal("merged overlapping shards")
	}
	// Wrong total.
	if _, err := sim.MergeOutcomes(core.AddrBus, 21, []sim.OutcomeShard{full}); err == nil {
		t.Fatal("merged short of the declared total")
	}
	// Not starting at zero.
	if _, err := sim.MergeOutcomes(core.AddrBus, 10, []sim.OutcomeShard{
		{Start: 10, Outcomes: outcomes[10:]},
	}); err == nil {
		t.Fatal("merged shards not starting at index 0")
	}
	if _, err := sim.MergeOutcomes(core.AddrBus, 20, []sim.OutcomeShard{full}); err != nil {
		t.Fatalf("rejected a valid tiling: %v", err)
	}
}
