package fleet

import (
	"testing"

	"repro/internal/campaign"
)

func TestPlanShardsTilesExactly(t *testing.T) {
	for _, tc := range []struct{ total, count int }{
		{1000, 1}, {1000, 3}, {1000, 12}, {7, 3}, {5, 8}, {1, 1}, {240, 240},
	} {
		p, err := PlanShards("k", tc.total, tc.count)
		if err != nil {
			t.Fatalf("PlanShards(%d, %d): %v", tc.total, tc.count, err)
		}
		next := 0
		for i, s := range p.Shards {
			if s.Index != i {
				t.Fatalf("shard %d has index %d", i, s.Index)
			}
			if s.Start != next {
				t.Fatalf("PlanShards(%d, %d): shard %d starts at %d, want %d", tc.total, tc.count, i, s.Start, next)
			}
			if s.Len() < 1 {
				t.Fatalf("PlanShards(%d, %d): empty shard %d", tc.total, tc.count, i)
			}
			next = s.End
		}
		if next != tc.total {
			t.Fatalf("PlanShards(%d, %d): shards end at %d", tc.total, tc.count, next)
		}
		// Balanced: sizes differ by at most one.
		min, max := tc.total, 0
		for _, s := range p.Shards {
			if s.Len() < min {
				min = s.Len()
			}
			if s.Len() > max {
				max = s.Len()
			}
		}
		if max-min > 1 {
			t.Fatalf("PlanShards(%d, %d): unbalanced shards (min %d, max %d)", tc.total, tc.count, min, max)
		}
	}
}

func TestPlanShardsDeterministic(t *testing.T) {
	a, err := PlanShards("key", 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanShards("key", 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Shards) != len(b.Shards) {
		t.Fatalf("shard counts differ: %d vs %d", len(a.Shards), len(b.Shards))
	}
	for i := range a.Shards {
		if a.Shards[i] != b.Shards[i] {
			t.Fatalf("shard %d differs: %+v vs %+v", i, a.Shards[i], b.Shards[i])
		}
	}
}

func TestPlanShardsEmptyLibrary(t *testing.T) {
	if _, err := PlanShards("k", 0, 4); err == nil {
		t.Fatal("PlanShards accepted an empty library")
	}
}

func TestShardKeySensitivity(t *testing.T) {
	base := ShardKey("plan", 1, 0.5, 1e-15, 1000, 4)
	for name, other := range map[string]string{
		"plan hash":   ShardKey("plan2", 1, 0.5, 1e-15, 1000, 4),
		"seed":        ShardKey("plan", 2, 0.5, 1e-15, 1000, 4),
		"sigma":       ShardKey("plan", 1, 0.6, 1e-15, 1000, 4),
		"cth":         ShardKey("plan", 1, 0.5, 2e-15, 1000, 4),
		"total":       ShardKey("plan", 1, 0.5, 1e-15, 999, 4),
		"shard count": ShardKey("plan", 1, 0.5, 1e-15, 1000, 5),
	} {
		if other == base {
			t.Fatalf("ShardKey is insensitive to %s", name)
		}
	}
	if again := ShardKey("plan", 1, 0.5, 1e-15, 1000, 4); again != base {
		t.Fatalf("ShardKey not deterministic: %s vs %s", again, base)
	}
}

// TestSpecShardKeyPinned pins the shard-plan keys of two reference specs.
// Workers answer an assignment whose key differs from their own derivation
// with 409, so a changed key splits mixed-version fleets: update the pins
// only together with a deliberate campaign-identity change.
func TestSpecShardKeyPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec campaign.Spec
		want string
	}{
		{"parwan addr", campaign.Spec{Bus: "addr", Seed: 1}, "4cc11be208671dc3e962a3ee29535d0d"},
		{"widebus32", campaign.Spec{Target: "widebus32", Bus: "bus", Seed: 1}, "db180af5f642fc0202a412cde5447bf5"},
	} {
		got, err := SpecShardKey(tc.spec, 4)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: SpecShardKey = %s, want %s", tc.name, got, tc.want)
		}
	}
}
