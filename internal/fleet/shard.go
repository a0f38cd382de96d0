// Package fleet is the distributed campaign execution subsystem: a
// coordinator that shards a defect library across a registry of worker
// nodes, and the worker service that executes assigned shards with the
// internal/campaign engine on each node.
//
// The design exploits the same determinism argument as the rest of the
// system: per-defect runs are pure functions of (plan, bus parameters,
// defect), and the defect library is regenerated identically on every node
// from (bus, size, sigma, seed, Cth). A shard assignment is therefore just a
// contiguous index range — no defect data crosses the wire, only the spec
// and the range — and the merged result is byte-identical to a single-node
// run because order is restored by sim.MergeOutcomes and aggregation is the
// shared sim.Aggregate path.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/campaign"
)

// Shard is one contiguous index range of a defect library, assigned to one
// worker at a time.
type Shard struct {
	Index int `json:"index"` // position within the shard plan
	Start int `json:"start"` // first library index, inclusive
	End   int `json:"end"`   // last library index, exclusive
}

// Len returns the number of defects in the shard.
func (s Shard) Len() int { return s.End - s.Start }

// ShardPlan is a deterministic partition of a defect library into contiguous
// index ranges. Key identifies the partition: two nodes agree on a plan iff
// they agree on the campaign identity (self-test plan hash, library seed,
// sigma, Cth) and the shard count, so a worker can reject an assignment
// produced against a different plan or library than its own.
type ShardPlan struct {
	Key    string  `json:"key"`
	Total  int     `json:"total"`
	Shards []Shard `json:"shards"`
}

// ShardKey derives the shard-plan identity from the campaign identity and
// the shard count. planHash is the self-test plan's content hash
// (campaign.PlanHash); seed, sigma and cth identify the defect library.
func ShardKey(planHash string, seed int64, sigma, cth float64, total, count int) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%s|seed=%d|sigma=%g|cth=%g|total=%d|shards=%d",
		planHash, seed, sigma, cth, total, count))
	return hex.EncodeToString(sum[:16])
}

// SpecShardKey derives the shard-plan key for a campaign spec, resolving the
// spec's plan hash and normalized library parameters. Every node of a fleet
// computes the same key for the same spec and shard count, which is how a
// worker verifies that an assignment matches its own view of the campaign.
func SpecShardKey(spec campaign.Spec, count int) (string, error) {
	r, err := campaign.Resolve(spec)
	if err != nil {
		return "", err
	}
	return resolvedShardKey(r, count), nil
}

// resolvedShardKey is SpecShardKey over an already resolved spec.
func resolvedShardKey(r *campaign.Resolved, count int) string {
	return ShardKey(r.Hash, r.Spec.Seed, r.Spec.Sigma, r.Setup().Thresholds.Cth, r.Spec.Size, count)
}

// PlanShards deterministically partitions total library indices into count
// contiguous shards of near-equal size (sizes differ by at most one, larger
// shards first). count is clamped to [1, total] so no shard is empty.
func PlanShards(key string, total, count int) (*ShardPlan, error) {
	if total <= 0 {
		return nil, fmt.Errorf("fleet: cannot shard an empty library")
	}
	if count < 1 {
		count = 1
	}
	if count > total {
		count = total
	}
	p := &ShardPlan{Key: key, Total: total, Shards: make([]Shard, count)}
	for i := 0; i < count; i++ {
		p.Shards[i] = Shard{
			Index: i,
			Start: i * total / count,
			End:   (i + 1) * total / count,
		}
	}
	return p, nil
}
