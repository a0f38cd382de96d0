// Package infield turns the one-shot MA-test campaign into an in-field test
// schedule: the self-test plan is deterministically partitioned into
// bounded-cycle slices that run one at a time (the schedule loop lives in
// internal/campaign), and a coverage ledger accumulates the per-slice
// detection vectors into the cumulative defect-library coverage curve.
//
// The central invariant is exact convergence: the ledger's merged outcome
// for each defect after all slices ran is byte-identical to the one-shot
// campaign's outcome over the same plan. That holds because slices are cut
// at session granularity — sessions are independent programs, and the
// per-session verdict composition (sim.Runner.judge) is commutative and
// associative per defect: Detected and Crashed compose by OR, Activations
// by sum, and DetectedBy by set union, a word-wise OR over the target's one
// fault universe, which every sub-plan indexes. Nothing about the
// composition depends on which slice a session ran in, on slice order, or
// on which fleet node simulated it.
package infield

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
)

// Config keys a manifest: the identity of the plan being sliced, the defect
// library it will run against, and the slicing budget. The manifest — and
// therefore the whole schedule — is a pure function of this configuration.
type Config struct {
	// PlanHash is the content hash of the full plan being sliced
	// (campaign.PlanHash form).
	PlanHash string `json:"plan_hash"`
	// Seed, Sigma and CthFactor identify the defect library and thresholds
	// the schedule screens against; they key the manifest so two schedules
	// over the same plan but different libraries do not alias.
	Seed      int64   `json:"seed"`
	Sigma     float64 `json:"sigma"`
	CthFactor float64 `json:"cth_factor"`
	// SliceCycles is the per-slice golden-cycle budget: sessions are packed
	// first-fit, in session order, until adding the next session would
	// exceed the budget. Zero gives the finest schedule — one session per
	// slice. A session whose own cost exceeds the budget still gets a slice
	// (sessions are atomic; see the package comment).
	SliceCycles uint64 `json:"slice_cycles"`
	// Slices, when > 0, requests a target slice count instead of an explicit
	// cycle budget: the smallest budget whose first-fit packing yields at
	// most this many slices is derived and recorded as SliceCycles.
	// Mutually exclusive with a non-zero SliceCycles.
	Slices int `json:"slices,omitempty"`
}

// Slice is one schedulable unit: a run of whole sessions of the full plan.
type Slice struct {
	Index int `json:"index"`
	// Sessions lists the full plan's program indexes this slice executes.
	Sessions []int `json:"sessions"`
	// Cycles is the slice's golden execution cost.
	Cycles uint64 `json:"cycles"`
	// Tests counts the applied MA tests across the slice's sessions.
	Tests int `json:"tests"`
}

// Manifest is the byte-stable slicing of one plan under one Config. Equal
// configs (and equal per-session costs, which the plan hash pins) produce
// byte-identical manifests on every node.
type Manifest struct {
	// Key identifies the schedule: a hash over plan hash, seed, sigma, Cth
	// factor and the (possibly derived) slice budget.
	Key         string  `json:"key"`
	PlanHash    string  `json:"plan_hash"`
	Seed        int64   `json:"seed"`
	Sigma       float64 `json:"sigma"`
	CthFactor   float64 `json:"cth_factor"`
	SliceCycles uint64  `json:"slice_cycles"`
	TotalCycles uint64  `json:"total_cycles"`
	TotalTests  int     `json:"total_tests"`
	Slices      []Slice `json:"slices"`
}

// BuildManifest partitions the plan's sessions into slices. cycles reports
// one session's golden execution cost (sim.Runner.Golden(s).Cycles); it must
// be the deterministic golden cost, so every node derives the same manifest.
func BuildManifest(plan *core.Plan, cycles func(session int) uint64, cfg Config) (*Manifest, error) {
	if len(plan.Programs) == 0 {
		return nil, fmt.Errorf("infield: plan has no sessions to slice")
	}
	if cfg.Slices < 0 {
		return nil, fmt.Errorf("infield: negative slice count %d", cfg.Slices)
	}
	if cfg.Slices > 0 && cfg.SliceCycles > 0 {
		return nil, fmt.Errorf("infield: slice count and cycle budget are mutually exclusive")
	}
	costs := make([]uint64, len(plan.Programs))
	var total uint64
	tests := 0
	for s := range plan.Programs {
		costs[s] = cycles(s)
		total += costs[s]
		tests += len(plan.Programs[s].Applied)
	}
	budget := cfg.SliceCycles
	if cfg.Slices > 0 {
		budget = partitionBudget(costs, cfg.Slices)
	}
	m := &Manifest{
		PlanHash:    cfg.PlanHash,
		Seed:        cfg.Seed,
		Sigma:       cfg.Sigma,
		CthFactor:   cfg.CthFactor,
		SliceCycles: budget,
		TotalCycles: total,
		TotalTests:  tests,
	}
	for _, sessions := range firstFit(costs, budget) {
		sl := Slice{Index: len(m.Slices), Sessions: sessions}
		for _, s := range sessions {
			sl.Cycles += costs[s]
			sl.Tests += len(plan.Programs[s].Applied)
		}
		m.Slices = append(m.Slices, sl)
	}
	m.Key = m.computeKey()
	return m, nil
}

// firstFit packs sessions in order: a new slice starts when the current one
// is non-empty and adding the next session would exceed the budget. Budget
// zero degenerates to one session per slice.
func firstFit(costs []uint64, budget uint64) [][]int {
	var out [][]int
	var cur []int
	var used uint64
	for s, c := range costs {
		if len(cur) > 0 && used+c > budget {
			out = append(out, cur)
			cur, used = nil, 0
		}
		cur = append(cur, s)
		used += c
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// partitionBudget finds the smallest budget whose first-fit packing of the
// ordered session costs yields at most n slices (the classic painter's
// partition, binary-searched). n >= len(costs) returns 0 — the one-session-
// per-slice degenerate budget.
func partitionBudget(costs []uint64, n int) uint64 {
	if n >= len(costs) {
		return 0
	}
	var lo, hi uint64
	for _, c := range costs {
		if c > lo {
			lo = c
		}
		hi += c
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if len(firstFit(costs, mid)) <= n {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// computeKey hashes the manifest's identity components.
func (m *Manifest) computeKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|seed=%d|sigma=%g|cth=%g|slice_cycles=%d",
		m.PlanHash, m.Seed, m.Sigma, m.CthFactor, m.SliceCycles)
	return hex.EncodeToString(h.Sum(nil))
}

// WriteManifest renders the manifest as indented JSON. The output is
// byte-stable for a given plan and config.
func WriteManifest(w io.Writer, m *Manifest) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// SubPlan builds the slice's executable sub-plan: the full plan's session
// programs for the slice, shared by pointer (programs are read-only during
// campaigns), under the full plan's target metadata. Each sub-plan is a
// valid plan in its own right — it has its own content hash, so the
// campaign layer's golden-runner cache serves recurring executions of the
// same slice without rebuilding.
func SubPlan(full *core.Plan, sl Slice) (*core.Plan, error) {
	sub := &core.Plan{
		Compaction: full.Compaction,
		Target:     full.Target,
		Channels:   full.Channels,
	}
	for _, s := range sl.Sessions {
		if s < 0 || s >= len(full.Programs) {
			return nil, fmt.Errorf("infield: slice %d references session %d of a %d-session plan",
				sl.Index, s, len(full.Programs))
		}
		sub.Programs = append(sub.Programs, full.Programs[s])
	}
	if len(sub.Programs) == 0 {
		return nil, fmt.Errorf("infield: slice %d is empty", sl.Index)
	}
	return sub, nil
}
