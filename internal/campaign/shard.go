package campaign

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/defects"
	"repro/internal/infield"
	"repro/internal/maf"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/target"
)

// SpecPlan resolves the spec's self-test plan exactly as Resolve does: the
// inline document when present, otherwise a plan generated from the spec's
// generation config.
func SpecPlan(spec Spec) (*core.Plan, error) {
	tgt, _, err := spec.backend()
	if err != nil {
		return nil, err
	}
	return spec.plan(tgt, nil)
}

// plan obtains the spec's self-test plan: the inline document when present,
// otherwise one generated on tgt from the generation config, restricted to
// the tests filter accepts (nil accepts every test).
func (s Spec) plan(tgt target.Target, filter func(maf.Fault) bool) (*core.Plan, error) {
	if len(s.Plan) > 0 {
		return s.inlinePlan()
	}
	return tgt.Generate(s.genSpec(filter))
}

// genSpec is the spec's plan-generation config, restricted to the tests
// filter accepts (nil accepts every test).
func (s Spec) genSpec(filter func(maf.Fault) bool) target.GenSpec {
	only := ""
	if s.TargetOnly {
		only = s.Bus
	}
	return target.GenSpec{
		Compaction:  s.Compaction,
		MaxSessions: s.MaxSessions,
		OnlyChannel: only,
		Filter:      filter,
	}
}

// PlanHash is the cache identity of a plan: SHA-256 over its canonical
// serialized form (core.WritePlan output).
func PlanHash(p *core.Plan) (string, error) {
	var buf bytes.Buffer
	if err := core.WritePlan(&buf, p); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// Resolved is a spec as every serving node derives it: validated and
// normalized, with its target backend, per-channel nominal bus models, bus
// under test, self-test plan and the plan's content hash. Jobs, fleet
// shards and shard keys all start from Resolve, so they cannot disagree
// about what a spec means.
type Resolved struct {
	Spec   Spec // normalized
	Target target.Target
	Models []sim.BusSetup // per channel ID
	Bus    core.BusID
	Plan   *core.Plan
	Hash   string // PlanHash(Plan)
}

// Resolve validates and normalizes the spec and derives its target, bus
// models, plan and plan hash: the one place a spec becomes a campaign. It
// generates the plan on every call; PlanCache.Resolve is the same function
// with a cache.
func Resolve(spec Spec) (*Resolved, error) {
	r, _, err := resolve(spec, nil)
	return r, err
}

// resolve is Resolve, taking a generated plan from plans when it is non-nil
// (cached reports whether it did).
func resolve(spec Spec, plans *PlanCache) (r *Resolved, cached bool, err error) {
	if err := spec.validateFields(); err != nil {
		return nil, false, err
	}
	inline, err := spec.inlinePlan()
	if err != nil {
		return nil, false, err
	}
	r = &Resolved{Spec: spec.normalized()}
	if r.Target, r.Bus, err = r.Spec.backend(); err != nil {
		return nil, false, err
	}
	if r.Models, err = r.Target.BusModels(r.Spec.CthFactor); err != nil {
		return nil, false, err
	}
	gen := r.Spec.genSpec(nil)
	build := func() (generatedPlan, error) {
		p := inline
		if p == nil {
			var err error
			if p, err = r.Target.Generate(gen); err != nil {
				return generatedPlan{}, err
			}
		}
		hash, err := PlanHash(p)
		return generatedPlan{plan: p, hash: hash}, err
	}
	var g generatedPlan
	if inline != nil || plans == nil {
		g, err = build()
	} else {
		key := planKey{target: r.Target.Name(), compaction: gen.Compaction,
			maxSessions: gen.MaxSessions, only: gen.OnlyChannel}
		g, cached, err = plans.lru.get(key, build)
	}
	if err != nil {
		return nil, false, err
	}
	r.Plan, r.Hash = g.plan, g.hash
	return r, cached, nil
}

// Setup returns the nominal model of the bus under test.
func (r *Resolved) Setup() sim.BusSetup { return r.Models[r.Bus] }

// Width returns the bus under test's wire count: the lines a rank job
// measures.
func (r *Resolved) Width() int { return r.Models[r.Bus].Nominal.Width }

// Library generates the spec's defect library on the bus under test, or
// returns ctx's error if ctx is done first.
func (r *Resolved) Library(ctx context.Context) (*defects.Library, error) {
	setup := r.Setup()
	return defects.GenerateCtx(ctx, setup.Nominal, setup.Thresholds,
		defects.Config{Size: r.Spec.Size, Sigma: r.Spec.Sigma, Seed: r.Spec.Seed})
}

// Manifest slices the plan into the spec's in-field schedule; cycles gives
// each session's golden cycle cost.
func (r *Resolved) Manifest(cycles func(session int) uint64) (*infield.Manifest, error) {
	return infield.BuildManifest(r.Plan, cycles, infield.Config{
		PlanHash:    r.Hash,
		Seed:        r.Spec.Seed,
		Sigma:       r.Spec.Sigma,
		CthFactor:   r.Spec.CthFactor,
		SliceCycles: r.Spec.SliceCycles,
		Slices:      r.Spec.Slices,
	})
}

// RunShard executes the defect-library index range [start, end) of the
// resolved spec's campaign synchronously and returns the per-defect outcomes
// in range order. It shares the manager's golden-runner and defect-library
// caches and its bounded worker pool with regular jobs, so a node serving as
// a fleet worker keeps one set of caches and one concurrency bound for both
// roles. Outcomes are pure functions of (plan, bus parameters, defect), so
// shards computed on different nodes merge into exactly the single-node
// result (see sim.MergeOutcomes).
func (m *Manager) RunShard(ctx context.Context, r *Resolved, start, end int) ([]sim.Outcome, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errors.New("campaign: manager is draining; not accepting shards")
	}
	m.wg.Add(1)
	m.mu.Unlock()
	defer m.wg.Done()

	runner, _, err := m.runnerFor(r, r.Plan, r.Hash)
	if err != nil {
		return nil, err
	}
	lib, _, err := m.libraryFor(ctx, r)
	if err != nil {
		return nil, err
	}
	if start < 0 || end > len(lib.Defects) || start >= end {
		return nil, fmt.Errorf("campaign: shard [%d, %d) out of range for %d defects",
			start, end, len(lib.Defects))
	}
	// A shallow sub-library: defect IDs are carried by the defects
	// themselves, so outcomes keep their library-wide identity.
	sub := &defects.Library{
		Nominal:    lib.Nominal,
		Thresholds: lib.Thresholds,
		Sigma:      lib.Sigma,
		Seed:       lib.Seed,
		Defects:    lib.Defects[start:end],
	}
	sctx, span := obs.StartSpan(ctx, "shard.execute",
		obs.Label{Key: "start", Value: fmt.Sprint(start)},
		obs.Label{Key: "end", Value: fmt.Sprint(end)},
		obs.Label{Key: "bus", Value: r.Spec.Bus})
	res, err := runner.CampaignCtx(sctx, r.Bus, sub, m.campaignOpts(nil))
	span.End()
	if err != nil {
		return nil, err
	}
	m.shardsServed.Inc()
	m.defectsSimulated.Add(int64(end - start))
	return res.Outcomes, nil
}
