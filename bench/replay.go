package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/fleet"
	"repro/internal/infield"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/target"
)

// The traced replay: each workload's job pipeline rebuilt from direct public
// calls, so every layer can be timed from outside. The harness keeps the same
// caches a Manager keeps (golden runners by plan hash, libraries by spec), so
// a warm replay does the work a warm job does.

// specEnv is a spec resolved as a serving node resolves it.
type specEnv struct {
	spec   campaign.Spec // normalized
	tgt    target.Target
	models []sim.BusSetup
	bus    core.BusID
	width  int
}

func resolve(spec campaign.Spec) (specEnv, error) {
	if err := spec.Validate(); err != nil {
		return specEnv{}, err
	}
	spec = spec.Normalized()
	tgt, err := target.Parse(spec.Target)
	if err != nil {
		return specEnv{}, err
	}
	models, err := tgt.BusModels(spec.CthFactor)
	if err != nil {
		return specEnv{}, err
	}
	bus := spec.BusID()
	return specEnv{spec: spec, tgt: tgt, models: models, bus: bus, width: models[bus].Nominal.Width}, nil
}

func (e specEnv) library() (*defects.Library, error) {
	m := e.models[e.bus]
	return defects.Generate(m.Nominal, m.Thresholds,
		defects.Config{Size: e.spec.Size, Sigma: e.spec.Sigma, Seed: e.spec.Seed})
}

// oracleOut is a spec's reference: the Execute engine's campaign over the
// one-shot plan. Manager jobs, fleet merges, in-field ledgers and replays
// must all reproduce its report bytes.
type oracleOut struct {
	res    *sim.CampaignResult
	digest [32]byte
	cycles uint64 // golden cycles of the whole self-test
	env    specEnv
	plan   *core.Plan
	hash   string
	lib    *defects.Library
}

func oracle(ctx context.Context, spec campaign.Spec) (*oracleOut, error) {
	env, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	plan, err := campaign.SpecPlan(env.spec)
	if err != nil {
		return nil, err
	}
	hash, err := campaign.PlanHash(plan)
	if err != nil {
		return nil, err
	}
	lib, err := env.library()
	if err != nil {
		return nil, err
	}
	r, err := sim.NewTargetRunner(env.tgt, plan, env.models)
	if err != nil {
		return nil, err
	}
	res, err := r.CampaignCtx(ctx, env.bus, lib, sim.CampaignOpts{Engine: sim.Execute})
	if err != nil {
		return nil, err
	}
	d, err := digest(res, env.width)
	if err != nil {
		return nil, err
	}
	return &oracleOut{res: res, digest: d, cycles: r.GoldenCycles(), env: env, plan: plan, hash: hash, lib: lib}, nil
}

// harness holds the replay's caches and, for fleet workloads, the fleet.
type harness struct {
	w       workload
	runners map[string]*sim.Runner      // by plan hash
	libs    map[string]*defects.Library // by target, bus and seed
	cores   probeCores
	fleet   *fleetSystem
}

func newHarness(w workload) *harness {
	h := &harness{w: w, runners: map[string]*sim.Runner{}, libs: map[string]*defects.Library{},
		cores: probeCores{}}
	if w.fleet {
		h.fleet = newFleetSystem()
	}
	return h
}

func (h *harness) close() {
	if h.fleet != nil {
		h.fleet.close()
	}
}

// runner returns the golden runner for a plan, capturing it on a miss.
func (h *harness) runner(t *tracer, parent int, env specEnv, plan *core.Plan, hash string) (*sim.Runner, error) {
	if r, ok := h.runners[hash]; ok {
		return r, nil
	}
	var r *sim.Runner
	err := t.span(parent, "target.golden", func(int) (err error) {
		r, err = sim.NewTargetRunner(env.tgt, plan, env.models)
		return err
	})
	if err != nil {
		return nil, err
	}
	h.runners[hash] = r
	return r, nil
}

// library returns the spec's defect library, generating it on a miss. On
// fresh-library workloads every job misses, as it does in the Manager.
func (h *harness) library(t *tracer, parent int, env specEnv) (*defects.Library, error) {
	key := fmt.Sprintf("%s|%s|%d", env.tgt.Name(), env.spec.Bus, env.spec.Seed)
	if lib, ok := h.libs[key]; ok {
		return lib, nil
	}
	var lib *defects.Library
	err := t.span(parent, "defects.generate", func(int) (err error) {
		lib, err = env.library()
		return err
	})
	if err != nil {
		return nil, err
	}
	if !h.w.freshLibs {
		h.libs[key] = lib
	}
	return lib, nil
}

// prime does on an empty harness what a Manager does for a cold job before
// simulating: capture the golden runners (the full plan's and, for in-field
// specs, every slice's) and generate the defect library.
func (h *harness) prime(t *tracer, spec campaign.Spec) error {
	env, err := resolve(spec)
	if err != nil {
		return err
	}
	plan, err := campaign.SpecPlan(env.spec)
	if err != nil {
		return err
	}
	hash, err := campaign.PlanHash(plan)
	if err != nil {
		return err
	}
	return t.span(0, "setup", func(root int) error {
		r, err := h.runner(t, root, env, plan, hash)
		if err != nil {
			return err
		}
		if env.spec.JobType() == campaign.TypeInfield {
			m, err := manifest(env, plan, hash, r)
			if err != nil {
				return err
			}
			for _, sl := range m.Slices {
				sub, err := infield.SubPlan(plan, sl)
				if err != nil {
					return err
				}
				subHash, err := campaign.PlanHash(sub)
				if err != nil {
					return err
				}
				if _, err := h.runner(t, root, env, sub, subHash); err != nil {
					return err
				}
			}
		}
		_, err = h.library(t, root, env)
		return err
	})
}

// manifest slices the plan as the Manager does for an in-field spec.
func manifest(env specEnv, plan *core.Plan, hash string, full *sim.Runner) (*infield.Manifest, error) {
	return infield.BuildManifest(plan, func(s int) uint64 { return full.Golden(s).Cycles },
		infield.Config{PlanHash: hash, Seed: env.spec.Seed, Sigma: env.spec.Sigma,
			CthFactor: env.spec.CthFactor, SliceCycles: env.spec.SliceCycles, Slices: env.spec.Slices})
}

// replayOut is a replayed job's result and the inputs it ran on.
type replayOut struct {
	res  *sim.CampaignResult
	env  specEnv
	plan *core.Plan
	hash string
	lib  *defects.Library
}

// replay runs one job of the workload's pipeline under a "job" root span.
func (h *harness) replay(ctx context.Context, t *tracer, spec campaign.Spec) (*replayOut, error) {
	env, err := resolve(spec)
	if err != nil {
		return nil, err
	}
	out := &replayOut{env: env}
	err = t.span(0, "job", func(root int) error {
		if err := t.span(root, "core.generate", func(int) (err error) {
			out.plan, err = campaign.SpecPlan(env.spec)
			return err
		}); err != nil {
			return err
		}
		if err := t.span(root, "campaign.plan_hash", func(int) (err error) {
			out.hash, err = campaign.PlanHash(out.plan)
			return err
		}); err != nil {
			return err
		}
		switch {
		case h.w.fleet:
			return h.replayFleet(ctx, t, root, out)
		case env.spec.JobType() == campaign.TypeInfield:
			return h.replayInfield(ctx, t, root, out)
		}
		r, err := h.runner(t, root, env, out.plan, out.hash)
		if err != nil {
			return err
		}
		if out.lib, err = h.library(t, root, env); err != nil {
			return err
		}
		if out.res, err = simCampaign(ctx, t, root, r, env.bus, out.lib); err != nil {
			return err
		}
		return t.span(root, "report.render", func(int) error {
			return report.WriteCampaignJSON(io.Discard, out.res, env.width)
		})
	})
	if err != nil {
		return nil, err
	}
	if out.lib == nil { // fleet jobs build their libraries on the workers
		if out.lib, err = h.library(nil, 0, env); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// simCampaign runs the batch-engine campaign with an Observe hook: the
// screening sweep is the interval before the first defect run starts, and
// the hook's durations give resume busy time and worker utilization.
func simCampaign(ctx context.Context, t *tracer, parent int, r *sim.Runner, bus core.BusID, lib *defects.Library) (*sim.CampaignResult, error) {
	workers := runtime.GOMAXPROCS(0)
	opts := sim.CampaignOpts{Workers: workers, Engine: sim.Batch}
	var mu sync.Mutex
	var first time.Time
	var busy, resumeBusy time.Duration
	if t != nil {
		opts.Observe = func(out sim.Outcome, d time.Duration) {
			start := time.Now().Add(-d)
			mu.Lock()
			defer mu.Unlock()
			if first.IsZero() || start.Before(first) {
				first = start
			}
			busy += d
			if !out.Replayed {
				resumeBusy += d
			}
		}
	}
	before := r.Stats()
	var res *sim.CampaignResult
	err := t.span(parent, "sim.campaign", func(id int) (err error) {
		start := time.Now()
		res, err = r.CampaignCtx(ctx, bus, lib, opts)
		end := time.Now()
		if err != nil || t == nil || first.IsZero() {
			return err
		}
		t.interval(id, "sim.screen", start, first)
		t.count("sim.resume_busy_ms", float64(resumeBusy)/1e6)
		t.count("sim.busy_ns", float64(busy))
		t.count("sim.capacity_ns", float64(workers)*float64(end.Sub(first)))
		return nil
	})
	if err != nil {
		return nil, err
	}
	countEngine(t, before, r.Stats())
	return res, nil
}

// countEngine records the engine counters a campaign moved.
func countEngine(t *tracer, before, after sim.EngineStats) {
	t.count("sim.clean_n", float64(after.BatchScreened-before.BatchScreened))
	t.count("sim.resumed_n", float64(after.Fallbacks-before.Fallbacks))
	t.count("sim.memo_hits", float64(after.MemoHits-before.MemoHits))
	t.count("sim.memo_lookups", float64(after.MemoHits-before.MemoHits+after.MemoMisses-before.MemoMisses))
}

// replayInfield runs the in-field schedule: manifest, then per slice the
// sub-plan, its campaign over the whole library and the ledger merge.
func (h *harness) replayInfield(ctx context.Context, t *tracer, root int, out *replayOut) error {
	env := out.env
	full, err := h.runner(t, root, env, out.plan, out.hash)
	if err != nil {
		return err
	}
	var m *infield.Manifest
	if err := t.span(root, "infield.manifest", func(int) (err error) {
		m, err = manifest(env, out.plan, out.hash, full)
		return err
	}); err != nil {
		return err
	}
	if out.lib, err = h.library(t, root, env); err != nil {
		return err
	}
	ledger := infield.NewLedger(len(out.lib.Defects), len(m.Slices), env.bus)
	for _, sl := range m.Slices {
		var sub *core.Plan
		if err := t.span(root, "infield.subplan", func(int) (err error) {
			sub, err = infield.SubPlan(out.plan, sl)
			return err
		}); err != nil {
			return err
		}
		var subHash string
		if err := t.span(root, "campaign.plan_hash", func(int) (err error) {
			subHash, err = campaign.PlanHash(sub)
			return err
		}); err != nil {
			return err
		}
		r, err := h.runner(t, root, env, sub, subHash)
		if err != nil {
			return err
		}
		res, err := simCampaign(ctx, t, root, r, env.bus, out.lib)
		if err != nil {
			return err
		}
		if err := t.span(root, "infield.merge", func(int) error {
			return ledger.MergeSlice(sl.Index, res.Outcomes, infield.PointMeta{SliceCycles: sl.Cycles})
		}); err != nil {
			return err
		}
	}
	t.count("infield.slices", float64(len(m.Slices)))
	out.res = ledger.Result(env.spec.Bus)
	return t.span(root, "report.render", func(int) error {
		return report.WriteInfieldNDJSON(io.Discard, report.NewInfieldJSON(env.spec.TargetName(), env.spec.Bus, m, ledger))
	})
}

// replayFleet derives the shard key, then runs the campaign through the
// coordinator; the workers' handlers report when each shard was served.
func (h *harness) replayFleet(ctx context.Context, t *tracer, root int, out *replayOut) error {
	f := h.fleet
	if err := t.span(root, "fleet.shard_key", func(int) error {
		// The coordinator's default shard count: 4 per live worker.
		_, err := fleet.SpecShardKey(out.env.spec, 4*fleetWorkers)
		return err
	}); err != nil {
		return err
	}
	var tap *shardTap
	if t != nil {
		tap = &shardTap{}
		f.tap.Store(tap)
		defer f.tap.Store(nil)
	}
	before := f.metrics()
	var width int
	var fs fleet.FleetStats
	err := t.span(root, "fleet.run_campaign", func(id int) (err error) {
		start := time.Now()
		out.res, width, fs, err = f.coord.RunCampaign(ctx, out.env.spec, 0)
		wall := time.Since(start)
		if err != nil || tap == nil {
			return err
		}
		// A handler may still be recording after its response was read.
		tap.wg.Wait()
		perWorker := make([]time.Duration, fleetWorkers)
		for _, s := range tap.served {
			t.interval(id, "fleet.shard_serve", s.start, s.end)
			perWorker[s.worker] += s.end.Sub(s.start)
		}
		t.count("fleet.shard_resp_kb", float64(tap.bytes)/1024)
		t.count("fleet.coord_overhead_ms", float64(wall-maxDuration(perWorker))/1e6)
		return nil
	})
	if err != nil {
		return err
	}
	t.count("fleet.shards", float64(fs.Shards))
	countEngine(t, before.Engine, f.metrics().Engine)
	return t.span(root, "report.render", func(int) error {
		return report.WriteCampaignJSON(io.Discard, out.res, width)
	})
}

func maxDuration(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

// probeCore is a target core with its golden traces captured, for probing
// resumed execution outside the campaign engine.
type probeCore struct {
	core  target.Core
	steps [][][]target.BusStep // [session][channel]
}

// probeCores caches probe cores by plan hash.
type probeCores map[string]*probeCore

func (pcs probeCores) get(env specEnv, plan *core.Plan, hash string) (*probeCore, error) {
	if pc, ok := pcs[hash]; ok {
		return pc, nil
	}
	c, err := env.tgt.NewCore(plan, env.models)
	if err != nil {
		return nil, err
	}
	pc := &probeCore{core: c}
	for s := range plan.Programs {
		_, steps, err := c.Golden(s)
		if err != nil {
			return nil, err
		}
		pc.steps = append(pc.steps, steps)
	}
	pcs[hash] = pc
	return pc, nil
}

// probeCounts are the probe's counters, recorded as 0 up front so a pass
// without, say, hung runs still reports its count.
var probeCounts = []string{"crosstalk.event_mask_calls", "target.resume_halted_n", "target.resume_crashed_n",
	"target.resume_hung_n", "target.resume_steps", "target.hung_steps"}

// probe replays a campaign's screening and resume work layer by layer: the
// batch kernel over the distinct golden transitions, then per defect and
// session a Channel.Transmit scan to the first divergence and a Core.Resume
// from it, classified by how the run ended (halted, crashed on an illegal
// opcode, or hung at the step limit). It returns which defects crashed or
// hung, which must be exactly the campaign's Crashed outcomes.
func (pcs probeCores) probe(t *tracer, env specEnv, plan *core.Plan, hash string, lib *defects.Library) ([]bool, error) {
	pc, err := pcs.get(env, plan, hash)
	if err != nil {
		return nil, err
	}
	th := env.models[env.bus].Thresholds
	for _, n := range probeCounts {
		t.count(n, 0)
	}
	crashed := make([]bool, len(lib.Defects))
	err = t.span(0, "probe", func(root int) error {
		params := make([]*crosstalk.Params, len(lib.Defects))
		for i, d := range lib.Defects {
			params[i] = d.Params
		}
		var b *crosstalk.Batch
		if err := t.span(root, "crosstalk.batch_build", func(int) (err error) {
			b, err = crosstalk.NewBatch(params, th)
			return err
		}); err != nil {
			return err
		}
		trans := distinctTransitions(pc.steps, env.bus)
		mask := make([]uint64, b.MaskWords())
		_ = t.span(root, "crosstalk.event_mask", func(int) error {
			for _, s := range trans {
				b.EventMask(s.Prev, s.Next, s.Dir, mask)
			}
			return nil
		})
		t.count("crosstalk.event_mask_calls", float64(len(trans)))

		for i, d := range lib.Defects {
			ch, err := crosstalk.NewChannel(d.Params, th)
			if err != nil {
				return err
			}
			ch.EnableMemo()
			for s := range plan.Programs {
				k := firstDivergence(pc.steps[s][env.bus], ch)
				if k < 0 {
					continue
				}
				start := time.Now()
				rr, err := pc.core.Resume(s, env.bus, ch, k)
				if err != nil {
					return err
				}
				class := "halted"
				switch {
				case rr.ExecErr != nil:
					class = "crashed"
				case !rr.Halted:
					class = "hung"
				}
				t.interval(root, "target.resume_"+class, start, time.Now())
				t.count("target.resume_"+class+"_n", 1)
				t.count("target.resume_steps", float64(rr.Steps))
				if class == "hung" {
					t.count("target.hung_steps", float64(rr.Steps))
				}
				crashed[i] = crashed[i] || class != "halted"
			}
		}
		return nil
	})
	return crashed, err
}

// firstDivergence is the index of the first step that transfers with a
// crosstalk event, or -1 when the whole trace transfers cleanly.
func firstDivergence(steps []target.BusStep, ch *crosstalk.Channel) int {
	for i, s := range steps {
		if _, events := ch.Transmit(s.Prev, s.Next, s.Dir); len(events) > 0 {
			return i
		}
	}
	return -1
}

func distinctTransitions(steps [][][]target.BusStep, bus core.BusID) []target.BusStep {
	seen := map[target.BusStep]bool{}
	var out []target.BusStep
	for _, session := range steps {
		for _, s := range session[bus] {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// checkCrashed compares a probe's crashed-or-hung set with a result.
func checkCrashed(crashed []bool, res *sim.CampaignResult) error {
	if len(crashed) != len(res.Outcomes) {
		return fmt.Errorf("probe saw %d defects, result has %d", len(crashed), len(res.Outcomes))
	}
	for i, c := range crashed {
		if c != res.Outcomes[i].Crashed {
			return fmt.Errorf("defect %d: probe crashed=%v, campaign crashed=%v", res.Outcomes[i].DefectID, c, res.Outcomes[i].Crashed)
		}
	}
	return nil
}
