package infield

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/defects"
	"repro/internal/sim"
	"repro/internal/target"
)

// widebusFixture generates a multi-session widebus16 plan with its models,
// runner and a small defect library — the shared substrate for the slicing
// and merge properties below.
type fixture struct {
	tgt    target.Target
	plan   *core.Plan
	models []target.BusModel
	runner *sim.Runner
	bus    core.BusID
	lib    *defects.Library
}

func newFixture(t *testing.T, sessions int) *fixture {
	t.Helper()
	tgt, err := target.WideBus(16)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tgt.Generate(target.GenSpec{MaxSessions: sessions})
	if err != nil {
		t.Fatal(err)
	}
	models, err := tgt.BusModels(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewTargetRunner(tgt, plan, models)
	if err != nil {
		t.Fatal(err)
	}
	bus, ok := tgt.Topology().Channel("bus")
	if !ok {
		t.Fatal("widebus topology has no bus channel")
	}
	setup := models[bus]
	lib, err := defects.Generate(setup.Nominal, setup.Thresholds,
		defects.Config{Size: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tgt: tgt, plan: plan, models: models, runner: r, bus: bus, lib: lib}
}

func (f *fixture) manifest(t *testing.T, cfg Config) *Manifest {
	t.Helper()
	cfg.PlanHash = "test-plan"
	m, err := BuildManifest(f.plan, func(s int) uint64 { return f.runner.Golden(s).Cycles }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sliceOutcomes runs one slice's sub-plan campaign over the fixture library.
func (f *fixture) sliceOutcomes(t *testing.T, sl Slice) []sim.Outcome {
	t.Helper()
	sub, err := SubPlan(f.plan, sl)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewTargetRunner(f.tgt, sub, f.models)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Campaign(f.bus, f.lib)
	if err != nil {
		t.Fatal(err)
	}
	return res.Outcomes
}

// TestManifestDeterminism pins the slicer's byte-stability: the same plan and
// config render the identical manifest document, and any identity component
// changes the key.
func TestManifestDeterminism(t *testing.T) {
	f := newFixture(t, 6)
	cfg := Config{Seed: 11, Sigma: 0.5, CthFactor: 1.55, SliceCycles: 200}
	a, b := f.manifest(t, cfg), f.manifest(t, cfg)
	var bufA, bufB bytes.Buffer
	if err := WriteManifest(&bufA, a); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(&bufB, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("identical configs rendered different manifests")
	}
	for _, variant := range []Config{
		{Seed: 12, Sigma: 0.5, CthFactor: 1.55, SliceCycles: 200},
		{Seed: 11, Sigma: 0.6, CthFactor: 1.55, SliceCycles: 200},
		{Seed: 11, Sigma: 0.5, CthFactor: 1.6, SliceCycles: 200},
		{Seed: 11, Sigma: 0.5, CthFactor: 1.55, SliceCycles: 100},
	} {
		if f.manifest(t, variant).Key == a.Key {
			t.Fatalf("config variant %+v did not change the manifest key", variant)
		}
	}
}

// TestManifestPartition checks the partition laws: every session of the plan
// lands in exactly one slice, in order, under any budget; a requested slice
// count is honored as a ceiling.
func TestManifestPartition(t *testing.T) {
	f := newFixture(t, 8)
	budgets := []Config{
		{},                     // one session per slice
		{SliceCycles: 1},       // below every session cost: still one per slice
		{SliceCycles: 150},     // mid-range packing
		{SliceCycles: 1 << 40}, // everything in one slice
		{Slices: 1},
		{Slices: 3},
		{Slices: 100}, // more than sessions: degenerates to finest
	}
	for _, cfg := range budgets {
		m := f.manifest(t, cfg)
		if cfg.Slices > 0 && len(m.Slices) > cfg.Slices {
			t.Errorf("config %+v: requested at most %d slices, got %d", cfg, cfg.Slices, len(m.Slices))
		}
		seen := make(map[int]int)
		next := 0
		for _, sl := range m.Slices {
			for _, s := range sl.Sessions {
				seen[s]++
				if s != next {
					t.Fatalf("config %+v: sessions out of order: got %d, want %d", cfg, s, next)
				}
				next++
			}
		}
		if next != len(f.plan.Programs) {
			t.Errorf("config %+v: partition covers %d of %d sessions", cfg, next, len(f.plan.Programs))
		}
		for s, n := range seen {
			if n != 1 {
				t.Errorf("config %+v: session %d appears %d times", cfg, s, n)
			}
		}
	}
}

// TestPartitionBudgetMinimal checks the painter's-partition search: the
// derived budget packs into at most n slices and no smaller budget does.
func TestPartitionBudgetMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		costs := make([]uint64, 1+rng.Intn(12))
		for i := range costs {
			costs[i] = 1 + uint64(rng.Intn(500))
		}
		n := 1 + rng.Intn(len(costs))
		budget := partitionBudget(costs, n)
		if n >= len(costs) {
			if budget != 0 {
				t.Fatalf("n=%d >= %d sessions: budget %d, want 0", n, len(costs), budget)
			}
			continue
		}
		if got := len(firstFit(costs, budget)); got > n {
			t.Fatalf("costs %v n=%d: budget %d packs into %d slices", costs, n, budget, got)
		}
		// Minimality holds over the searched range [max cost, sum]: below the
		// max cost, first-fit still isolates oversized sessions, so budgets
		// smaller than the largest session are never the derived answer.
		var max uint64
		for _, c := range costs {
			if c > max {
				max = c
			}
		}
		if budget > max {
			if got := len(firstFit(costs, budget-1)); got <= n {
				t.Fatalf("costs %v n=%d: budget %d is not minimal (%d also packs into %d)",
					costs, n, budget, budget-1, got)
			}
		}
	}
}

// TestPermutedMergeOrderIdentical is the satellite determinism property: any
// permutation of slice merge order yields the byte-identical merged ledger,
// which in turn equals the one-shot campaign over the full plan.
func TestPermutedMergeOrderIdentical(t *testing.T) {
	f := newFixture(t, 6)
	m := f.manifest(t, Config{Slices: 4})
	if len(m.Slices) < 3 {
		t.Fatalf("fixture produced only %d slices; permutation test needs at least 3", len(m.Slices))
	}
	outs := make([][]sim.Outcome, len(m.Slices))
	for i, sl := range m.Slices {
		outs[i] = f.sliceOutcomes(t, sl)
	}
	oneshot, err := f.runner.Campaign(f.bus, f.lib)
	if err != nil {
		t.Fatal(err)
	}
	oneshot.BusName = "bus"
	// Outcome vectors compare as JSON bytes; the per-fault maps (not
	// byte-stable as raw JSON) compare structurally.
	want, err := json.Marshal(oneshot.Outcomes)
	if err != nil {
		t.Fatal(err)
	}

	merge := func(order []int) *sim.CampaignResult {
		l := NewLedger(len(f.lib.Defects), len(m.Slices), f.bus)
		for _, i := range order {
			if err := l.MergeSlice(i, outs[i], PointMeta{SliceCycles: m.Slices[i].Cycles}); err != nil {
				t.Fatal(err)
			}
		}
		if l.MergedCount() != l.Slices() {
			t.Fatal("ledger not complete after merging every slice")
		}
		return l.Result("bus")
	}
	check := func(order []int) {
		res := merge(order)
		got, err := json.Marshal(res.Outcomes)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("order %v: merged ledger outcomes differ from one-shot campaign", order)
		}
		if res.Total != oneshot.Total || res.Detected != oneshot.Detected || res.Crashed != oneshot.Crashed {
			t.Fatalf("order %v: aggregate %d/%d/%d, one-shot %d/%d/%d", order,
				res.Total, res.Detected, res.Crashed, oneshot.Total, oneshot.Detected, oneshot.Crashed)
		}
		if !reflect.DeepEqual(res.PerFault, oneshot.PerFault) || !reflect.DeepEqual(res.UniqueByFault, oneshot.UniqueByFault) {
			t.Fatalf("order %v: per-fault detection maps differ from one-shot campaign", order)
		}
	}

	forward := make([]int, len(m.Slices))
	for i := range forward {
		forward[i] = i
	}
	check(forward)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		check(rng.Perm(len(m.Slices)))
	}
}

// TestMergeIdempotentAndValidated pins re-merge no-ops and the shape checks,
// and that a refused merge leaves the ledger as it was.
func TestMergeIdempotentAndValidated(t *testing.T) {
	f := newFixture(t, 4)
	m := f.manifest(t, Config{})
	outs := f.sliceOutcomes(t, m.Slices[0])
	l := NewLedger(len(f.lib.Defects), len(m.Slices), f.bus)
	if err := l.MergeSlice(0, outs, PointMeta{}); err != nil {
		t.Fatal(err)
	}
	det, pts := l.Detected(), len(l.Points())
	if err := l.MergeSlice(0, outs, PointMeta{}); err != nil {
		t.Fatalf("re-merge of slice 0: %v", err)
	}
	if l.Detected() != det || len(l.Points()) != pts || l.MergedCount() != 1 {
		t.Fatalf("re-merge changed ledger state: detected %d->%d, points %d->%d, merged %d",
			det, l.Detected(), pts, len(l.Points()), l.MergedCount())
	}
	if err := l.MergeSlice(len(m.Slices), outs, PointMeta{}); err == nil {
		t.Error("out-of-range slice index accepted")
	}
	if err := l.MergeSlice(1, outs[:len(outs)-1], PointMeta{}); err == nil {
		t.Error("short outcome vector accepted")
	}

	// A slice whose last outcome names another defect is refused before
	// any outcome is folded in, so the ledger keeps its state and a correct
	// merge afterwards renders what a clean ledger renders.
	good := f.sliceOutcomes(t, m.Slices[1])
	bad := append([]sim.Outcome(nil), good...)
	bad[len(bad)-1].DefectID++
	before := ledgerState(l)
	if err := l.MergeSlice(1, bad, PointMeta{}); err == nil {
		t.Fatal("outcome of another defect accepted")
	}
	if after := ledgerState(l); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused merge changed the ledger:\nbefore %+v\nafter  %+v", before, after)
	}
	clean := NewLedger(len(f.lib.Defects), len(m.Slices), f.bus)
	for _, ledger := range []*Ledger{l, clean} {
		for i, slice := range [][]sim.Outcome{outs, good} {
			if err := ledger.MergeSlice(i, slice, PointMeta{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := renderLedger(t, l), renderLedger(t, clean); !bytes.Equal(got, want) {
		t.Fatalf("merge after a refused one renders\n%s\nclean ledger renders\n%s", got, want)
	}
}

// ledgerState is a deep copy of what a ledger reports.
func ledgerState(l *Ledger) []any {
	outs := append([]sim.Outcome(nil), l.Outcomes()...)
	return []any{outs, append([]CoveragePoint(nil), l.Points()...), l.Detected(), l.MergedCount()}
}

// renderLedger renders a ledger's outcomes and coverage curve as JSON.
func renderLedger(t *testing.T, l *Ledger) []byte {
	t.Helper()
	b, err := json.Marshal([]any{l.Outcomes(), l.Points()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBuildManifestValidation covers the config rejections.
func TestBuildManifestValidation(t *testing.T) {
	f := newFixture(t, 2)
	cycles := func(s int) uint64 { return f.runner.Golden(s).Cycles }
	if _, err := BuildManifest(&core.Plan{}, cycles, Config{}); err == nil {
		t.Error("empty plan accepted")
	}
	if _, err := BuildManifest(f.plan, cycles, Config{Slices: -1}); err == nil {
		t.Error("negative slice count accepted")
	}
	if _, err := BuildManifest(f.plan, cycles, Config{Slices: 2, SliceCycles: 100}); err == nil {
		t.Error("slice count and cycle budget together accepted")
	}
}

// TestSubPlanValidation covers slice/plan mismatches.
func TestSubPlanValidation(t *testing.T) {
	f := newFixture(t, 3)
	if _, err := SubPlan(f.plan, Slice{Index: 0, Sessions: []int{len(f.plan.Programs)}}); err == nil {
		t.Error("out-of-range session accepted")
	}
	if _, err := SubPlan(f.plan, Slice{Index: 0}); err == nil {
		t.Error("empty slice accepted")
	}
	sub, err := SubPlan(f.plan, Slice{Index: 0, Sessions: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Programs) != 1 || sub.Programs[0] != f.plan.Programs[1] {
		t.Fatal("sub-plan does not share the full plan's session program")
	}
	if sub.Target != f.plan.Target {
		t.Fatalf("sub-plan target %q, want %q", sub.Target, f.plan.Target)
	}
}
