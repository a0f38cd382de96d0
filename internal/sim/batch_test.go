package sim

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/defects"
	"repro/internal/maf"
)

// mixedLibrary builds a defect library that exercises both batch verdicts:
// generated defects (detectable by construction, so they diverge and reach
// the resume tier) plus raw perturbations (mostly sub-threshold, so the
// sweep clears them in O(1)).
func mixedLibrary(t *testing.T, setup BusSetup, seed int64) *defects.Library {
	t.Helper()
	lib, err := defects.Generate(setup.Nominal, setup.Thresholds,
		defects.Config{Size: 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < 14; i++ {
		lib.Defects = append(lib.Defects, defects.Defect{
			ID:     len(lib.Defects),
			Params: defects.Perturb(setup.Nominal, defects.DefaultSigma/3, rng),
		})
	}
	return lib
}

// TestBatchEngineMixedLibrary runs a library holding both clean and
// divergent defects through the batched campaign and requires (a) outcomes
// identical to the Execute reference, (b) the clean defects settled by the
// sweep alone — no Execute-tier runs at all — and (c) one sweep per session
// regardless of library size.
func TestBatchEngineMixedLibrary(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Generate(core.GenConfig{SkipAddrBus: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := mixedLibrary(t, data, 41)

	ref, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.CampaignCtx(context.Background(), core.DataBus, lib, CampaignOpts{Engine: Execute})
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.CampaignCtx(context.Background(), core.DataBus, lib, CampaignOpts{Engine: Batch})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Outcomes {
		if g, w := comparableOf(got.Outcomes[i]), comparableOf(want.Outcomes[i]); !reflect.DeepEqual(g, w) {
			t.Errorf("defect %d: batch %+v != execute %+v", i, g, w)
		}
	}

	st := r.Stats()
	if st.Executes != 0 || st.DegradedExecutes != 0 {
		t.Errorf("batch campaign leaked into other tiers: %+v", st)
	}
	if st.BatchScreened == 0 {
		t.Error("no defect settled by the sweep; the mixed library should hold clean perturbations")
	}
	if st.Fallbacks == 0 {
		t.Error("no defect reached the resume tier; the mixed library should hold divergent defects")
	}
	if st.BatchScreened+st.Fallbacks != int64(len(lib.Defects)) {
		t.Errorf("batchScreened %d + fallbacks %d != %d defects",
			st.BatchScreened, st.Fallbacks, len(lib.Defects))
	}
	if st.BatchSweeps != int64(len(plan.Programs)) {
		t.Errorf("%d sweeps, want one per session (%d)", st.BatchSweeps, len(plan.Programs))
	}
}

// TestSingleDefectIsBatchOfOne pins the single-defect path: RunDefect screens
// a one-defect batch and resumes its divergent sessions, so each run returns
// the outcome (including the Replayed verdict) the library campaign gives the
// same defect, and sweeps every session once.
func TestSingleDefectIsBatchOfOne(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Generate(core.GenConfig{SkipAddrBus: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := mixedLibrary(t, data, 43)
	r, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := r.CampaignCtx(context.Background(), core.DataBus, lib, CampaignOpts{})
	if err != nil {
		t.Fatal(err)
	}
	before := r.Stats()
	for i, d := range lib.Defects {
		out, err := r.RunDefect(core.DataBus, d.Params)
		if err != nil {
			t.Fatal(err)
		}
		want := camp.Outcomes[i]
		if !reflect.DeepEqual(comparableOf(out), comparableOf(want)) || out.Replayed != want.Replayed {
			t.Errorf("defect %d: single run %+v != campaign %+v", i, out, want)
		}
	}
	after := r.Stats()
	n := int64(len(lib.Defects))
	if got := after.BatchSweeps - before.BatchSweeps; got != n*int64(len(plan.Programs)) {
		t.Errorf("%d single-defect sweeps, want %d (one per session per run)", got, n*int64(len(plan.Programs)))
	}
	if got, want := after.BatchScreened-before.BatchScreened, before.BatchScreened; got != want {
		t.Errorf("single runs screened %d defects clean, campaign %d", got, want)
	}
	if got, want := after.Fallbacks-before.Fallbacks, before.Fallbacks; got != want {
		t.Errorf("single runs fell back %d times, campaign %d", got, want)
	}
}

// TestDegradedExecuteAccounting is the accounting bugfix's pin: when the
// screening precondition is void (golden traffic itself errs), Batch runs as
// full Execute, but those runs must be counted under the distinct
// DegradedExecutes — not blended into Executes — and a batched campaign must
// not sweep at all.
func TestDegradedExecuteAccounting(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Generate(core.GenConfig{SkipAddrBus: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := mixedLibrary(t, data, 47)

	ref, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	r.replayOK = false // as if the golden runs had suffered events

	for i, d := range lib.Defects {
		want, err := ref.RunDefectEngine(core.DataBus, d.Params, Execute)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.RunDefectEngine(core.DataBus, d.Params, Batch)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(comparableOf(got), comparableOf(want)) {
			t.Errorf("defect %d: degraded run %+v != execute %+v", i, got, want)
		}
	}
	st := r.Stats()
	if want := int64(len(lib.Defects)); st.DegradedExecutes != want {
		t.Errorf("degradedExecutes = %d, want %d", st.DegradedExecutes, want)
	}
	if st.Executes != 0 {
		t.Errorf("degraded runs leaked into Executes (%d); they were not requested as Execute", st.Executes)
	}
	if st.BatchScreened != 0 || st.Fallbacks != 0 || st.BatchSweeps != 0 {
		t.Errorf("degraded runner recorded screening-tier counters: %+v", st)
	}

	// A whole batched campaign on a degraded runner: every defect degrades,
	// nothing is swept.
	r2, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	r2.replayOK = false
	if _, err := r2.CampaignCtx(context.Background(), core.DataBus, lib, CampaignOpts{Engine: Batch}); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.DegradedExecutes != int64(len(lib.Defects)) || st.BatchSweeps != 0 {
		t.Errorf("degraded batch campaign stats: %+v", st)
	}
}

// TestBusBoundsCheckedOnEveryEngine is the bounds-check bugfix's pin: an
// out-of-range channel must fail identically on both engines — including
// degraded runs — and on the batched campaign path.
func TestBusBoundsCheckedOnEveryEngine(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Generate(core.GenConfig{SkipAddrBus: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := mixedLibrary(t, data, 53)
	for _, degraded := range []bool{false, true} {
		r, err := NewRunner(plan, addr, data)
		if err != nil {
			t.Fatal(err)
		}
		r.replayOK = !degraded
		for _, bus := range []core.BusID{core.BusID(2), core.BusID(-1)} {
			for _, eng := range []Engine{Execute, Batch} {
				if _, err := r.RunDefectEngine(bus, lib.Defects[0].Params, eng); err == nil {
					t.Errorf("degraded=%v engine %v: out-of-range bus %d accepted", degraded, eng, bus)
				}
			}
			if _, err := r.CampaignCtx(context.Background(), bus, lib, CampaignOpts{Engine: Batch}); err == nil {
				t.Errorf("degraded=%v: batched campaign accepted out-of-range bus %d", degraded, bus)
			}
		}
		if st := r.Stats(); st != (EngineStats{}) {
			t.Errorf("degraded=%v: rejected runs recorded counters: %+v", degraded, st)
		}
	}
}

// TestOutcomeShapeAcrossEngines is the normalize bugfix's pin: both engines'
// outcomes leave through the same canonicalization, so for the same defect
// the report-visible fields must marshal to identical JSON, and DetectedBy
// must be sorted and deduplicated under both.
func TestOutcomeShapeAcrossEngines(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Generate(core.GenConfig{SkipAddrBus: true})
	if err != nil {
		t.Fatal(err)
	}
	lib := mixedLibrary(t, data, 59)
	r, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	sorted := func(fs []maf.Fault) bool {
		for i := 1; i < len(fs); i++ {
			if maf.Compare(fs[i-1], fs[i]) >= 0 {
				return false
			}
		}
		return true
	}
	for i, d := range lib.Defects {
		shapes := make(map[Engine][]byte)
		for _, eng := range []Engine{Execute, Batch} {
			out, err := r.RunDefectEngine(core.DataBus, d.Params, eng)
			if err != nil {
				t.Fatal(err)
			}
			if !sorted(out.DetectedBy) {
				t.Errorf("defect %d engine %v: DetectedBy not in canonical order: %v", i, eng, out.DetectedBy)
			}
			// Replayed is engine attribution (Execute never screens), not a
			// report-visible field; it marshals only for the shard wire.
			out.Replayed = false
			js, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			shapes[eng] = js
		}
		if string(shapes[Execute]) != string(shapes[Batch]) {
			t.Errorf("defect %d: engines disagree:\nexecute: %s\nbatch:   %s",
				i, shapes[Execute], shapes[Batch])
		}
	}
}
