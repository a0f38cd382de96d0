package sim

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/maf"
	"repro/internal/target"
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
	if st.Executes != 0 {
		t.Errorf("batch campaign leaked into the Execute tier: %+v", st)
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

// TestGoldenEventsRefused pins the screen's precondition: a runner whose
// nominal channel already errs on its golden traffic (here a widebus8 glitch
// margin of 0.5, so receivers latch glitches below Cth) cannot read "identical
// to golden" off the trace, and NewTargetRunner refuses it, naming the
// session and its event count.
func TestGoldenEventsRefused(t *testing.T) {
	tgt, err := target.WideBus(8)
	if err != nil {
		t.Fatal(err)
	}
	models, err := tgt.BusModels(0)
	if err != nil {
		t.Fatal(err)
	}
	if models[0].Thresholds, err = crosstalk.DeriveThresholdsMargin(models[0].Nominal, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	plan, err := tgt.Generate(target.GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewTargetRunner(tgt, plan, models)
	if err == nil {
		t.Fatalf("runner accepted event-bearing golden traffic (stats %+v)", r.Stats())
	}
	if want := "golden run of session 0 suffers 12 crosstalk events"; !strings.Contains(err.Error(), want) {
		t.Fatalf("refusal %q does not name %q", err, want)
	}
}

// TestBusBoundsCheckedOnEveryEngine is the bounds-check bugfix's pin: an
// out-of-range channel must fail identically on both engines and on the
// batched campaign path, and record no engine counter.
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
	r, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, bus := range []core.BusID{core.BusID(2), core.BusID(-1)} {
		for _, eng := range []Engine{Execute, Batch} {
			if _, err := r.RunDefectEngine(bus, lib.Defects[0].Params, eng); err == nil {
				t.Errorf("engine %v: out-of-range bus %d accepted", eng, bus)
			}
		}
		if _, err := r.CampaignCtx(context.Background(), bus, lib, CampaignOpts{Engine: Batch}); err == nil {
			t.Errorf("batched campaign accepted out-of-range bus %d", bus)
		}
	}
	if st := r.Stats(); st != (EngineStats{}) {
		t.Errorf("rejected runs recorded counters: %+v", st)
	}
}

// TestOutcomeShapeAcrossEngines: both engines' outcomes leave through the
// same judge, so for the same defect the report-visible fields must marshal
// to identical JSON, and DetectedBy must walk its faults in canonical order
// under both.
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
			if !sorted(out.DetectedBy.Faults()) {
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
