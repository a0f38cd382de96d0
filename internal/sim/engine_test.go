package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/maf"
)

// comparable is the engine-independent part of an Outcome: the fields a
// campaign report is built from.
type comparable struct {
	Detected    bool
	Crashed     bool
	DetectedBy  string
	Activations int
}

func comparableOf(out Outcome) comparable {
	return comparable{
		Detected:    out.Detected,
		Crashed:     out.Crashed,
		DetectedBy:  fmt.Sprint(out.DetectedBy),
		Activations: out.Activations,
	}
}

// TestEnginesAgreeProperty is the screening-soundness property test: over
// randomized defect libraries and seeds on both busses, a single-defect
// Batch run (screen + resumed execution) must return exactly the Outcome the
// Execute engine (full per-session CPU execution) returns, and a defect the
// screen clears must fire no crosstalk event under Execute.
func TestEnginesAgreeProperty(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Generate(core.GenConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		bus   core.BusID
		setup BusSetup
		sigma float64
		seed  int64
	}{
		{core.AddrBus, addr, 0.30, 101},
		{core.AddrBus, addr, 0.45, 202},
		{core.DataBus, data, 0.30, 303},
		{core.DataBus, data, 0.45, 404},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("%v/sigma%.2f/seed%d", c.bus, c.sigma, c.seed), func(t *testing.T) {
			lib, err := defects.Generate(c.setup.Nominal, c.setup.Thresholds,
				defects.Config{Size: 12, Sigma: c.sigma, Seed: c.seed})
			if err != nil {
				t.Fatal(err)
			}
			// Library defects are all detectable by construction; add raw
			// perturbations (detectable or not) so the screen-clean path is
			// exercised as well as the fallback path.
			params := make([]*crosstalk.Params, 0, 2*len(lib.Defects))
			for _, d := range lib.Defects {
				params = append(params, d.Params)
			}
			rng := rand.New(rand.NewSource(c.seed ^ 0x5eed))
			for i := 0; i < 12; i++ {
				params = append(params, defects.Perturb(c.setup.Nominal, c.sigma/2, rng))
			}
			sawReplayed, sawFallback := false, false
			for i, p := range params {
				exec, err := r.RunDefectEngine(c.bus, p, Execute)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := r.RunDefectEngine(c.bus, p, Batch)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := comparableOf(batch), comparableOf(exec); !reflect.DeepEqual(got, want) {
					t.Errorf("defect %d: batch %+v != execute %+v", i, got, want)
				}
				if batch.Replayed {
					sawReplayed = true
					if exec.Activations != 0 {
						t.Errorf("defect %d: screen-clean defect fired %d events under execute", i, exec.Activations)
					}
				} else {
					sawFallback = true
				}
			}
			if !sawReplayed || !sawFallback {
				t.Logf("coverage note: replayed=%v fallback=%v (both paths ideally exercised)",
					sawReplayed, sawFallback)
			}
		})
	}
}

// TestEngineStatsAccounting checks the screened/fallback/execute counters add
// up across campaigns.
func TestEngineStatsAccounting(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Generate(core.GenConfig{SkipAddrBus: true})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(data.Nominal, data.Thresholds, defects.Config{Size: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.CampaignCtx(context.Background(), core.DataBus, lib, CampaignOpts{Engine: Batch}); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.BatchScreened+st.Fallbacks != int64(len(lib.Defects)) {
		t.Errorf("batch: screened %d + fallbacks %d != %d defects",
			st.BatchScreened, st.Fallbacks, len(lib.Defects))
	}
	if st.Executes != 0 {
		t.Errorf("batch: unexpected executes=%d", st.Executes)
	}
	if st.MemoHits != 0 || st.MemoMisses != 0 {
		t.Errorf("batch: memo traffic %d hits / %d misses, want none (production runs memoize no channel)",
			st.MemoHits, st.MemoMisses)
	}

	r2, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.CampaignCtx(context.Background(), core.DataBus, lib, CampaignOpts{Engine: Execute}); err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Executes != int64(len(lib.Defects)) || st.BatchScreened != 0 || st.Fallbacks != 0 || st.BatchSweeps != 0 {
		t.Errorf("execute: stats = %+v", st)
	}
}

// TestFig11EngineEquivalence builds the per-line plans a rank job runs on
// the data bus (each line's MA tests alone, compacted) and checks that every
// one gives the same outcomes under both engines.
func TestFig11EngineEquivalence(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(data.Nominal, data.Thresholds, defects.Config{Size: 15, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for w := 0; w < data.Nominal.Width; w++ {
		plan, err := core.Generate(core.GenConfig{SkipAddrBus: true, Compaction: true,
			Filter: func(f maf.Fault) bool { return f.Victim == w }})
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.Programs) == 0 {
			continue
		}
		lines++
		var outs [2][]comparable
		for i, engine := range []Engine{Batch, Execute} {
			r, err := NewRunner(plan, addr, data)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.CampaignCtx(context.Background(), core.DataBus, lib, CampaignOpts{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			for _, out := range res.Outcomes {
				outs[i] = append(outs[i], comparableOf(out))
			}
		}
		if !reflect.DeepEqual(outs[0], outs[1]) {
			t.Errorf("line %d: batch outcomes %+v != execute outcomes %+v", w+1, outs[0], outs[1])
		}
	}
	if lines != data.Nominal.Width {
		t.Fatalf("%d of %d lines have an applicable test", lines, data.Nominal.Width)
	}
}
