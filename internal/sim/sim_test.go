package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/crosstalk"
	"repro/internal/defects"
	"repro/internal/maf"
	"repro/internal/parwan"
)

func newRunner(t *testing.T, cfg core.GenConfig) *Runner {
	t.Helper()
	plan, err := core.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// singleWireDefect scales one victim's couplings to factor * Cth.
func singleWireDefect(t *testing.T, setup BusSetup, victim int, factor float64) *crosstalk.Params {
	t.Helper()
	p := setup.Nominal.Clone()
	scale := factor * setup.Thresholds.Cth / p.NetCoupling(victim)
	for j := 0; j < p.Width; j++ {
		if j != victim {
			p.Cc[victim][j] *= scale
			p.Cc[j][victim] *= scale
		}
	}
	return p
}

func TestDefaultSetups(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	if addr.Nominal.Width != parwan.AddrBits || data.Nominal.Width != parwan.DataBits {
		t.Errorf("widths = %d/%d", addr.Nominal.Width, data.Nominal.Width)
	}
}

func TestGoldenRunsHaltAndCount(t *testing.T) {
	r := newRunner(t, core.GenConfig{})
	if r.GoldenCycles() == 0 {
		t.Error("golden cycle count is zero")
	}
	// The paper's complete program executed in 1720 cycles; ours should be
	// the same order of magnitude (hundreds to a few thousand).
	if r.GoldenCycles() < 500 || r.GoldenCycles() > 50000 {
		t.Errorf("golden cycles = %d, expected order of 10^3", r.GoldenCycles())
	}
	for s := range r.Plan().Programs {
		g := r.Golden(s)
		if !g.Halted || g.ExecErr != nil {
			t.Errorf("session %d golden: halted=%v err=%v", s, g.Halted, g.ExecErr)
		}
	}
}

func TestNominalDefectNotDetected(t *testing.T) {
	r := newRunner(t, core.GenConfig{})
	addr, _, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.RunDefect(core.AddrBus, addr.Nominal)
	if err != nil {
		t.Fatal(err)
	}
	if out.Detected {
		t.Errorf("nominal parameters flagged as defective: %+v", out)
	}
}

// TestSingleWireDefectsDetected: a defect on each *interior* wire of either
// bus is caught. (Edge wires never exceed Cth under the Gaussian process —
// that is Fig. 11's point — so this synthetic scaling only exercises wires
// whose tests were applied.)
func TestSingleWireDefectsDetected(t *testing.T) {
	r := newRunner(t, core.GenConfig{})
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	for w := 2; w <= 9; w++ {
		out, err := r.RunDefect(core.AddrBus, singleWireDefect(t, addr, w, 1.4))
		if err != nil {
			t.Fatal(err)
		}
		if !out.Detected {
			t.Errorf("address-bus defect on wire %d missed", w)
		}
	}
	for w := 1; w <= 6; w++ {
		out, err := r.RunDefect(core.DataBus, singleWireDefect(t, data, w, 1.4))
		if err != nil {
			t.Fatal(err)
		}
		if !out.Detected {
			t.Errorf("data-bus defect on wire %d missed", w)
		}
	}
}

// TestAttribution: a defect on one address wire is attributed to tests
// whose victim is that wire (possibly among others via incidental traffic).
func TestAttribution(t *testing.T) {
	r := newRunner(t, core.GenConfig{})
	addr, _, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	const victim = 5
	out, err := r.RunDefect(core.AddrBus, singleWireDefect(t, addr, victim, 1.2))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected || out.DetectedBy.Len() == 0 {
		t.Fatalf("defect not detected: %+v", out)
	}
	foundVictim := false
	for _, f := range out.DetectedBy.Faults() {
		if f.Victim == victim {
			foundVictim = true
		}
	}
	if !foundVictim {
		t.Errorf("no detecting test targets wire %d: %v", victim, out.DetectedBy)
	}
}

func TestCampaignAddressBus(t *testing.T) {
	r := newRunner(t, core.GenConfig{})
	addr, _, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(addr.Nominal, addr.Thresholds, defects.Config{Size: 60, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Campaign(core.AddrBus, lib)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 60 {
		t.Fatalf("total = %d", res.Total)
	}
	// The paper reports 100% coverage on its library; with most address
	// tests applied, coverage should be at or near complete.
	if res.Coverage() < 0.95 {
		t.Errorf("address-bus coverage = %.3f, want >= 0.95", res.Coverage())
	}
	if len(res.Outcomes) != 60 {
		t.Errorf("outcomes = %d", len(res.Outcomes))
	}
}

func TestCampaignDataBus(t *testing.T) {
	r := newRunner(t, core.GenConfig{})
	_, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(data.Nominal, data.Thresholds, defects.Config{Size: 60, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Campaign(core.DataBus, lib)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < 0.95 {
		t.Errorf("data-bus coverage = %.3f, want >= 0.95 (got %d/%d)",
			res.Coverage(), res.Detected, res.Total)
	}
}

// TestFig11Shape reproduces the paper's Fig. 11 claims on a reduced
// library: centre wires have higher individual coverage than edge wires,
// edge wires have (near) zero — no Gaussian perturbation pushes their small
// nominal coupling past Cth — and cumulative coverage is monotone and
// (near) complete.
func TestFig11Shape(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(addr.Nominal, addr.Thresholds, defects.Config{Size: 120, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := Fig11Campaign(addr, data, core.AddrBus, lib, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != parwan.AddrBits {
		t.Fatalf("series length = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Cumulative < pts[i-1].Cumulative {
			t.Fatalf("cumulative coverage not monotone at wire %d", i)
		}
	}
	centre := (pts[5].Individual + pts[6].Individual) / 2
	edge := (pts[0].Individual + pts[11].Individual) / 2
	if centre <= edge {
		t.Errorf("centre coverage %.3f not above edge %.3f", centre, edge)
	}
	if pts[0].Individual > 0.05 {
		t.Errorf("edge wire 0 individual coverage %.3f, expected near zero", pts[0].Individual)
	}
	if final := pts[len(pts)-1].Cumulative; final < 0.95 {
		t.Errorf("final cumulative coverage = %.3f, want near-complete", final)
	}
}

// TestFig11SeriesApproximation: the cheap single-campaign attribution is
// monotone and consistent with the campaign's total coverage.
func TestFig11SeriesApproximation(t *testing.T) {
	r := newRunner(t, core.GenConfig{})
	addr, _, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(addr.Nominal, addr.Thresholds, defects.Config{Size: 40, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Campaign(core.AddrBus, lib)
	if err != nil {
		t.Fatal(err)
	}
	pts := Fig11Series(res, parwan.AddrBits)
	for i := 1; i < len(pts); i++ {
		if pts[i].Cumulative < pts[i-1].Cumulative {
			t.Fatalf("cumulative not monotone at wire %d", i)
		}
	}
	if final := pts[len(pts)-1].Cumulative; final > res.Coverage()+1e-9 {
		t.Errorf("final cumulative %.3f exceeds total coverage %.3f", final, res.Coverage())
	}
}

func TestFig11EmptyCampaign(t *testing.T) {
	if pts := Fig11Series(&CampaignResult{}, 12); pts != nil {
		t.Errorf("empty campaign produced series %v", pts)
	}
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fig11Campaign(addr, data, core.AddrBus, &defects.Library{Nominal: addr.Nominal}, false); err == nil {
		t.Error("empty library accepted")
	}
}

// TestOverlapAccounting: UniqueByFault never exceeds PerFault.
func TestOverlapAccounting(t *testing.T) {
	r := newRunner(t, core.GenConfig{})
	addr, _, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(addr.Nominal, addr.Thresholds, defects.Config{Size: 50, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Campaign(core.AddrBus, lib)
	if err != nil {
		t.Fatal(err)
	}
	for f, u := range res.UniqueByFault {
		if u > res.PerFault[f] {
			t.Errorf("%v: unique %d > detected %d", f, u, res.PerFault[f])
		}
	}
}

// TestCompactionCoverage: compacted responses achieve comparable coverage.
func TestCompactionCoverage(t *testing.T) {
	r := newRunner(t, core.GenConfig{Compaction: true})
	_, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := defects.Generate(data.Nominal, data.Thresholds, defects.Config{Size: 40, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Campaign(core.DataBus, lib)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() < 0.9 {
		t.Errorf("compacted coverage = %.3f", res.Coverage())
	}
}

// TestFaultDirectionality: with a weak reverse driver, a delay defect just
// below the forward threshold is caught only via reverse-direction tests —
// the reason the paper tests the data bus in both directions.
func TestFaultDirectionality(t *testing.T) {
	r := newRunner(t, core.GenConfig{})
	_, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	p := singleWireDefect(t, data, 4, 0.97) // just below Cth
	p.RDrive[maf.Reverse] *= 1.25           // weak CPU-side driver
	out, err := r.RunDefect(core.DataBus, p)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Detected {
		t.Error("direction-dependent defect missed")
	}
}
