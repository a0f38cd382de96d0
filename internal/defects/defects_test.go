package defects

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/crosstalk"
)

func setup(t *testing.T, width int) (*crosstalk.Params, crosstalk.Thresholds) {
	t.Helper()
	nom := crosstalk.Nominal(width)
	th, err := crosstalk.DeriveThresholds(nom, 0)
	if err != nil {
		t.Fatal(err)
	}
	return nom, th
}

func TestGenerateDeterministic(t *testing.T) {
	nom, th := setup(t, 8)
	cfg := Config{Size: 25, Seed: 42}
	a, err := Generate(nom, th, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(nom, th, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalAttempts != b.TotalAttempts {
		t.Fatalf("attempts differ: %d vs %d", a.TotalAttempts, b.TotalAttempts)
	}
	for i := range a.Defects {
		pa, pb := a.Defects[i].Params, b.Defects[i].Params
		for x := range pa.Cc {
			for y := range pa.Cc[x] {
				if pa.Cc[x][y] != pb.Cc[x][y] {
					t.Fatalf("defect %d differs at Cc[%d][%d]", i, x, y)
				}
			}
		}
	}
}

// serialGenerate is Generate's reference: the serial rejection loop, one
// Perturb-style draw into a scratch set per attempt (perturbInto) judged by
// OverThresholdWires, and a clone of each accepted draw.
func serialGenerate(nominal *crosstalk.Params, th crosstalk.Thresholds, cfg Config) (*Library, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	lib := &Library{Nominal: nominal, Thresholds: th, Sigma: cfg.Sigma, Seed: cfg.Seed}
	draw := nominal.Clone()
	for len(lib.Defects) < cfg.Size {
		attempts := 0
		for {
			attempts++
			lib.TotalAttempts++
			if attempts > maxAttemptsPerDefect {
				return nil, errors.New("never crosses Cth")
			}
			perturbInto(draw, nominal, cfg.Sigma, rng)
			over := OverThresholdWires(draw, th.Cth)
			if len(over) == 0 {
				continue
			}
			lib.Defects = append(lib.Defects, Defect{ID: len(lib.Defects), Params: draw.Clone(), OverThreshold: over, Attempts: attempts})
			break
		}
	}
	return lib, nil
}

// goroutinesBackTo reports whether the goroutine count falls back to n
// within a second. Generate returns once its drawing goroutine has
// signalled that it is done, so that goroutine may still be returning; one
// that never exits keeps the count up.
func goroutinesBackTo(n int) bool {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if runtime.NumGoroutine() <= n {
			return true
		}
	}
	return false
}

// TestGenerateMatchesSerialReference pins Generate, its normals drawn on a
// goroutine of their own and judged as they arrive, to the serial loop:
// the same defect bytes (parameters included), the same attempts per
// defect and in total, over bus widths from 2 to 64 wires (one value per
// attempt up to 2,016, so blocks hold from one to thousands of attempts),
// σ 0.25, 0.5 and 2.0 (which clamps couplings at zero), one defect (seeds
// 1, 2 and 19) and 257 (seeds 1 and 19). No goroutine outlives a call. At
// σ 0.25 the threshold factor is 1.2, so that a 257-defect library of a
// wide bus takes milliseconds rather than minutes of rejected draws.
//
// Random thresholds rarely fall within a rounding of a net coupling, so the
// test also sets Cth to the largest net coupling of the serial loop's first
// draw, and to the next float below it: a net sum that differs from
// NetCoupling's by any rounding then flips that draw's verdict one way or
// the other.
func TestGenerateMatchesSerialReference(t *testing.T) {
	seeds := map[int][]int64{1: {1, 2, 19}, 257: {1, 19}}
	for _, width := range []int{2, 8, 12, 33, 64} {
		for _, sigma := range []float64{0.25, 0.5, 2.0} {
			nom := crosstalk.Nominal(width)
			factor := 0.0
			if sigma == 0.25 {
				factor = 1.2
			}
			th, err := crosstalk.DeriveThresholds(nom, factor)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range []int{1, 257} {
				for _, seed := range seeds[size] {
					t.Run(fmt.Sprintf("w%d/s%g/n%d/seed%d", width, sigma, size, seed), func(t *testing.T) {
						checkGenerate(t, nom, th, Config{Sigma: sigma, Size: size, Seed: seed})
					})
				}
			}
		}
	}
	for _, width := range []int{12, 33, 64} {
		nom := crosstalk.Nominal(width)
		th, err := crosstalk.DeriveThresholds(nom, 0)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 8; seed++ {
			first := nom.Clone()
			perturbInto(first, nom, DefaultSigma, rand.New(rand.NewSource(seed)))
			most := first.MaxNetCoupling()
			for _, cth := range []float64{most, math.Nextafter(most, 0)} {
				th.Cth = cth
				t.Run(fmt.Sprintf("w%d/tie/seed%d/cth%x", width, seed, math.Float64bits(cth)), func(t *testing.T) {
					checkGenerate(t, nom, th, Config{Sigma: DefaultSigma, Size: 1, Seed: seed})
				})
			}
		}
	}
}

// checkGenerate compares Generate with serialGenerate on one input.
func checkGenerate(t *testing.T, nom *crosstalk.Params, th crosstalk.Thresholds, cfg Config) {
	t.Helper()
	want, err := serialGenerate(nom, th, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	got, err := Generate(nom, th, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !goroutinesBackTo(before) {
		t.Fatalf("%d goroutines after Generate, %d before", runtime.NumGoroutine(), before)
	}
	if got.TotalAttempts != want.TotalAttempts {
		t.Fatalf("TotalAttempts %d, serial %d", got.TotalAttempts, want.TotalAttempts)
	}
	for i := range want.Defects {
		if got.Defects[i].Attempts != want.Defects[i].Attempts {
			t.Fatalf("defect %d: %d attempts, serial %d", i, got.Defects[i].Attempts, want.Defects[i].Attempts)
		}
	}
	gb, err := json.Marshal(got.Defects)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want.Defects)
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != string(wb) {
		t.Fatal("defect bytes differ from the serial reference")
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	nom, th := setup(t, 8)
	a, err := Generate(nom, th, Config{Size: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(nom, th, Config{Size: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Defects {
		if a.Defects[i].Params.Cc[0][1] != b.Defects[i].Params.Cc[0][1] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical defects")
	}
}

func TestEveryDefectIsDetectable(t *testing.T) {
	nom, th := setup(t, 12)
	lib, err := Generate(nom, th, Config{Size: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lib.Defects {
		if len(d.OverThreshold) == 0 {
			t.Fatalf("defect %d has no over-threshold wire", d.ID)
		}
		for _, w := range d.OverThreshold {
			if d.Params.NetCoupling(w) <= th.Cth {
				t.Fatalf("defect %d wire %d listed but net coupling %g <= Cth %g",
					d.ID, w, d.Params.NetCoupling(w), th.Cth)
			}
		}
		// And wires not listed are genuinely under threshold.
		listed := make(map[int]bool)
		for _, w := range d.OverThreshold {
			listed[w] = true
		}
		for i := 0; i < d.Params.Width; i++ {
			if !listed[i] && d.Params.NetCoupling(i) > th.Cth {
				t.Fatalf("defect %d wire %d over threshold but unlisted", d.ID, i)
			}
		}
	}
}

func TestDefectParamsStillValid(t *testing.T) {
	nom, th := setup(t, 8)
	lib, err := Generate(nom, th, Config{Size: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lib.Defects {
		if err := d.Params.Validate(); err != nil {
			t.Fatalf("defect %d invalid: %v", d.ID, err)
		}
	}
}

func TestDefectIDsSequential(t *testing.T) {
	nom, th := setup(t, 8)
	lib, err := Generate(nom, th, Config{Size: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range lib.Defects {
		if d.ID != i {
			t.Errorf("defect at index %d has ID %d", i, d.ID)
		}
		if d.Attempts < 1 {
			t.Errorf("defect %d reports %d attempts", i, d.Attempts)
		}
	}
}

// TestCentreWiresDominal: centre wires appear over threshold far more often
// than edge wires — the defect-population shape behind Fig. 11, where the MA
// tests for the side interconnects have little or no coverage.
func TestCentreWiresDominate(t *testing.T) {
	nom, th := setup(t, 12)
	lib, err := Generate(nom, th, Config{Size: 300, Seed: 2001})
	if err != nil {
		t.Fatal(err)
	}
	hist := lib.VictimHistogram()
	centre := hist[5] + hist[6]
	edge := hist[0] + hist[11]
	if centre == 0 {
		t.Fatal("no centre-wire defects at all")
	}
	if edge*10 > centre {
		t.Errorf("edge wires too frequent: edge=%d centre=%d (hist=%v)", edge, centre, hist)
	}
}

func TestAcceptanceRate(t *testing.T) {
	nom, th := setup(t, 12)
	lib, err := Generate(nom, th, Config{Size: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r := lib.AcceptanceRate()
	if r <= 0 || r > 1 {
		t.Errorf("acceptance rate %g outside (0,1]", r)
	}
	empty := &Library{}
	if empty.AcceptanceRate() != 0 {
		t.Error("empty library acceptance rate nonzero")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	nom, th := setup(t, 8)
	if _, err := Generate(nom, th, Config{Sigma: -1}); err == nil {
		t.Error("negative sigma accepted")
	}
	// NaN used to spin through every attempt and +Inf to build a library.
	for _, sigma := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := Generate(nom, th, Config{Size: 1, Sigma: sigma})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("sigma %g", sigma)) {
			t.Errorf("sigma %g: err = %v, want a refusal naming it", sigma, err)
		}
	}
	if _, err := Generate(nom, th, Config{Size: -5}); err == nil {
		t.Error("negative size accepted")
	}
	bad := nom.Clone()
	bad.Vdd = 0
	if _, err := Generate(bad, th, Config{Size: 1}); err == nil {
		t.Error("invalid nominal accepted")
	}
	if _, err := Generate(nom, crosstalk.Thresholds{}, Config{Size: 1}); err == nil {
		t.Error("invalid thresholds accepted")
	}
}

func TestGenerateDefaults(t *testing.T) {
	nom, th := setup(t, 4)
	lib, err := Generate(nom, th, Config{Size: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lib.Sigma != DefaultSigma {
		t.Errorf("sigma defaulted to %g, want %g", lib.Sigma, DefaultSigma)
	}
}

func TestPerturbPreservesSymmetryAndClamps(t *testing.T) {
	nom := crosstalk.Nominal(8)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		p := Perturb(nom, 2.0, rng) // huge sigma to force clamping
		for i := range p.Cc {
			for j := range p.Cc[i] {
				if p.Cc[i][j] != p.Cc[j][i] {
					t.Fatalf("asymmetric after perturb: Cc[%d][%d]", i, j)
				}
				if p.Cc[i][j] < 0 {
					t.Fatalf("negative capacitance after perturb: Cc[%d][%d] = %g", i, j, p.Cc[i][j])
				}
			}
		}
		// Ground capacitance and drive are not perturbed.
		for i := range p.Cg {
			if p.Cg[i] != nom.Cg[i] {
				t.Fatal("ground capacitance perturbed")
			}
		}
	}
}

// TestPerturbMeanPreserved: with many samples, the mean perturbed coupling is
// close to nominal (the distribution is centred).
func TestPerturbMeanPreserved(t *testing.T) {
	nom := crosstalk.Nominal(4)
	rng := rand.New(rand.NewSource(77))
	const n = 4000
	var sum float64
	for k := 0; k < n; k++ {
		p := Perturb(nom, DefaultSigma, rng)
		sum += p.Cc[1][2]
	}
	mean := sum / n
	if rel := math.Abs(mean-nom.Cc[1][2]) / nom.Cc[1][2]; rel > 0.05 {
		t.Errorf("mean coupling drifted by %.1f%%", rel*100)
	}
}

func TestOverThresholdWires(t *testing.T) {
	nom := crosstalk.Nominal(8)
	// Threshold below every net coupling: all wires listed.
	all := OverThresholdWires(nom, 0)
	if len(all) != 8 {
		t.Errorf("got %d wires, want 8", len(all))
	}
	for i, w := range all {
		if w != i {
			t.Errorf("wires not ascending: %v", all)
		}
	}
	// Threshold above everything: none.
	if got := OverThresholdWires(nom, 1.0); len(got) != 0 {
		t.Errorf("got %v, want empty", got)
	}
}

func TestVictimHistogram(t *testing.T) {
	nom, th := setup(t, 8)
	lib, err := Generate(nom, th, Config{Size: 40, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	hist := lib.VictimHistogram()
	if len(hist) != 8 {
		t.Fatalf("histogram length %d", len(hist))
	}
	var total int
	for _, c := range hist {
		total += c
	}
	var listed int
	for _, d := range lib.Defects {
		listed += len(d.OverThreshold)
	}
	if total != listed {
		t.Errorf("histogram total %d != listed wires %d", total, listed)
	}
}

// TestSigmaSweepMonotone: larger sigma makes defects more probable (fewer
// attempts per accepted defect) — the A2 ablation's core fact.
func TestSigmaSweepMonotone(t *testing.T) {
	nom, th := setup(t, 8)
	small, err := Generate(nom, th, Config{Sigma: 0.4, Size: 30, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Generate(nom, th, Config{Sigma: 0.8, Size: 30, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if large.AcceptanceRate() <= small.AcceptanceRate() {
		t.Errorf("acceptance not monotone in sigma: %g (0.4) vs %g (0.8)",
			small.AcceptanceRate(), large.AcceptanceRate())
	}
}

// TestGenerateFailsWhenUnsatisfiable also pins that the drawing goroutine
// stops before a failed call returns.
func TestGenerateFailsWhenUnsatisfiable(t *testing.T) {
	nom, th := setup(t, 4)
	before := runtime.NumGoroutine()
	// With sigma ~ 0 the perturbations never cross Cth.
	_, err := Generate(nom, th, Config{Sigma: 1e-9, Size: 1, Seed: 1})
	if !goroutinesBackTo(before) {
		t.Fatalf("%d goroutines after the failed Generate, %d before", runtime.NumGoroutine(), before)
	}
	if err == nil || !strings.Contains(err.Error(), "never cross Cth") {
		t.Fatalf("err = %v, want the refusal that perturbations never cross Cth", err)
	}
}

// TestGenerateCtxStopsWhenDone runs GenerateCtx where no draw ever crosses
// Cth (a threshold factor of 50 on a 64-wire bus, so every attempt is 2,016
// normals and the attempt bound is billions of them away): it must return
// the context's error soon after the context is done, with its drawing
// goroutine stopped, and at once for a context that was done before the
// call.
func TestGenerateCtxStopsWhenDone(t *testing.T) {
	nom := crosstalk.Nominal(64)
	th, err := crosstalk.DeriveThresholds(nom, 50)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = GenerateCtx(ctx, nom, th, Config{Size: 1, Seed: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context's deadline", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("GenerateCtx returned %v after it began, %v after its context's deadline", took, took-50*time.Millisecond)
	}
	if !goroutinesBackTo(before) {
		t.Fatalf("%d goroutines after the cancelled GenerateCtx, %d before", runtime.NumGoroutine(), before)
	}
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if lib, err := GenerateCtx(done, nom, th, Config{Size: 1, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("GenerateCtx on a cancelled context: %v, %v", lib, err)
	}
}
