package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// capture runs fn with os.Stdout redirected into a buffer and returns what
// it printed alongside fn's error (the command's "exit status").
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	outc := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		outc <- buf.String()
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-outc
	r.Close()
	return out, runErr
}

func TestCmdGenSmoke(t *testing.T) {
	out, err := capture(t, func() error { return cmdGen(nil) })
	if err != nil {
		t.Fatalf("gen failed: %v", err)
	}
	for _, want := range []string{
		"Self-test plan",
		"data", "addr",
		"Session programs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gen output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdGenVerify(t *testing.T) {
	out, err := capture(t, func() error { return cmdGen([]string{"-verify"}) })
	if err != nil {
		t.Fatalf("gen -verify failed: %v", err)
	}
	if !strings.Contains(out, "verify: every applied test drives its MA vector pair") {
		t.Errorf("gen -verify did not report a clean plan:\n%s", out)
	}
	if strings.Contains(out, "verify FAILED") {
		t.Errorf("gen -verify reported violations:\n%s", out)
	}
}

func TestCmdGenRefusesNegativeSessions(t *testing.T) {
	if _, err := capture(t, func() error { return cmdGen([]string{"-sessions", "-1"}) }); err == nil {
		t.Error("gen -sessions -1 succeeded")
	}
}

func TestCmdDefectsSmoke(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdDefects([]string{"-bus", "addr", "-size", "25", "-seed", "3"})
	})
	if err != nil {
		t.Fatalf("defects failed: %v", err)
	}
	for _, want := range []string{
		"25 defects on the addr bus",
		"Over-threshold victims per wire",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("defects output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdDefectsBadBus(t *testing.T) {
	_, err := capture(t, func() error {
		return cmdDefects([]string{"-bus", "ctrl"})
	})
	if err == nil {
		t.Fatal("defects accepted an unknown bus")
	}
}

// TestCmdMarginsTooWide checks that a bus wider than 64 wires is an error,
// not a panic when the channel builds its words.
func TestCmdMarginsTooWide(t *testing.T) {
	_, err := capture(t, func() error { return cmdMargins([]string{"-width", "80"}) })
	if err == nil {
		t.Fatal("margins accepted an 80-wire bus")
	}
}

// TestCmdMarginsRaggedFile checks that a parameter file whose coupling
// matrix has a short later row is an error, not a panic in validation.
func TestCmdMarginsRaggedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ragged.json")
	ragged := `{"params":{"width":2,"cg":[1,1],"cc":[[0,0],[]],"r_drive":[1,1],"vdd":1},` +
		`"thresholds":{"cth":1,"glitch_frac":0.5,"slack":[1,1],"cg0":1}}`
	if err := os.WriteFile(path, []byte(ragged), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := capture(t, func() error { return cmdMargins([]string{"-file", path}) })
	if err == nil || !strings.Contains(err.Error(), "coupling row 1") {
		t.Fatalf("margins on a ragged file: err = %v, want a coupling row 1 error", err)
	}
}

func TestCmdSimSmoke(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdSim([]string{"-bus", "addr", "-size", "20", "-seed", "7"})
	})
	if err != nil {
		t.Fatalf("sim failed: %v", err)
	}
	for _, want := range []string{
		"campaign: parwan addr bus, 20 defects",
		"coverage:",
		// E3's self-test execution time, reported by the job.
		"golden execution time: 2962 CPU cycles across 4 sessions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sim output missing %q:\n%s", want, out)
		}
	}
	// The paper's headline result at this scale: full coverage.
	if !strings.Contains(out, "coverage: 20/20 = 100.00%") {
		t.Errorf("sim did not report full coverage:\n%s", out)
	}
}

// TestPrintEngineCountsAsDigits: engine counts of a million or more print
// as integers, not in exponent form ("1.248752e+06 steps executed").
func TestPrintEngineCountsAsDigits(t *testing.T) {
	counts := map[string]uint64{
		"xtalkd_fleet_shards_dispatched_total": 2_000_000,
		"xtalkd_fleet_shard_retries_total":     1_000_001,
		"xtalkd_engine_batch_sweeps_total":     3_000_000,
		"xtalkd_engine_executed_steps_total":   1_248_752,
	}
	out, err := capture(t, func() error {
		printEngineCounts(campaign.Progress{ReplayHits: 7, Executed: 9}, func(name string) uint64 { return counts[name] })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fleet: 2000000 shards, 1000001 retries;",
		"engine: 7 swept clean in 3000000 sweeps, 9 divergence fallbacks (1248752 steps executed)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "e+") {
		t.Errorf("output prints a count in exponent form:\n%s", out)
	}
}

// TestCmdRefusesNonFiniteFactors: a NaN or infinite -cth or -sigma is
// refused where it enters, by name. -sigma NaN used to spin through two
// million attempts and -sigma +Inf to build a library.
func TestCmdRefusesNonFiniteFactors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
		cmd  func([]string) error
	}{
		{[]string{"-cth", "NaN"}, "cthFactor NaN is not finite", cmdParams},
		{[]string{"-cth", "+Inf"}, "cthFactor +Inf is not finite", cmdParams},
		{[]string{"-target", "widebus64", "-bus", "bus", "-sigma", "NaN", "-size", "1"}, "sigma NaN", cmdDefects},
		{[]string{"-target", "widebus64", "-bus", "bus", "-sigma", "+Inf", "-size", "1"}, "sigma +Inf", cmdDefects},
	} {
		_, err := capture(t, func() error { return tc.cmd(tc.args) })
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}
