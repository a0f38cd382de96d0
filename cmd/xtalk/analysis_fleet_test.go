package main

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/report"
)

// startTestWorkers spins up n in-process fleet workers and returns their
// URLs joined as the -workers flag value.
func startTestWorkers(t *testing.T, n int) string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		ts := httptest.NewServer(fleet.NewWorker(campaign.New(campaign.Config{})))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return strings.Join(urls, ",")
}

// renderAnalysis renders a job's analysis product as the report document
// its subcommand writes.
func renderAnalysis(t *testing.T, an *campaign.Analysis) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	switch {
	case an.Diagnosis != nil:
		err = report.WriteDiagnosisJSON(&buf, an.Diagnosis)
	case an.Minimize != nil:
		err = report.WriteMinimizeJSON(&buf, an.Minimize)
	case an.Rank != nil:
		err = report.WriteRankJSON(&buf, an.Rank)
	case an.Infield != nil:
		err = report.WriteInfieldNDJSON(&buf, an.Infield)
	default:
		t.Fatal("analysis carries no product")
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFleetJobsMatchStandalone is the CLI-level acceptance for -workers:
// every job type the CLI submits renders the same report bytes on a
// 2-worker fleet as standalone, minimize verification rounds and in-field
// workload phases included.
func TestFleetJobsMatchStandalone(t *testing.T) {
	workers := startTestWorkers(t, 2)
	wide := campaign.Spec{Target: "widebus16", Bus: "bus", Size: 60, Seed: 13}
	cases := []struct {
		name string
		spec campaign.Spec
	}{
		{"diagnose-widebus16", withType(wide, campaign.TypeDiagnose)},
		{"minimize-widebus16", withType(wide, campaign.TypeMinimize)},
		{"rank-widebus16", withType(wide, campaign.TypeRank)},
		{"infield-parwan-addr", campaign.Spec{Type: campaign.TypeInfield, Bus: "addr", Size: 60, Seed: 3, Slices: 4}},
		{"infield-widebus16", campaign.Spec{Type: campaign.TypeInfield, Target: "widebus16", Bus: "bus", Size: 60, Seed: 17, MaxSessions: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			standalone, err := runJob(tc.spec, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			distributed, err := runJob(tc.spec, workers, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, got := renderAnalysis(t, standalone), renderAnalysis(t, distributed)
			if !bytes.Equal(want, got) {
				t.Fatalf("fleet report differs from standalone (%d vs %d bytes)\nfleet:\n%s\nstandalone:\n%s",
					len(got), len(want), got, want)
			}
			if m := standalone.Minimize; m != nil && (m.Verification == nil || !m.Verification.Identical) {
				t.Fatalf("minimized program did not verify byte-identical: %+v", m.Verification)
			}
			t.Logf("fleet report byte-identical to standalone (%d bytes)", len(got))
		})
	}
}

func withType(spec campaign.Spec, jobType string) campaign.Spec {
	spec.Type = jobType
	return spec
}

// TestCmdSimWideBusSmoke pins the -target flag end to end: the default
// channel resolves to the wide bus's only channel and the campaign reaches
// full coverage.
func TestCmdSimWideBusSmoke(t *testing.T) {
	out, err := capture(t, func() error {
		return cmdSim([]string{"-target", "widebus16", "-size", "20", "-seed", "7"})
	})
	if err != nil {
		t.Fatalf("sim failed: %v", err)
	}
	for _, want := range []string{
		"campaign: widebus16 bus bus, 20 defects",
		"coverage: 20/20 = 100.00%",
		"golden execution time: 128 CPU cycles across 1 sessions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sim output missing %q:\n%s", want, out)
		}
	}
}

// TestCmdSimBadTarget: an unknown target descriptor fails with a parse
// error rather than silently defaulting to parwan.
func TestCmdSimBadTarget(t *testing.T) {
	_, err := capture(t, func() error {
		return cmdSim([]string{"-target", "i8051", "-size", "5"})
	})
	if err == nil {
		t.Fatal("sim accepted an unknown target")
	}
	_, err = capture(t, func() error {
		return cmdSim([]string{"-target", "widebus16", "-bus", "addr", "-size", "5"})
	})
	if err == nil {
		t.Fatal("sim accepted a channel the target does not have")
	}
}

// TestCmdSimPlanWithWorkers runs one saved plan with and without -workers:
// both print the same coverage and crash lines. The plan has one session,
// so a fleet that generated the default plan instead would differ.
func TestCmdSimPlanWithWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	if _, err := capture(t, func() error { return cmdGen([]string{"-sessions", "1", "-o", path}) }); err != nil {
		t.Fatal(err)
	}
	args := []string{"-plan", path, "-bus", "data", "-size", "40", "-seed", "5"}
	results := func(out string) []string {
		var lines []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "coverage:") || strings.HasPrefix(l, "crashed/hung") {
				lines = append(lines, l)
			}
		}
		return lines
	}
	local, err := capture(t, func() error { return cmdSim(args) })
	if err != nil {
		t.Fatal(err)
	}
	distributed, err := capture(t, func() error {
		return cmdSim(append(args, "-workers", startTestWorkers(t, 2)))
	})
	if err != nil {
		t.Fatal(err)
	}
	want, got := results(local), results(distributed)
	if len(want) != 2 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("-workers printed %q, standalone %q\nfleet output:\n%s", got, want, distributed)
	}
	t.Logf("%s", strings.Join(got, "; "))
}
