package infield

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// curve builds a coverage curve from cumulative coverage fractions.
func curve(coverages ...float64) []CoveragePoint {
	pts := make([]CoveragePoint, len(coverages))
	for i, c := range coverages {
		pts[i] = CoveragePoint{Slice: i, Merged: i + 1, Coverage: c}
	}
	return pts
}

func baselineOf(coverages ...float64) *Baseline {
	return &Baseline{Key: "k", SavedAt: time.Now(), Points: curve(coverages...)}
}

func TestCompareFirstRunIsBaseline(t *testing.T) {
	if rep := Compare(nil, curve(0.5, 0.9)); rep.Verdict != VerdictBaseline {
		t.Fatalf("nil baseline verdict = %s, want %s", rep.Verdict, VerdictBaseline)
	}
	if rep := Compare(&Baseline{Key: "k"}, curve(0.5)); rep.Verdict != VerdictBaseline {
		t.Fatalf("empty baseline verdict = %s, want %s", rep.Verdict, VerdictBaseline)
	}
}

// TestCompareIdenticalRerunIsSilent is the acceptance case: a byte-identical
// rerun of a deterministic schedule must not raise drift.
func TestCompareIdenticalRerunIsSilent(t *testing.T) {
	base := baselineOf(0.3, 0.6, 0.85, 0.92, 0.92)
	rep := Compare(base, curve(0.3, 0.6, 0.85, 0.92, 0.92))
	if !reflect.DeepEqual(rep, DriftReport{Verdict: VerdictOK}) {
		t.Fatalf("identical rerun = %+v, want silent ok", rep)
	}
}

func TestComparePerPointDrop(t *testing.T) {
	base := baselineOf(0.3, 0.6, 0.9)
	// Mid-curve dip beyond the 0.02 default band, same final coverage.
	rep := Compare(base, curve(0.3, 0.5, 0.9))
	if !rep.Drifted() {
		t.Fatalf("mid-curve dip verdict = %s, want drift", rep.Verdict)
	}
	if want := []string{"coverage at merge 2 dropped 0.1000 below baseline (tolerance 0.0200)"}; !reflect.DeepEqual(rep.Reasons, want) {
		t.Fatalf("mid-curve dip reasons = %q, want %q", rep.Reasons, want)
	}
	// A dip inside the band stays ok.
	rep = Compare(base, curve(0.29, 0.59, 0.9))
	if rep.Drifted() {
		t.Fatalf("in-band dip verdict = %+v, want ok", rep)
	}
}

func TestCompareFinalCoverageDrop(t *testing.T) {
	base := baselineOf(0.3, 0.6, 0.9)
	// The final drop allowed is 0: a shortfall at the end drifts even inside
	// the per-point band (the run also never reaches the baseline's final
	// coverage).
	rep := Compare(base, curve(0.3, 0.6, 0.89))
	if !rep.Drifted() {
		t.Fatalf("final shortfall verdict = %+v, want drift", rep)
	}
	if want := []string{"final coverage 0.8900 fell 0.0100 below baseline 0.9000 (tolerance 0.0000)"}; !reflect.DeepEqual(rep.Reasons, want) {
		t.Fatalf("final shortfall reasons = %q, want only %q", rep.Reasons, want)
	}
}

func TestCompareSlowedConvergence(t *testing.T) {
	base := baselineOf(0.5, 0.9, 0.9, 0.9, 0.9, 0.9)
	// Same final coverage and every point inside the per-point band, but it
	// arrives four merges later than the baseline's two (slack 1 ⇒ three is
	// forgiven, six is not).
	rep := Compare(base, curve(0.5, 0.89, 0.89, 0.89, 0.89, 0.9))
	if !rep.Drifted() {
		t.Fatalf("slowed convergence verdict = %+v, want drift", rep)
	}
	if want := []string{"convergence slowed: 6 merges to reach 0.9000 coverage vs baseline 2 (+1 slack)"}; !reflect.DeepEqual(rep.Reasons, want) {
		t.Fatalf("slowed convergence reasons = %q, want only %q", rep.Reasons, want)
	}
	// One extra merge is within the default slack.
	rep = Compare(base, curve(0.5, 0.89, 0.9, 0.9, 0.9, 0.9))
	if rep.Drifted() {
		t.Fatalf("one-slice slack verdict = %+v, want ok", rep)
	}
}

func TestCompareEmptyRun(t *testing.T) {
	if rep := Compare(baselineOf(0.5), nil); !rep.Drifted() {
		t.Fatalf("empty run verdict = %s, want drift", rep.Verdict)
	}
}

// TestBaselineStorePersistence proves Put/Get round-trips through disk: a
// second store over the same directory (a restarted daemon) recovers the
// baseline, and the on-disk file is valid indented JSON.
func TestBaselineStorePersistence(t *testing.T) {
	dir := t.TempDir()
	s := NewBaselineStore(dir)
	key := "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef"
	b := &Baseline{Key: key, SavedAt: time.Now().UTC(), Points: curve(0.4, 0.8)}
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, key+".json")); err != nil {
		t.Fatalf("baseline file missing: %v", err)
	}

	restarted := NewBaselineStore(dir)
	got, ok := restarted.Get(key)
	if !ok {
		t.Fatal("restarted store lost the baseline")
	}
	if len(got.Points) != 2 || got.Points[1].Coverage != 0.8 {
		t.Fatalf("recovered baseline = %+v", got)
	}
	if _, ok := restarted.Get("0000"); ok {
		t.Fatal("store returned a baseline for an unknown key")
	}

	// Memory-only store: no files, still serves.
	mem := NewBaselineStore("")
	if err := mem.Put(b); err != nil {
		t.Fatal(err)
	}
	if _, ok := mem.Get(key); !ok {
		t.Fatal("memory store lost the baseline")
	}

	// Nil store is inert.
	var nilStore *BaselineStore
	if _, ok := nilStore.Get(key); ok || nilStore.Len() != 0 {
		t.Fatal("nil store misbehaved")
	}
}
