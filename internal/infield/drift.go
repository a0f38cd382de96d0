package infield

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Drift detection compares a recurring schedule's coverage-over-time curve
// against the first completed run under the same manifest key (the
// plan-hash/seed/σ/Cth/slice-budget identity). Because the slicer and the
// simulation engines are deterministic, a byte-identical rerun reproduces
// the baseline curve exactly — any deviation beyond the drift band is
// evidence the system under test (or the test system itself) changed:
// convergence arriving later means activations are being masked, a lower
// final coverage means defects stopped being observable.

// Verdict values of a DriftReport.
const (
	// VerdictBaseline: first completed run under this key; curve saved.
	VerdictBaseline = "baseline"
	// VerdictOK: curve within tolerance of the baseline.
	VerdictOK = "ok"
	// VerdictDrift: the curve degraded beyond tolerance.
	VerdictDrift = "drift"
)

// The drift band. A byte-identical rerun reproduces the baseline exactly, so
// the band only decides how far a degraded curve may stray.
const (
	// coverageDrop is the largest allowed per-point coverage shortfall
	// against the baseline point at the same merge position.
	coverageDrop = 0.02
	// finalDrop is the largest allowed drop of final coverage: none, since a
	// deterministic schedule must reach the same final coverage.
	finalDrop = 0.0
	// slackSlices is how many extra merges the run may take to reach the
	// baseline's final coverage before convergence counts as slowed.
	slackSlices = 1
)

// Baseline is the persisted reference curve for one manifest key.
type Baseline struct {
	Key     string          `json:"key"`
	SavedAt time.Time       `json:"saved_at"`
	Points  []CoveragePoint `json:"points"`
}

// DriftReport is the verdict of one curve comparison.
type DriftReport struct {
	Verdict string   `json:"verdict"`
	Reasons []string `json:"reasons,omitempty"`
}

// Drifted reports whether the verdict is VerdictDrift.
func (r DriftReport) Drifted() bool { return r.Verdict == VerdictDrift }

// slicesTo returns how many merges the curve needs to first reach target
// coverage, or 0 if it never does.
func slicesTo(pts []CoveragePoint, target float64) int {
	for i, p := range pts {
		if p.Coverage >= target {
			return i + 1
		}
	}
	return 0
}

// Compare evaluates a run's curve against the baseline under the drift
// band. A byte-identical rerun yields VerdictOK with no reasons; a curve
// that converges slower than slackSlices extra merges, dips more than
// coverageDrop below the baseline at any merge position, or ends more than
// finalDrop below the baseline's final coverage yields VerdictDrift.
func Compare(base *Baseline, pts []CoveragePoint) DriftReport {
	rep := DriftReport{Verdict: VerdictOK}
	if base == nil || len(base.Points) == 0 {
		rep.Verdict = VerdictBaseline
		return rep
	}
	if len(pts) == 0 {
		rep.Verdict = VerdictDrift
		rep.Reasons = append(rep.Reasons, "run produced no coverage points")
		return rep
	}
	basePts := base.Points
	baseFinal := basePts[len(basePts)-1].Coverage
	final := pts[len(pts)-1].Coverage

	// Per-point band: compare coverage at equal merge positions. maxDrop is
	// the worst shortfall (0 when the curve never dips below the baseline).
	n := len(basePts)
	if len(pts) < n {
		n = len(pts)
	}
	var maxDrop float64
	worstAt := -1
	for i := 0; i < n; i++ {
		drop := basePts[i].Coverage - pts[i].Coverage
		if drop > maxDrop {
			maxDrop = drop
			worstAt = i
		}
	}
	if maxDrop > coverageDrop {
		rep.Verdict = VerdictDrift
		rep.Reasons = append(rep.Reasons, fmt.Sprintf(
			"coverage at merge %d dropped %.4f below baseline (tolerance %.4f)",
			worstAt+1, maxDrop, coverageDrop))
	}

	// Final coverage: the deterministic schedule must land where it did.
	if drop := baseFinal - final; drop > finalDrop {
		rep.Verdict = VerdictDrift
		rep.Reasons = append(rep.Reasons, fmt.Sprintf(
			"final coverage %.4f fell %.4f below baseline %.4f (tolerance %.4f)",
			final, drop, baseFinal, finalDrop))
	}

	// Convergence speed: merges needed to reach the baseline's final
	// coverage (minus the final tolerance, so a within-band final still
	// defines a reachable target); 0 when the run never reaches it.
	target := baseFinal - finalDrop
	baseMerges, merges := slicesTo(basePts, target), slicesTo(pts, target)
	switch {
	case merges == 0:
		if rep.Verdict != VerdictDrift {
			rep.Verdict = VerdictDrift
			rep.Reasons = append(rep.Reasons, fmt.Sprintf(
				"run never reached the baseline's final coverage %.4f", target))
		}
	case merges > baseMerges+slackSlices:
		rep.Verdict = VerdictDrift
		rep.Reasons = append(rep.Reasons, fmt.Sprintf(
			"convergence slowed: %d merges to reach %.4f coverage vs baseline %d (+%d slack)",
			merges, target, baseMerges, slackSlices))
	}
	return rep
}

// BaselineStore persists baselines, in memory and optionally on disk (one
// JSON file per manifest key under dir; keys are hex digests, so they are
// filename-safe). The store is safe for concurrent use.
type BaselineStore struct {
	mu  sync.Mutex
	dir string
	mem map[string]*Baseline
}

// NewBaselineStore builds a store. dir == "" keeps baselines in memory
// only; otherwise baselines are written to and recovered from dir.
func NewBaselineStore(dir string) *BaselineStore {
	return &BaselineStore{dir: dir, mem: make(map[string]*Baseline)}
}

func (s *BaselineStore) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// Get returns the baseline for a key, falling back to disk on a memory
// miss (so a restarted daemon keeps its history).
func (s *BaselineStore) Get(key string) (*Baseline, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.mem[key]; ok {
		return b, true
	}
	if s.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil || b.Key != key {
		return nil, false
	}
	s.mem[key] = &b
	return &b, true
}

// Put stores a baseline in memory and, when the store has a directory,
// atomically on disk (tmp + rename).
func (s *BaselineStore) Put(b *Baseline) error {
	if s == nil || b == nil || b.Key == "" {
		return fmt.Errorf("infield: baseline without key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem[b.Key] = b
	if s.dir == "" {
		return nil
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	tmp := s.path(b.Key) + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.path(b.Key))
}

// Len returns how many baselines are held in memory.
func (s *BaselineStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}
