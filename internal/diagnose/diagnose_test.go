package diagnose

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/defects"
	"repro/internal/maf"
	"repro/internal/sim"
)

func fault(victim int, kind maf.Kind, width int) maf.Fault {
	return maf.Fault{Victim: victim, Kind: kind, Dir: maf.Forward, Width: width}
}

// testFaults is the universe of the faults the fixtures name: those of a
// 4-, an 8- and a 12-wire unidirectional bus.
var testFaults = func() *maf.FaultUniverse {
	u, err := maf.NewFaultUniverse(append(append(maf.Universe(4, false), maf.Universe(8, false)...), maf.Universe(12, false)...))
	if err != nil {
		panic(err)
	}
	return u
}()

// setOf is the detection set of faults over testFaults.
func setOf(faults ...maf.Fault) maf.Set {
	var s maf.Set
	for _, f := range faults {
		i, ok := testFaults.Index(f)
		if !ok {
			panic(fmt.Sprintf("%v@%d is not a test fault", f, f.Width))
		}
		s.Add(testFaults, i)
	}
	return s
}

// fixture: four defects over a 4-wire bus.
//
//	defect 0: detected by gp[1], dr[2]
//	defect 1: detected by dr[2]
//	defect 2: detected by gp[1], dr[2]   (same class as defect 0)
//	defect 3: crash-only (detected, no attribution)
func fixtureOutcomes() []sim.Outcome {
	gp1 := fault(1, maf.PositiveGlitch, 4)
	dr2 := fault(2, maf.RisingDelay, 4)
	return []sim.Outcome{
		{DefectID: 0, Detected: true, DetectedBy: setOf(gp1, dr2)},
		{DefectID: 1, Detected: true, DetectedBy: setOf(dr2)},
		{DefectID: 2, Detected: true, DetectedBy: setOf(gp1, dr2)},
		{DefectID: 3, Detected: true, Crashed: true},
	}
}

func TestCollect(t *testing.T) {
	s := Collect(fixtureOutcomes())
	if s.Total != 4 || len(s.Faults) != 2 {
		t.Fatalf("Total=%d Faults=%v", s.Total, s.Faults)
	}
	// Canonical order: victim 1 before victim 2.
	if s.Faults[0].Victim != 1 || s.Faults[1].Victim != 2 {
		t.Fatalf("fault order %v", s.Faults)
	}
	if got := s.ByFault[0]; !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("ByFault[gp[1]] = %v", got)
	}
	if got := s.ByFault[1]; !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("ByFault[dr[2]] = %v", got)
	}
	if got := s.ByDefect[1]; !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("ByDefect[1] = %v", got)
	}
	if !reflect.DeepEqual(s.CrashOnly, []int{3}) {
		t.Errorf("CrashOnly = %v", s.CrashOnly)
	}
	st := s.ComputeStats()
	if st.Detected != 4 || st.Attributed != 3 || st.CrashOnly != 1 || st.Tests != 2 {
		t.Errorf("stats %+v", st)
	}
	if st.Classes != 2 || st.Largest != 2 || st.Ambiguous != 2 {
		t.Errorf("class stats %+v", st)
	}
}

func TestResolveSignature(t *testing.T) {
	s := Collect(fixtureOutcomes())
	sig, err := s.ResolveSignature([]string{"dr[2]/fwd@4"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sig, []int{1}) {
		t.Errorf("sig = %v", sig)
	}
	// Width wildcard matches too, and duplicates collapse.
	sig, err = s.ResolveSignature([]string{"dr[2]/fwd", "dr[2]/fwd@4"})
	if err != nil || !reflect.DeepEqual(sig, []int{1}) {
		t.Errorf("wildcard sig = %v err=%v", sig, err)
	}
	if _, err := s.ResolveSignature([]string{"gn[0]/fwd"}); err == nil {
		t.Error("unknown test should fail resolution")
	}
	if _, err := s.ResolveSignature([]string{"bogus"}); err == nil {
		t.Error("unparsable name should fail")
	}
}

func TestLocalizeExactSignature(t *testing.T) {
	s := Collect(fixtureOutcomes())
	// Signature {dr[2]} matches defect 1 exactly; defects 0 and 2 overlap at
	// Jaccard 1/2. Wire 2 (rising delay) must outrank wire 1.
	cands, err := s.LocalizeNames([]string{"dr[2]/fwd@4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 {
		t.Fatalf("candidates %v", cands)
	}
	top := cands[0]
	if top.Wire != 2 || top.Kind != maf.RisingDelay {
		t.Errorf("top candidate %v", top)
	}
	if top.Exact != 1 {
		t.Errorf("exact = %d", top.Exact)
	}
	if cands[1].Score >= top.Score {
		t.Errorf("ranking not strict: %v", cands)
	}
	var sum float64
	for _, c := range cands {
		sum += c.Score
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("scores sum to %v", sum)
	}
}

func TestEvaluateAccuracy(t *testing.T) {
	s := Collect(fixtureOutcomes())
	lib := &defects.Library{Defects: []defects.Defect{
		{ID: 0, OverThreshold: []int{1, 2}},
		{ID: 1, OverThreshold: []int{2}},
		{ID: 2, OverThreshold: []int{1, 2}},
		{ID: 3, OverThreshold: []int{0}},
	}}
	acc, err := s.EvaluateAccuracy(lib)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Evaluated != 3 {
		t.Errorf("evaluated %d", acc.Evaluated)
	}
	// Every attributed defect's own detection set points at a true wire.
	if acc.TopHit != 3 || acc.Top3Hit != 3 {
		t.Errorf("accuracy %+v", acc)
	}
	if _, err := s.EvaluateAccuracy(&defects.Library{}); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestGreedyCoverFixture(t *testing.T) {
	s := Collect(fixtureOutcomes())
	c := GreedyCover(s)
	// dr[2] covers all three attributed defects alone.
	if len(c.Chosen) != 1 || c.Chosen[0].Victim != 2 {
		t.Fatalf("chosen %v", c.Chosen)
	}
	if c.Covered != 3 || c.Coverable != 3 {
		t.Errorf("covered %d/%d", c.Covered, c.Coverable)
	}
	if !reflect.DeepEqual(c.CrashOnly, []int{3}) {
		t.Errorf("crash-only %v", c.CrashOnly)
	}
	if c.FullTests != 2 || c.Reduction() != 0.5 {
		t.Errorf("reduction %v of %d", c.Reduction(), c.FullTests)
	}
	filter := c.Filter()
	if !filter(c.Chosen[0]) || filter(fault(1, maf.PositiveGlitch, 4)) {
		t.Error("filter does not match chosen set")
	}
}

// randomSets builds a synthetic dictionary: nDefects defects, each detected
// by a random non-empty subset of nFaults tests (plus a sprinkle of
// undetected and crash-only defects).
func randomSets(rng *rand.Rand, nDefects, nFaults int) *Sets {
	outs := make([]sim.Outcome, nDefects)
	for d := range outs {
		outs[d].DefectID = d
		switch rng.Intn(10) {
		case 0: // undetected
		case 1: // crash-only
			outs[d].Detected = true
			outs[d].Crashed = true
		default:
			n := 1 + rng.Intn(4)
			seen := make(map[int]bool)
			for len(seen) < n {
				seen[rng.Intn(nFaults)] = true
			}
			for fi := range seen {
				k := maf.Kinds[fi%len(maf.Kinds)]
				outs[d].DetectedBy = outs[d].DetectedBy.Union(setOf(fault(fi/len(maf.Kinds), k, 8)))
			}
			outs[d].Detected = true
		}
	}
	return Collect(outs)
}

// Property: for any dictionary, the greedy cover covers every attributed
// defect, never repeats a test, and is deterministic.
func TestGreedyCoverProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomSets(rng, 60+rng.Intn(100), 8+rng.Intn(24))
		c := GreedyCover(s)
		if c.Covered != c.Coverable || c.Coverable != s.AttributedCount() {
			t.Fatalf("seed %d: covered %d of %d (attributed %d)", seed, c.Covered, c.Coverable, s.AttributedCount())
		}
		chosen := make(map[maf.Fault]bool)
		for _, f := range c.Chosen {
			if chosen[f] {
				t.Fatalf("seed %d: test %v chosen twice", seed, f)
			}
			chosen[f] = true
		}
		// Re-check coverage from scratch via the filter.
		filter := c.Filter()
		for d, row := range s.ByDefect {
			covered := false
			for _, fi := range row {
				if filter(s.Faults[fi]) {
					covered = true
					break
				}
			}
			if len(row) > 0 && !covered {
				t.Fatalf("seed %d: defect %d uncovered", seed, d)
			}
		}
		// Gains must be positive and non-increasing is NOT required (greedy
		// guarantees positive only), but the recorded gains must sum to the
		// coverable count.
		sum := 0
		for _, g := range c.NewlyCovered {
			if g <= 0 {
				t.Fatalf("seed %d: non-positive gain %v", seed, c.NewlyCovered)
			}
			sum += g
		}
		if sum != c.Coverable {
			t.Fatalf("seed %d: gains sum %d != coverable %d", seed, sum, c.Coverable)
		}
		again := GreedyCover(s)
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("seed %d: cover not deterministic", seed)
		}
	}
}

func TestVerify(t *testing.T) {
	full := fixtureOutcomes()
	min := fixtureOutcomes()
	v, err := Verify(full, min)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Identical || v.FullHash != v.MinHash || len(v.Mismatches) != 0 {
		t.Errorf("identical campaigns verify as %+v", v)
	}
	if v.Total != 4 || v.FullDetected != 4 || v.MinDetected != 4 {
		t.Errorf("counts %+v", v)
	}

	min[2].Detected = false
	v, err = Verify(full, min)
	if err != nil {
		t.Fatal(err)
	}
	if v.Identical || !reflect.DeepEqual(v.Mismatches, []int{2}) {
		t.Errorf("mismatch not flagged: %+v", v)
	}

	if _, err := Verify(full, min[:2]); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestRankWires(t *testing.T) {
	outs := fixtureOutcomes()
	// Add a wide-bus fault on the same victim to prove width filtering.
	outs = append(outs, sim.Outcome{
		DefectID: 4, Detected: true,
		DetectedBy: setOf(fault(1, maf.PositiveGlitch, 12)),
	})
	s := Collect(outs)
	lib := &defects.Library{Defects: []defects.Defect{
		{OverThreshold: []int{1, 2}}, {OverThreshold: []int{2}},
		{OverThreshold: []int{1, 2}}, {OverThreshold: []int{0}},
		{OverThreshold: []int{1}},
	}}
	ranks := RankWires(s, 4, lib)
	if len(ranks) != 4 {
		t.Fatalf("ranks %v", ranks)
	}
	// Wire 2 detects 3 defects (0,1,2), wire 1 detects 2 (0,2 — defect 4's
	// width-12 fault is excluded), wires 0 and 3 none.
	if ranks[0].Wire != 2 || ranks[0].Detected != 3 {
		t.Errorf("top rank %+v", ranks[0])
	}
	if ranks[1].Wire != 1 || ranks[1].Detected != 2 {
		t.Errorf("second rank %+v", ranks[1])
	}
	if ranks[1].Unique != 0 || ranks[0].Unique != 1 {
		t.Errorf("unique counts %+v %+v", ranks[0], ranks[1])
	}
	if ranks[0].OverThreshold != 3 || ranks[1].OverThreshold != 3 {
		t.Errorf("ground truth %+v %+v", ranks[0], ranks[1])
	}
	if ranks[2].Detected != 0 || ranks[3].Detected != 0 {
		t.Errorf("side wires %+v %+v", ranks[2], ranks[3])
	}
	// Attributed = 4 (defect 4 counts); wire 2's share is 3/4.
	if ranks[0].Share != 0.75 {
		t.Errorf("share %v", ranks[0].Share)
	}
}

// fakeSimulate models re-simulation of a minimized program: a defect is
// detected when the filter keeps any test of its detection set, except that
// contextual detections (in the ctxOnly map) only reproduce when their
// specific carrier test is chosen.
func fakeSimulate(s *Sets, ctxOnly map[int]maf.Fault) func(func(maf.Fault) bool) ([]sim.Outcome, error) {
	return func(filter func(maf.Fault) bool) ([]sim.Outcome, error) {
		outs := make([]sim.Outcome, s.Total)
		for d := range outs {
			outs[d].DefectID = s.DefectIDs[d]
			if carrier, ok := ctxOnly[d]; ok {
				outs[d].Detected = filter(carrier)
				continue
			}
			for _, fi := range s.ByDefect[d] {
				if filter(s.Faults[fi]) {
					outs[d].Detected = true
					break
				}
			}
			if len(s.ByDefect[d]) == 0 && s.Detected[d] {
				outs[d].Detected = true // crash-only reproduces regardless
			}
		}
		return outs, nil
	}
}

func TestRepairCoverConvergesFirstRound(t *testing.T) {
	outs := fixtureOutcomes()
	s := Collect(outs)
	c := GreedyCover(s)
	calls := 0
	sim1 := fakeSimulate(s, nil)
	rep, err := RepairCover(s, c, outs, 0, func(f func(maf.Fault) bool) ([]sim.Outcome, error) {
		calls++
		return sim1(f)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verification.Identical || rep.Rounds != 1 || calls != 1 {
		t.Fatalf("rounds=%d calls=%d verification %+v", rep.Rounds, calls, rep.Verification)
	}
	if len(rep.Added) != 0 || len(rep.Tests) != len(c.Chosen) {
		t.Fatalf("context-free repair added tests: %v", rep.Added)
	}
}

func TestRepairCoverAugments(t *testing.T) {
	gp1 := fault(1, maf.PositiveGlitch, 4)
	outs := fixtureOutcomes()
	s := Collect(outs)
	c := GreedyCover(s)
	// Greedy picks dr[2] alone; defect 0's detection only reproduces under
	// gp[1] (a context-dependent detection), forcing a second round.
	rep, err := RepairCover(s, c, outs, 0, fakeSimulate(s, map[int]maf.Fault{0: gp1}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verification.Identical {
		t.Fatalf("did not converge: %+v", rep.Verification)
	}
	if rep.Rounds != 2 || len(rep.Added) != 1 || rep.Added[0] != gp1 {
		t.Fatalf("rounds=%d added=%v", rep.Rounds, rep.Added)
	}
	if len(rep.Tests) != 2 {
		t.Fatalf("final tests %v", rep.Tests)
	}
}

func TestRepairCoverStopsWithoutProgress(t *testing.T) {
	outs := fixtureOutcomes()
	s := Collect(outs)
	c := GreedyCover(s)
	// The crash-only defect 3 never reproduces: nothing to add, loop must
	// stop after one round with a non-identical verdict.
	broken := func(filter func(maf.Fault) bool) ([]sim.Outcome, error) {
		res, _ := fakeSimulate(s, nil)(filter)
		res[3].Detected = false
		return res, nil
	}
	rep, err := RepairCover(s, c, outs, 0, broken)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verification.Identical || rep.Rounds != 1 {
		t.Fatalf("rounds=%d verification %+v", rep.Rounds, rep.Verification)
	}
	if !reflect.DeepEqual(rep.Verification.Mismatches, []int{3}) {
		t.Fatalf("mismatches %v", rep.Verification.Mismatches)
	}
}
