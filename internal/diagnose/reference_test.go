package diagnose

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/defects"
	"repro/internal/maf"
	"repro/internal/sim"
	"repro/internal/target"
)

// The list-based analytics below are the reference the set-based ones are
// compared against: the dictionary re-encoded as index lists over a
// compacted fault list, and each analysis written over those lists. They
// are kept as they ran in the product, with names prefixed "ref".

// refSets is the dictionary in both orientations, with faults held in
// canonical maf.Compare order and defects by library index.
type refSets struct {
	Total     int
	DefectIDs []int
	// Faults lists every fault that detects at least one defect, in
	// maf.Compare order; ByFault is parallel to it and ByDefect indexes it.
	Faults    []maf.Fault
	ByFault   [][]int
	ByDefect  [][]int
	Detected  []bool
	Crashed   []bool
	CrashOnly []int
}

func refCollect(outcomes []sim.Outcome) *refSets {
	s := &refSets{
		Total:     len(outcomes),
		DefectIDs: make([]int, len(outcomes)),
		ByDefect:  make([][]int, len(outcomes)),
		Detected:  make([]bool, len(outcomes)),
		Crashed:   make([]bool, len(outcomes)),
	}
	var seen maf.Set
	for _, out := range outcomes {
		seen = seen.Union(out.DetectedBy)
	}
	s.Faults = make([]maf.Fault, 0, seen.Len())
	var index [maf.SetBits]int
	for i := seen.Next(0); i >= 0; i = seen.Next(i + 1) {
		index[i] = len(s.Faults)
		s.Faults = append(s.Faults, seen.Universe().Fault(i))
	}
	s.ByFault = make([][]int, len(s.Faults))
	for d, out := range outcomes {
		s.DefectIDs[d] = out.DefectID
		s.Detected[d] = out.Detected
		s.Crashed[d] = out.Crashed
		if set := out.DetectedBy; set.Len() > 0 {
			row := make([]int, 0, set.Len())
			for i := set.Next(0); i >= 0; i = set.Next(i + 1) {
				fi := index[i]
				row = append(row, fi)
				s.ByFault[fi] = append(s.ByFault[fi], d)
			}
			s.ByDefect[d] = row
		} else if out.Detected {
			s.CrashOnly = append(s.CrashOnly, d)
		}
	}
	return s
}

func (s *refSets) DetectedCount() int {
	n := 0
	for _, d := range s.Detected {
		if d {
			n++
		}
	}
	return n
}

func (s *refSets) AttributedCount() int {
	n := 0
	for _, row := range s.ByDefect {
		if len(row) > 0 {
			n++
		}
	}
	return n
}

func (s *refSets) ComputeStats() Stats {
	st := Stats{
		Defects:    s.Total,
		Detected:   s.DetectedCount(),
		Attributed: s.AttributedCount(),
		CrashOnly:  len(s.CrashOnly),
		Tests:      len(s.Faults),
	}
	classes := make(map[string]int)
	sum := 0
	for _, row := range s.ByDefect {
		if len(row) == 0 {
			continue
		}
		sum += len(row)
		classes[fmt.Sprint(row)]++
	}
	st.Classes = len(classes)
	for _, n := range classes {
		if n > st.Largest {
			st.Largest = n
		}
		if n > 1 {
			st.Ambiguous += n
		}
	}
	if st.Attributed > 0 {
		st.MeanSet = float64(sum) / float64(st.Attributed)
	}
	return st
}

func (s *refSets) ResolveSignature(names []string) ([]int, error) {
	var idx []int
	seen := make(map[int]bool)
	for _, name := range names {
		pat, err := maf.ParseFault(name)
		if err != nil {
			return nil, err
		}
		matched := false
		for i, f := range s.Faults {
			if pat.Matches(f) {
				matched = true
				if !seen[i] {
					seen[i] = true
					idx = append(idx, i)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("diagnose: signature test %q detects no library defect (not in dictionary)", name)
		}
	}
	sort.Ints(idx)
	return idx, nil
}

func refJaccard(a, b []int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

func refEqualInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s *refSets) Localize(sig []int) []Candidate {
	type key struct {
		wire int
		kind maf.Kind
	}
	scores := make(map[key]float64)
	exact := make(map[key]int)
	for _, row := range s.ByDefect {
		if len(row) == 0 {
			continue
		}
		w := refJaccard(sig, row)
		if w == 0 {
			continue
		}
		same := refEqualInts(sig, row)
		hyp := make(map[key]bool)
		for _, fi := range row {
			f := s.Faults[fi]
			hyp[key{f.Victim, f.Kind}] = true
		}
		for k := range hyp {
			scores[k] += w
			if same {
				exact[k]++
			}
		}
	}
	out := make([]Candidate, 0, len(scores))
	for k, sc := range scores {
		out = append(out, Candidate{Wire: k.wire, Kind: k.kind, Score: sc, Exact: exact[k]})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Wire != b.Wire {
			return a.Wire < b.Wire
		}
		return a.Kind < b.Kind
	})
	var total float64
	for _, c := range out {
		total += c.Score
	}
	if total > 0 {
		for i := range out {
			out[i].Score /= total
		}
	}
	return out
}

func refGreedyCover(s *refSets) *Cover {
	c := &Cover{FullTests: len(s.Faults)}
	c.CrashOnly = append(c.CrashOnly, s.CrashOnly...)
	uncovered := make([]bool, s.Total)
	remaining := 0
	for d, row := range s.ByDefect {
		if len(row) > 0 {
			uncovered[d] = true
			remaining++
		}
	}
	c.Coverable = remaining
	used := make([]bool, len(s.Faults))
	for remaining > 0 {
		best, bestGain := -1, 0
		for fi := range s.Faults {
			if used[fi] {
				continue
			}
			gain := 0
			for _, d := range s.ByFault[fi] {
				if uncovered[d] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = fi, gain
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		c.Chosen = append(c.Chosen, s.Faults[best])
		c.NewlyCovered = append(c.NewlyCovered, bestGain)
		for _, d := range s.ByFault[best] {
			if uncovered[d] {
				uncovered[d] = false
				remaining--
			}
		}
	}
	c.Covered = c.Coverable - remaining
	return c
}

func refRepairCover(s *refSets, cover *Cover, full []sim.Outcome,
	maxRounds int, simulate func(filter func(maf.Fault) bool) ([]sim.Outcome, error)) (*Repair, error) {
	if maxRounds <= 0 {
		maxRounds = 5
	}
	chosen := make(map[maf.Fault]bool, len(cover.Chosen))
	for _, f := range cover.Chosen {
		chosen[f] = true
	}
	r := &Repair{}
	for {
		r.Rounds++
		out, err := simulate(func(f maf.Fault) bool { return chosen[f] })
		if err != nil {
			return nil, err
		}
		v, err := Verify(full, out)
		if err != nil {
			return nil, err
		}
		r.Verification = v
		r.Outcomes = out
		if v.Identical || r.Rounds >= maxRounds {
			break
		}
		progress := false
		for _, d := range v.Mismatches {
			if d >= len(s.ByDefect) {
				continue
			}
			for _, fi := range s.ByDefect[d] {
				f := s.Faults[fi]
				if !chosen[f] {
					chosen[f] = true
					r.Added = append(r.Added, f)
					progress = true
				}
			}
		}
		if !progress {
			break
		}
	}
	r.Tests = make([]maf.Fault, 0, len(chosen))
	for f := range chosen {
		r.Tests = append(r.Tests, f)
	}
	maf.SortFaults(r.Tests)
	return r, nil
}

// campaignLibrary simulates a seeded library on one bus of tgt under the
// target's default plan, as a job with that spec does.
func campaignLibrary(t *testing.T, tgt target.Target, bus string, size int, seed int64) ([]sim.Outcome, *defects.Library) {
	t.Helper()
	plan, err := tgt.Generate(target.GenSpec{})
	if err != nil {
		t.Fatal(err)
	}
	models, err := tgt.BusModels(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewTargetRunner(tgt, plan, models)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := tgt.Topology().Channel(bus)
	if !ok {
		t.Fatalf("%s has no bus %q", tgt.Name(), bus)
	}
	lib, err := defects.Generate(models[id].Nominal, models[id].Thresholds,
		defects.Config{Size: size, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Campaign(id, lib)
	if err != nil {
		t.Fatal(err)
	}
	return res.Outcomes, lib
}

// lastTestSimulate models a minimized program in which a defect's
// detection reproduces only when its canonically last test is kept, so a
// greedy cover leaves mismatches for the repair rounds; crash-only defects
// reproduce regardless.
func lastTestSimulate(full []sim.Outcome) func(func(maf.Fault) bool) ([]sim.Outcome, error) {
	return func(filter func(maf.Fault) bool) ([]sim.Outcome, error) {
		outs := make([]sim.Outcome, len(full))
		for d, o := range full {
			outs[d].DefectID = o.DefectID
			if faults := o.DetectedBy.Faults(); len(faults) > 0 {
				outs[d].Detected = filter(faults[len(faults)-1])
			} else {
				outs[d].Detected = o.Detected
			}
		}
		return outs, nil
	}
}

// TestMatchesListReference runs every set-based analysis against its
// list-based reference on seeded libraries of both Parwan buses and of a
// 64-wire bus, and requires equal results: candidate lists with scores
// compared by ==, statistics, accuracy, covers and repairs.
func TestMatchesListReference(t *testing.T) {
	type lib struct {
		tgt   target.Target
		bus   string
		size  int
		seeds []int64
	}
	libs := []lib{
		{target.Parwan(), "addr", 1000, []int64{1, 2, 3}},
		{target.Parwan(), "data", 1000, []int64{1, 2, 3}},
		{target.MustWideBus(64), "bus", 200, []int64{3}},
	}
	for _, l := range libs {
		for _, seed := range l.seeds {
			l, seed := l, seed
			t.Run(fmt.Sprintf("%s-%s-%d-seed%d", l.tgt.Name(), l.bus, l.size, seed), func(t *testing.T) {
				t.Parallel()
				outs, library := campaignLibrary(t, l.tgt, l.bus, l.size, seed)
				compareWithReference(t, outs, library)
			})
		}
	}
}

func compareWithReference(t *testing.T, outs []sim.Outcome, lib *defects.Library) {
	s, ref := Collect(outs), refCollect(outs)
	if got, want := s.ComputeStats(), ref.ComputeStats(); got != want {
		t.Errorf("ComputeStats %+v, reference %+v", got, want)
	}
	// The accuracy experiment diagnoses every attributed defect's own set;
	// the reference candidates give the expected hits.
	var wantAcc Accuracy
	for d, row := range ref.ByDefect {
		if len(row) == 0 {
			continue
		}
		want := ref.Localize(row)
		if got := s.Localize(outs[d].DetectedBy); !slices.Equal(got, want) {
			t.Fatalf("defect %d: Localize %v, reference %v", d, got, want)
		}
		wantAcc.Evaluated++
		for i, c := range want[:min(3, len(want))] {
			if slices.Contains(lib.Defects[d].OverThreshold, c.Wire) {
				if i == 0 {
					wantAcc.TopHit++
				}
				wantAcc.Top3Hit++
				break
			}
		}
	}
	if gotAcc, err := s.EvaluateAccuracy(lib); err != nil || gotAcc != wantAcc {
		t.Errorf("EvaluateAccuracy %+v (%v), reference %+v", gotAcc, err, wantAcc)
	}
	// Multi-test signatures: pairs of the dictionary's tests by name, and
	// the union of two neighbouring defects' sets.
	for i := 0; i+1 < len(ref.Faults); i += 7 {
		names := []string{ref.Faults[i].String(), ref.Faults[len(ref.Faults)-1-i].String()}
		sig, err := s.ResolveSignature(names)
		if err != nil {
			t.Fatal(err)
		}
		refSig, err := ref.ResolveSignature(names)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Localize(sig), ref.Localize(refSig); !slices.Equal(got, want) {
			t.Fatalf("signature %v: Localize %v, reference %v", names, got, want)
		}
	}
	for d := 0; d+1 < len(outs); d += 97 {
		union := outs[d].DetectedBy.Union(outs[d+1].DetectedBy)
		var refSig []int
		for _, f := range union.Faults() {
			i, _ := slices.BinarySearchFunc(ref.Faults, f, maf.Compare)
			refSig = append(refSig, i)
		}
		if got, want := s.Localize(union), ref.Localize(refSig); !slices.Equal(got, want) {
			t.Fatalf("defects %d+%d: Localize %v, reference %v", d, d+1, got, want)
		}
	}
	cover, refCover := GreedyCover(s), refGreedyCover(ref)
	if !reflect.DeepEqual(cover, refCover) {
		t.Errorf("GreedyCover %+v, reference %+v", cover, refCover)
	}
	rep, err := RepairCover(s, cover, lastTestSimulate(outs))
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := refRepairCover(ref, refCover, outs, 0, lastTestSimulate(outs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, refRep) {
		t.Errorf("RepairCover rounds %d added %v, reference rounds %d added %v",
			rep.Rounds, rep.Added, refRep.Rounds, refRep.Added)
	}
	if len(refRep.Added) == 0 {
		t.Errorf("the fake re-simulation left the repair nothing to add")
	}
}
