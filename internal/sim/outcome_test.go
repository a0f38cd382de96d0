package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/maf"
	"repro/internal/target"
)

// TestJudgeAndMergeAllocateNothing pins the verdict path's cost: judging a
// session run sets bits in a fixed-size set and merging two outcomes ORs
// them, so neither allocates. A run whose every response cell differs from
// golden credits every test of its session, and merging two sessions'
// verdicts credits each fault once, in canonical order.
func TestJudgeAndMergeAllocateNothing(t *testing.T) {
	r := newRunner(t, core.GenConfig{})
	if len(r.plan.Programs) < 2 {
		t.Fatalf("the default plan has %d sessions, want at least 2", len(r.plan.Programs))
	}
	corrupt := func(s int) RunResult {
		res := r.Golden(s)
		res.Responses = append([]uint8(nil), res.Responses...)
		for i := range res.Responses {
			res.Responses[i] ^= 0xff
		}
		return res
	}
	res0, res1 := corrupt(0), corrupt(1)
	var out0, out1 Outcome
	if n := testing.AllocsPerRun(100, func() {
		out0 = Outcome{}
		r.judge(&out0, 0, res0)
	}); n != 0 {
		t.Errorf("judge allocates %v times per run", n)
	}
	r.judge(&out1, 1, res1)
	merged := out0
	if n := testing.AllocsPerRun(100, func() {
		merged = out0
		merged.Merge(out1)
	}); n != 0 {
		t.Errorf("Outcome.Merge allocates %v times per run", n)
	}
	var applied []maf.Fault
	for s := 0; s < 2; s++ {
		for _, a := range r.plan.Programs[s].Applied {
			applied = append(applied, a.MA.Fault)
		}
	}
	slices.SortFunc(applied, maf.Compare)
	applied = slices.Compact(applied)
	if got := merged.DetectedBy.Faults(); !reflect.DeepEqual(got, applied) {
		t.Errorf("merged sessions 0 and 1 credit %v, want every applied fault once: %v", got, applied)
	}
	if !merged.Detected || merged.Crashed {
		t.Errorf("merged verdict detected=%v crashed=%v, want a detection without a crash", merged.Detected, merged.Crashed)
	}
}

// TestOutcomeMergeLaws: Merge is commutative and associative, and the
// identity verdict (DefectID and Bus, Replayed) is its identity, so the
// in-field ledger may fold slices in any order and grouping. Its OR and
// AND fields and the detection set are idempotent too; Activations sums, so
// the ledger merges each slice once.
func TestOutcomeMergeLaws(t *testing.T) {
	u, err := target.FaultUniverse(target.Parwan())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(28))
	random := func() Outcome {
		o := Outcome{DefectID: 3, Bus: core.AddrBus, Replayed: rng.Intn(3) == 0}
		if rng.Intn(4) > 0 {
			o.Detected = true
			o.Crashed = rng.Intn(3) == 0
			o.Activations = rng.Intn(40)
			for n := rng.Intn(10); n > 0; n-- {
				o.DetectedBy.Add(u, rng.Intn(u.Len()))
			}
		}
		return o
	}
	merge := func(a, b Outcome) Outcome {
		a.Merge(b)
		return a
	}
	identity := Outcome{DefectID: 3, Bus: core.AddrBus, Replayed: true}
	for trial := 0; trial < 500; trial++ {
		a, b, c := random(), random(), random()
		if merge(a, b) != merge(b, a) {
			t.Fatalf("Merge is not commutative:\n%+v\n%+v", a, b)
		}
		if merge(merge(a, b), c) != merge(a, merge(b, c)) {
			t.Fatalf("Merge is not associative:\n%+v\n%+v\n%+v", a, b, c)
		}
		if merge(identity, a) != a {
			t.Fatalf("the identity verdict changed %+v to %+v", a, merge(identity, a))
		}
		twice := merge(a, a)
		twice.Activations = a.Activations
		if twice != a {
			t.Fatalf("merging %+v with itself gives %+v beyond its activations", a, twice)
		}
	}
}

// bidirectionalWideBus is a 64-wire widebus target relabelled as
// bidirectional: a topology of 512 faults, twice what a detection set holds.
type bidirectionalWideBus struct{ target.Target }

func (bidirectionalWideBus) Name() string { return "bidirectional-widebus64" }

func (bidirectionalWideBus) Topology() target.Topology {
	return target.Topology{Channels: []target.ChannelDesc{{Name: "bus", Width: 64, Bidirectional: true}}}
}

// TestRunnerRefusesOversizedUniverse: a target whose fault universe exceeds
// a detection set's bits is refused when its runner is built.
func TestRunnerRefusesOversizedUniverse(t *testing.T) {
	wb := target.MustWideBus(64)
	plan, err := wb.Generate(target.GenSpec{Filter: func(f maf.Fault) bool { return f.Victim == 0 }})
	if err != nil {
		t.Fatal(err)
	}
	models, err := wb.BusModels(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTargetRunner(wb, plan, models); err != nil {
		t.Fatalf("the 256-fault widebus64 is refused: %v", err)
	}
	_, err = NewTargetRunner(bidirectionalWideBus{wb}, plan, models)
	if err == nil || !strings.Contains(err.Error(), "512 faults") {
		t.Fatalf("a 512-fault topology: err = %v, want a refusal naming its 512 faults", err)
	}
}
