package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestPlanRoundTrip(t *testing.T) {
	plan := generate(t, core.GenConfig{})
	var buf bytes.Buffer
	if err := core.WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	got, err := core.ReadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Compaction != plan.Compaction || len(got.Programs) != len(plan.Programs) {
		t.Fatalf("structure differs: %d programs", len(got.Programs))
	}
	for i, prog := range plan.Programs {
		rp := got.Programs[i]
		if rp.Entry != prog.Entry || rp.StepLimit != prog.StepLimit || rp.Session != prog.Session {
			t.Fatalf("session %d metadata differs", i)
		}
		a, b := prog.Image.Bytes(), rp.Image.Bytes()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("session %d image differs at %03x: %02x vs %02x", i, j, a[j], b[j])
			}
		}
		if len(rp.Applied) != len(prog.Applied) {
			t.Fatalf("session %d applied count differs", i)
		}
		for j := range prog.Applied {
			if rp.Applied[j].MA.Fault != prog.Applied[j].MA.Fault ||
				rp.Applied[j].Scheme != prog.Applied[j].Scheme ||
				rp.Applied[j].Bus != prog.Applied[j].Bus {
				t.Fatalf("session %d applied[%d] differs: %v vs %v",
					i, j, rp.Applied[j], prog.Applied[j])
			}
		}
	}
	if len(got.Inapplicable) != len(plan.Inapplicable) {
		t.Fatal("inapplicable count differs")
	}
}

// TestLoadedPlanRunsIdentically: a round-tripped plan produces the same
// golden responses.
func TestLoadedPlanRunsIdentically(t *testing.T) {
	plan := generate(t, core.GenConfig{})
	var buf bytes.Buffer
	if err := core.WritePlan(&buf, plan); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ReadPlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	addr, data, err := sim.DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := sim.NewRunner(plan, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.NewRunner(loaded, addr, data)
	if err != nil {
		t.Fatal(err)
	}
	if r1.GoldenCycles() != r2.GoldenCycles() {
		t.Errorf("golden cycles differ: %d vs %d", r1.GoldenCycles(), r2.GoldenCycles())
	}
	for s := range plan.Programs {
		a, b := r1.Golden(s), r2.Golden(s)
		for cell, v := range a.Responses {
			if b.Responses[cell] != v {
				t.Fatalf("session %d responses differ at %03x", s, cell)
			}
		}
	}
}

func TestReadPlanRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"programs":[{"image":[{"addr":0,"hex":"zz"}]}]}`,
		`{"programs":[{"applied":[{"victim":0,"kind":"xx","dir":"fwd","width":8,"bus":"data","scheme":"data-fwd"}]}]}`,
		`{"programs":[{"applied":[{"victim":0,"kind":"gp","dir":"??","width":8,"bus":"data","scheme":"data-fwd"}]}]}`,
		`{"programs":[{"applied":[{"victim":9,"kind":"gp","dir":"fwd","width":8,"bus":"data","scheme":"data-fwd"}]}]}`,
		`{"programs":[{"applied":[{"victim":0,"kind":"gp","dir":"fwd","width":8,"bus":"??","scheme":"data-fwd"}]}]}`,
		`{"programs":[{"applied":[{"victim":0,"kind":"gp","dir":"fwd","width":8,"bus":"data","scheme":"??"}]}]}`,
		`{"inapplicable":[{"victim":0,"kind":"??","dir":"fwd","width":8,"bus":"data"}]}`,
		// A test's response cell that its program never unloads.
		`{"programs":[{"response_cells":[1],"applied":[{"victim":0,"kind":"gp","dir":"fwd","width":8,"bus":"data","scheme":"data-fwd","response_cells":[2]}]}]}`,
	}
	for i, c := range cases {
		if _, err := core.ReadPlan(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSaveLoadPlanFile(t *testing.T) {
	plan := generate(t, core.GenConfig{Compaction: true})
	path := t.TempDir() + "/plan.json"
	if err := core.SavePlan(path, plan); err != nil {
		t.Fatal(err)
	}
	got, err := core.LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Compaction {
		t.Error("compaction flag lost")
	}
	if _, err := core.LoadPlan(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestReadPlanBounds reads plans at and just past MaxPlanPrograms and
// MaxPlanSteps: the first are accepted, the second refused, as is a
// negative step limit that would cancel out a large one.
func TestReadPlanBounds(t *testing.T) {
	programs := func(n int, step string) string {
		prog := `{"step_limit":` + step + `}`
		return `{"programs":[` + strings.Repeat(prog+",", n-1) + prog + `]}`
	}
	half, full := fmt.Sprint(core.MaxPlanSteps/2), fmt.Sprint(core.MaxPlanSteps)
	for _, c := range []struct {
		name, doc string
		ok        bool
	}{
		{"programs at the cap", programs(core.MaxPlanPrograms, "0"), true},
		{"programs over the cap", programs(core.MaxPlanPrograms+1, "0"), false},
		{"steps at the cap", programs(2, half), true},
		{"steps over the cap", `{"programs":[{"step_limit":` + half + `},{"step_limit":` + half + `},{"step_limit":1}]}`, false},
		{"one program over the cap", programs(1, fmt.Sprint(core.MaxPlanSteps+1)), false},
		{"negative step limit", `{"programs":[{"step_limit":` + full + `},{"step_limit":-` + full + `},{"step_limit":` + full + `}]}`, false},
		{"step sum overflowing int", `{"programs":[{"step_limit":9223372036854775807},{"step_limit":9223372036854775807}]}`, false},
	} {
		_, err := core.ReadPlan(strings.NewReader(c.doc))
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want accepted %v", c.name, err, c.ok)
		}
	}
}

// FuzzReadPlan holds ReadPlan to WritePlan, since every xtalkd role parses
// inline plans from untrusted specs: whatever ReadPlan accepts renders,
// reads back, and renders to the same bytes again.
func FuzzReadPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		p, err := core.ReadPlan(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := core.WritePlan(&first, p); err != nil {
			t.Fatalf("WritePlan refuses a plan ReadPlan accepted: %v", err)
		}
		again, err := core.ReadPlan(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("rendering does not read back: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := core.WritePlan(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("render, read, render changed bytes:\n--- first ---\n%s--- second ---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
