package report

import (
	"strings"
	"testing"

	"repro/internal/diagnose"
	"repro/internal/maf"
	"repro/internal/sim"
	"repro/internal/target"
)

func diagFixture() *diagnose.Sets {
	u, err := target.FaultUniverse(target.MustWideBus(4))
	if err != nil {
		panic(err)
	}
	setOf := func(faults ...maf.Fault) (s maf.Set) {
		for _, f := range faults {
			i, _ := u.Index(f)
			s.Add(u, i)
		}
		return s
	}
	gp1 := maf.Fault{Victim: 1, Kind: maf.PositiveGlitch, Dir: maf.Forward, Width: 4}
	dr2 := maf.Fault{Victim: 2, Kind: maf.RisingDelay, Dir: maf.Forward, Width: 4}
	return diagnose.Collect([]sim.Outcome{
		{DefectID: 0, Detected: true, DetectedBy: setOf(gp1, dr2)},
		{DefectID: 1, Detected: true, DetectedBy: setOf(dr2)},
		{DefectID: 2, Detected: true, Crashed: true},
	})
}

func TestDiagnosisJSONDeterministic(t *testing.T) {
	s := diagFixture()
	cands, err := s.LocalizeNames([]string{"dr[2]/fwd"})
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		var sb strings.Builder
		d := NewDiagnosisJSON("data", s, nil, []string{"dr[2]/fwd"}, cands)
		if err := WriteDiagnosisJSON(&sb, d); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("diagnosis JSON not byte-stable")
	}
	for _, want := range []string{`"bus": "data"`, `"crash_only": 1`, `"signature"`, `"candidates"`, `"dr[2]/fwd"`, `"defect": 1`} {
		if !strings.Contains(a, want) {
			t.Errorf("missing %s in:\n%s", want, a)
		}
	}
}

func TestMinimizeJSON(t *testing.T) {
	s := diagFixture()
	c := diagnose.GreedyCover(s)
	full := []sim.Outcome{{Detected: true}, {Detected: true}, {Detected: true}}
	v, err := diagnose.Verify(full, full)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	m := NewMinimizeJSON("data", c, &v)
	m.FullProgramTests, m.MinProgramTests = 400, 100
	if err := WriteMinimizeJSON(&sb, m); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"full_tests": 2`, `"newly_covered": 2`, `"identical": true`, `"full_program_tests": 400`, `"reduction": 0.5`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in:\n%s", want, out)
		}
	}
}

func TestRankJSON(t *testing.T) {
	s := diagFixture()
	var sb strings.Builder
	if err := WriteRankJSON(&sb, NewRankJSON("data", 4, diagnose.RankWires(s, 4, nil))); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"width": 4`, `"wire": 2`, `"detected": 2`} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in:\n%s", want, out)
		}
	}
}
