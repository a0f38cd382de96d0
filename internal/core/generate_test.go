package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/maf"
	"repro/internal/parwan"
	"repro/internal/soc"
)

// goldenRun executes a program on the ideal (crosstalk-free) system with
// tracing and returns the system.
func goldenRun(t *testing.T, prog *core.TestProgram) *soc.System {
	t.Helper()
	s, err := soc.New(soc.Config{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	s.LoadImage(prog.Image)
	s.CPU.PC = prog.Entry
	n, err := s.Run(prog.StepLimit)
	if err != nil {
		t.Fatalf("golden run failed after %d steps: %v", n, err)
	}
	if !s.CPU.Halted() {
		t.Fatalf("golden run did not halt within %d steps", prog.StepLimit)
	}
	return s
}

func generate(t *testing.T, cfg core.GenConfig) *core.Plan {
	t.Helper()
	plan, err := core.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Programs) == 0 {
		t.Fatal("no programs generated")
	}
	return plan
}

// TestAllDataBusTestsApplied pins the paper's headline: all 64 data-bus MA
// tests are applicable in the first program (§5).
func TestAllDataBusTestsApplied(t *testing.T) {
	plan := generate(t, core.GenConfig{})
	total, first := plan.AppliedOn(core.DataBus)
	if first != 64 {
		t.Errorf("data-bus tests in first session = %d, want 64", first)
	}
	if total != 64 {
		t.Errorf("data-bus tests total = %d, want 64", total)
	}
}

// TestAddressBusApplicability: the paper applied 41/48 address-bus tests in
// a single program, losing 7 to address conflicts, with session splitting
// recovering the rest. Our static placement is more conservative (see
// EXPERIMENTS.md for the structural-conflict analysis): a single program
// carries a substantial subset, sessions recover most of the remainder, and
// every test is either applied or reported inapplicable with a reason.
func TestAddressBusApplicability(t *testing.T) {
	plan := generate(t, core.GenConfig{})
	total, first := plan.AppliedOn(core.AddrBus)
	t.Logf("address-bus tests: %d/48 in first session, %d/48 across %d sessions, %d inapplicable",
		first, total, len(plan.Programs), len(plan.Inapplicable))
	if first < 16 || first >= 48 {
		t.Errorf("first-session address-bus tests = %d, want a large-but-incomplete subset of 48", first)
	}
	if total < 40 {
		t.Errorf("total address-bus tests across sessions = %d, want >= 40 of 48", total)
	}
	if total+len(inapplicableOn(plan, core.AddrBus)) != 48 {
		t.Errorf("address tests unaccounted: %d applied + %d inapplicable != 48",
			total, len(inapplicableOn(plan, core.AddrBus)))
	}
	for _, r := range inapplicableOn(plan, core.AddrBus) {
		if r.Reason == "" {
			t.Errorf("inapplicable test %v has no reason", r.MA.Fault)
		}
	}
}

func inapplicableOn(plan *core.Plan, bus core.BusID) []core.Rejected {
	var out []core.Rejected
	for _, r := range plan.Inapplicable {
		if r.Bus == bus {
			out = append(out, r)
		}
	}
	return out
}

// TestProgramsHaltAndRespond: every session program halts on the ideal
// system and writes all its response cells' tests deterministically.
func TestProgramsHaltAndRespond(t *testing.T) {
	plan := generate(t, core.GenConfig{})
	for _, prog := range plan.Programs {
		s := goldenRun(t, prog)
		if len(prog.ResponseCells) == 0 {
			t.Errorf("session %d has no response cells", prog.Session)
		}
		// Data-bus forward tests: golden response equals v2.
		for _, a := range prog.Applied {
			if a.Scheme == core.DataForward && !plan.Compaction {
				want := uint8(a.MA.V2.Uint64())
				if got := s.Peek(a.ResponseCells[0]); got != want {
					t.Errorf("session %d %v: golden response %02x, want %02x",
						prog.Session, a, got, want)
				}
			}
			if a.Scheme == core.DataReverse {
				want := uint8(a.MA.V2.Uint64())
				if got := s.Peek(a.ResponseCells[0]); got != want {
					t.Errorf("session %d %v: store target %02x, want %02x",
						prog.Session, a, got, want)
				}
			}
		}
	}
}

// TestVectorPairsAppearOnBusses is the decisive check: executing the golden
// program must put every applied test's exact MA vector pair on the right
// bus in the right direction as a back-to-back transition.
func TestVectorPairsAppearOnBusses(t *testing.T) {
	plan := generate(t, core.GenConfig{})
	for _, prog := range plan.Programs {
		s := goldenRun(t, prog)
		trace := s.Trace()
		for _, a := range prog.Applied {
			v1 := a.MA.V1.Uint64()
			v2 := a.MA.V2.Uint64()
			found := false
			for _, tr := range trace {
				switch a.Bus {
				case core.AddrBus:
					if uint64(tr.AddrPrev) == v1 && uint64(tr.Addr) == v2 {
						found = true
					}
				case core.DataBus:
					if uint64(tr.DataPrev) == v1 && uint64(tr.Data) == v2 &&
						tr.Write == (a.MA.Fault.Dir == maf.Reverse) {
						found = true
					}
				}
				if found {
					break
				}
			}
			if !found {
				t.Errorf("session %d: MA pair for %v never appeared on the %v bus",
					prog.Session, a.MA.Fault, a.Bus)
			}
		}
	}
}

// TestDefectDetection: end to end, a defect on an address wire and a defect
// on a data wire are each caught by comparing response cells against golden.
func TestDefectDetection(t *testing.T) {
	plan := generate(t, core.GenConfig{})
	prog := plan.Programs[0]
	golden := goldenRun(t, prog)

	cases := []struct {
		name   string
		bus    string
		victim int
	}{
		{"address wire 5", "addr", 5},
		{"address wire 6", "addr", 6},
		{"data wire 3", "data", 3},
		{"data wire 4", "data", 4},
	}
	for _, c := range cases {
		s := defectiveSystem(t, c.bus, c.victim, 1.3)
		s.LoadImage(prog.Image)
		s.CPU.PC = prog.Entry
		_, runErr := s.Run(prog.StepLimit)
		detected := runErr != nil || !s.CPU.Halted()
		for _, cell := range prog.ResponseCells {
			if s.Peek(cell) != golden.Peek(cell) {
				detected = true
				break
			}
		}
		if !detected {
			t.Errorf("%s: defect not detected by the test program", c.name)
		}
	}
}

// TestNoFalsePositives: a second golden run produces identical responses.
func TestNoFalsePositives(t *testing.T) {
	plan := generate(t, core.GenConfig{})
	prog := plan.Programs[0]
	a := goldenRun(t, prog)
	b := goldenRun(t, prog)
	for _, cell := range prog.ResponseCells {
		if a.Peek(cell) != b.Peek(cell) {
			t.Fatalf("golden runs disagree at %03x", cell)
		}
	}
}

// TestCompactionMode: compaction still applies all data-bus tests, halts,
// and shrinks both program size and response count.
func TestCompactionMode(t *testing.T) {
	plain := generate(t, core.GenConfig{})
	compact := generate(t, core.GenConfig{Compaction: true})
	_, firstPlain := plain.AppliedOn(core.DataBus)
	_, firstCompact := compact.AppliedOn(core.DataBus)
	if firstCompact != firstPlain {
		t.Errorf("compaction lost data-bus tests: %d vs %d", firstCompact, firstPlain)
	}
	for _, prog := range compact.Programs {
		goldenRun(t, prog)
	}
	if len(compact.Programs[0].ResponseCells) >= len(plain.Programs[0].ResponseCells) {
		t.Errorf("compaction did not reduce response cells: %d vs %d",
			len(compact.Programs[0].ResponseCells), len(plain.Programs[0].ResponseCells))
	}
	if compact.Programs[0].Image.UsedCount() >= plain.Programs[0].Image.UsedCount() {
		t.Errorf("compaction did not reduce program size: %d vs %d bytes",
			compact.Programs[0].Image.UsedCount(), plain.Programs[0].Image.UsedCount())
	}
}

// TestCompactionDetectsDefects: compacted signatures still catch defects.
func TestCompactionDetectsDefects(t *testing.T) {
	plan := generate(t, core.GenConfig{Compaction: true})
	prog := plan.Programs[0]
	golden := goldenRun(t, prog)
	s := defectiveSystem(t, "data", 4, 1.3)
	s.LoadImage(prog.Image)
	s.CPU.PC = prog.Entry
	_, _ = s.Run(prog.StepLimit)
	detected := !s.CPU.Halted()
	for _, cell := range prog.ResponseCells {
		if s.Peek(cell) != golden.Peek(cell) {
			detected = true
		}
	}
	if !detected {
		t.Error("compacted program missed a data-bus defect")
	}
}

// TestSkipFlags: bus-selection flags restrict the universe.
func TestSkipFlags(t *testing.T) {
	dataOnly := generate(t, core.GenConfig{SkipAddrBus: true})
	if n, _ := dataOnly.AppliedOn(core.AddrBus); n != 0 {
		t.Errorf("SkipAddrBus still applied %d address tests", n)
	}
	if n, _ := dataOnly.AppliedOn(core.DataBus); n != 64 {
		t.Errorf("data-only plan applied %d data tests", n)
	}
	addrOnly := generate(t, core.GenConfig{SkipDataBus: true})
	if n, _ := addrOnly.AppliedOn(core.DataBus); n != 0 {
		t.Errorf("SkipDataBus still applied %d data tests", n)
	}
}

// TestPlanBookkeeping: orders are sequential, response cells sorted, and
// FindApplied locates every applied fault.
func TestPlanBookkeeping(t *testing.T) {
	plan := generate(t, core.GenConfig{})
	for _, prog := range plan.Programs {
		for i, a := range prog.Applied {
			if a.Order != i {
				t.Fatalf("session %d applied[%d].Order = %d", prog.Session, i, a.Order)
			}
			if len(a.ResponseCells) == 0 {
				t.Fatalf("session %d %v has no response cells", prog.Session, a)
			}
		}
		cells := prog.ResponseCells
		for i := 1; i < len(cells); i++ {
			if cells[i] <= cells[i-1] {
				t.Fatal("response cells not sorted/unique")
			}
		}
		for _, a := range prog.Applied {
			p, got, ok := plan.FindApplied(a.MA.Fault)
			if !ok || p != prog || got.MA.Fault != a.MA.Fault {
				t.Fatalf("FindApplied failed for %v", a.MA.Fault)
			}
		}
	}
	if _, _, ok := plan.FindApplied(maf.Fault{Victim: 99, Width: 8}); ok {
		t.Error("FindApplied found a nonexistent fault")
	}
}

// TestGenerateDeterministic: generation is a pure function of its config.
func TestGenerateDeterministic(t *testing.T) {
	a := generate(t, core.GenConfig{})
	b := generate(t, core.GenConfig{})
	if len(a.Programs) != len(b.Programs) {
		t.Fatal("program counts differ across runs")
	}
	for i := range a.Programs {
		ab, bb := a.Programs[i].Image.Bytes(), b.Programs[i].Image.Bytes()
		for j := range ab {
			if ab[j] != bb[j] {
				t.Fatalf("session %d images differ at %03x", i, j)
			}
		}
	}
}

// TestProgramSizeProportionalToTests: the paper argues program size is
// proportional to bus width (a constant number of instructions per MAF).
// Data-bus-only programs make this directly visible.
func TestProgramSizeReasonable(t *testing.T) {
	plan := generate(t, core.GenConfig{})
	size := plan.Programs[0].Image.UsedCount()
	applied := len(plan.Programs[0].Applied)
	perTest := float64(size) / float64(applied)
	t.Logf("program: %d bytes for %d tests (%.1f bytes/test)", size, applied, perTest)
	if perTest > 20 {
		t.Errorf("program uses %.1f bytes per test, expected a small constant", perTest)
	}
}

func defectiveSystem(t *testing.T, bus string, victim int, factor float64) *soc.System {
	t.Helper()
	s, err := soc.New(soc.Config{
		AddrChannel: defectiveChannelIf(t, bus == "addr", parwan.AddrBits, victim, factor),
		DataChannel: defectiveChannelIf(t, bus == "data", parwan.DataBits, victim, factor),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// BenchmarkGenerate times plan generation alone: the default plan, the
// compacted plan, and the address-wire-1 plan of Fig. 11, whose every
// two-instruction candidate lands on its own continuation slot.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct {
		name string
		cfg  core.GenConfig
	}{
		{"default", core.GenConfig{}},
		{"compaction", core.GenConfig{Compaction: true}},
		{"addr-wire-1", core.GenConfig{
			SkipDataBus: true,
			Filter:      func(f maf.Fault) bool { return f.Victim == 1 },
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Generate(c.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
