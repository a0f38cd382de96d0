package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/maf"
)

func TestMaxSessionsOne(t *testing.T) {
	plan := generate(t, core.GenConfig{MaxSessions: 1})
	if len(plan.Programs) != 1 {
		t.Fatalf("programs = %d, want 1", len(plan.Programs))
	}
	total, first := plan.AppliedOn(core.AddrBus)
	if total != first {
		t.Error("single-session plan applied tests outside session 0")
	}
	if total+len(inapplicableOn(plan, core.AddrBus)) != 48 {
		t.Error("address tests unaccounted in single-session plan")
	}
}

func TestFilterSingleVictim(t *testing.T) {
	plan := generate(t, core.GenConfig{
		Filter: func(f maf.Fault) bool { return f.Victim == 5 },
	})
	for _, prog := range plan.Programs {
		for _, a := range prog.Applied {
			if a.MA.Fault.Victim != 5 {
				t.Fatalf("filtered plan applied %v", a.MA.Fault)
			}
		}
	}
	dTotal, _ := plan.AppliedOn(core.DataBus)
	aTotal, _ := plan.AppliedOn(core.AddrBus)
	if dTotal == 0 || aTotal == 0 {
		t.Errorf("single-victim plan applied %d data / %d addr tests", dTotal, aTotal)
	}
	if dTotal > 8 || aTotal > 4 {
		t.Errorf("too many tests for one victim: %d data / %d addr", dTotal, aTotal)
	}
}

func TestFilterEmptyUniverse(t *testing.T) {
	plan, err := core.Generate(core.GenConfig{
		Filter: func(maf.Fault) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Programs) != 0 {
		// A program with zero tests should not be emitted.
		for _, p := range plan.Programs {
			if len(p.Applied) > 0 {
				t.Errorf("empty-filter plan applied tests")
			}
		}
	}
}

func TestBusIDString(t *testing.T) {
	if core.DataBus.String() != "data" || core.AddrBus.String() != "addr" {
		t.Error("BusID names wrong")
	}
	if core.BusID(9).String() != "BusID(9)" {
		t.Error("invalid BusID String")
	}
	if core.DataForward.String() != "data-fwd" || core.AddrTwoInstr.String() != "addr-two-instr" {
		t.Error("Scheme names wrong")
	}
	if core.Scheme(9).String() != "Scheme(9)" {
		t.Error("invalid Scheme String")
	}
}

func TestAppliedTestString(t *testing.T) {
	plan := generate(t, core.GenConfig{SkipAddrBus: true})
	s := plan.Programs[0].Applied[0].String()
	if s == "" {
		t.Error("empty AppliedTest string")
	}
}
