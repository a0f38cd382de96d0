package sim

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/maf"
	"repro/internal/parwan"
)

// TestVerifyPlanSound: the default generation produces a plan with zero
// violations — every applied test really drives its pair.
func TestVerifyPlanSound(t *testing.T) {
	for _, compaction := range []bool{false, true} {
		plan, err := core.Generate(core.GenConfig{Compaction: compaction})
		if err != nil {
			t.Fatal(err)
		}
		violations, err := VerifyPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range violations {
			t.Errorf("compaction=%v: %v", compaction, v)
		}
	}
}

// TestVerifyPlanCatchesTampering: corrupting a program byte that carries a
// test's operand makes verification fail (or the program hang, which is
// also reported).
func TestVerifyPlanCatchesTampering(t *testing.T) {
	plan, err := core.Generate(core.GenConfig{SkipAddrBus: true})
	if err != nil {
		t.Fatal(err)
	}
	prog := plan.Programs[0]
	// Corrupt a reverse test's constant cell: the accumulator then carries
	// the wrong v2, so that test's write-direction pair never appears.
	// (A forward test's cell would not do: its pair is legitimately
	// reproduced by the reverse tests' read-back loads.)
	var cell uint16
	found := false
	for _, a := range prog.Applied {
		if a.Scheme != core.DataReverse {
			continue
		}
		v2 := byte(a.MA.V2.Uint64())
		for addr := uint16(core.DefaultConstBase); addr < core.DefaultConstBase+0x100; addr++ {
			if prog.Image.Used(addr) && prog.Image.Get(addr) == v2 {
				cell = addr
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no constant cell found to tamper with")
	}
	// Rebuild the image with the cell flipped. Image pins are write-once,
	// so reconstruct from bytes.
	tampered := *prog
	img := prog.Image.Bytes()
	img[cell] ^= 0xFF
	tampered.Image = imageFromBytes(t, img)
	tamperedPlan := &core.Plan{Programs: []*core.TestProgram{&tampered}}
	violations, err := VerifyPlan(tamperedPlan)
	if err != nil {
		return // program derailment is also a caught failure
	}
	if len(violations) == 0 {
		t.Error("tampered plan verified clean")
	}
}

func imageFromBytes(t *testing.T, img []byte) *parwan.Image {
	t.Helper()
	im := parwan.NewImage()
	if err := im.SetBytes(0, img); err != nil {
		t.Fatal(err)
	}
	return im
}

func TestVerifyThresholdConsistency(t *testing.T) {
	addr, data, err := DefaultSetups()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyThresholdConsistency(addr, false); err != nil {
		t.Errorf("address setup inconsistent: %v", err)
	}
	if err := VerifyThresholdConsistency(data, true); err != nil {
		t.Errorf("data setup inconsistent: %v", err)
	}
	// Mismatched thresholds (derived for a different geometry) fail.
	tight := addr.Thresholds
	tight.Cth = addr.Nominal.MaxNetCoupling() * 0.5
	tight.GlitchFrac = tight.Cth / (tight.Cg0 + tight.Cth)
	tight.Slack[0] = tight.Slack[0] / 4
	tight.Slack[1] = tight.Slack[1] / 4
	bad := BusSetup{Nominal: addr.Nominal, Thresholds: tight}
	if err := VerifyThresholdConsistency(bad, false); err == nil {
		t.Error("inconsistent thresholds passed verification")
	}
}

// FuzzGenerateFiltered generates the plan for a 112-bit filter mask over the
// Parwan fault universe (the 64 data-bus faults in maf.Universe order on
// bits 0..63 of data, the 48 address-bus faults on bits 0..47 of addr), in
// either compaction mode, with 1 to 8 sessions. Generation must repeat byte
// for byte, every session must halt and drive its applied tests' pairs, the
// applied and inapplicable tests must be the filtered universe, each once,
// and the plan must survive a ReadPlan/WritePlan round trip unchanged.
func FuzzGenerateFiltered(f *testing.F) {
	dataFaults := maf.Universe(parwan.DataBits, true)
	addrFaults := maf.Universe(parwan.AddrBits, false)
	var wire1 uint64
	for i, fault := range addrFaults {
		if fault.Victim == 1 {
			wire1 |= 1 << i
		}
	}
	f.Add(^uint64(0), uint64(1)<<len(addrFaults)-1, false, uint8(core.DefaultMaxSessions-1))
	f.Add(uint64(0), wire1, false, uint8(core.DefaultMaxSessions-1))
	f.Add(uint64(0), uint64(0), true, uint8(0))
	f.Fuzz(func(t *testing.T, data, addr uint64, compaction bool, sessions uint8) {
		want := make(map[maf.Fault]bool)
		for i, fault := range dataFaults {
			if data>>i&1 == 1 {
				want[fault] = true
			}
		}
		for i, fault := range addrFaults {
			if addr>>i&1 == 1 {
				want[fault] = true
			}
		}
		cfg := core.GenConfig{
			Compaction:  compaction,
			MaxSessions: 1 + int(sessions%8),
			Filter:      func(fault maf.Fault) bool { return want[fault] },
		}
		write := func(p *core.Plan) []byte {
			var buf bytes.Buffer
			if err := core.WritePlan(&buf, p); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		plan, err := core.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		again, err := core.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		planBytes := write(plan)
		if !bytes.Equal(planBytes, write(again)) {
			t.Fatal("two generations of one configuration differ")
		}

		violations, err := VerifyPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range violations {
			t.Error(v)
		}

		seen := make(map[maf.Fault]int)
		for _, prog := range plan.Programs {
			for _, a := range prog.Applied {
				seen[a.MA.Fault]++
			}
		}
		for _, r := range plan.Inapplicable {
			seen[r.MA.Fault]++
		}
		for fault, n := range seen {
			if !want[fault] || n != 1 {
				t.Errorf("%v: accounted %d times, filtered in %v", fault, n, want[fault])
			}
		}
		if len(seen) != len(want) {
			t.Errorf("plan accounts for %d of %d filtered tests", len(seen), len(want))
		}

		read, err := core.ReadPlan(bytes.NewReader(planBytes))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(planBytes, write(read)) {
			t.Error("ReadPlan of the plan writes different bytes")
		}
	})
}
