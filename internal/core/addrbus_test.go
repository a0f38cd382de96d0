package core

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/maf"
	"repro/internal/parwan"
)

// runsToHalt executes a program image on an ideal flat memory and reports
// whether it halts within the step limit.
func runsToHalt(t *testing.T, prog *TestProgram) bool {
	t.Helper()
	bus := &flatMem{}
	copy(bus.mem[:], prog.Image.Bytes())
	cpu := parwan.New(bus)
	cpu.PC = prog.Entry
	if _, err := cpu.Run(prog.StepLimit); err != nil {
		t.Logf("run error: %v", err)
		return false
	}
	return cpu.Halted()
}

type flatMem struct{ mem [parwan.MemSize]byte }

func (b *flatMem) Read(addr logic.Word) logic.Word {
	return logic.NewWord(uint64(b.mem[addr.Uint64()]), parwan.DataBits)
}

func (b *flatMem) Write(addr, data logic.Word) {
	b.mem[addr.Uint64()] = byte(data.Uint64())
}

func TestAddrMask(t *testing.T) {
	if addrMask(0x1005) != 0x005 || addrMask(0xFFF) != 0xFFF {
		t.Error("addrMask wrong")
	}
}

func TestFaultyAddress(t *testing.T) {
	cases := []struct {
		f    maf.Fault
		want uint16
	}{
		// Rising delay on wire 4: v2 = 0x010; delayed victim holds v1's 0.
		{maf.Fault{Victim: 4, Kind: maf.RisingDelay, Width: 12}, 0x000},
		// Falling delay on wire 4: v2 = 0xFEF; delayed victim holds 1.
		{maf.Fault{Victim: 4, Kind: maf.FallingDelay, Width: 12}, 0xFFF},
		// Positive glitch on wire 4: v2 = 0xFEF; victim flips 0 -> 1.
		{maf.Fault{Victim: 4, Kind: maf.PositiveGlitch, Width: 12}, 0xFFF},
		// Negative glitch on wire 4: v2 = 0x010; victim flips 1 -> 0.
		{maf.Fault{Victim: 4, Kind: maf.NegativeGlitch, Width: 12}, 0x000},
	}
	for _, c := range cases {
		if got := faultyAddress(c.f); got != c.want {
			t.Errorf("faultyAddress(%v) = %03x, want %03x", c.f, got, c.want)
		}
	}
}

func TestPinSetConsistency(t *testing.T) {
	ps := pinSet{}
	if err := ps.add(0x10, 0xAA); err != nil {
		t.Fatal(err)
	}
	if err := ps.add(0x10, 0xAA); err != nil {
		t.Errorf("same value re-add failed: %v", err)
	}
	if err := ps.add(0x10, 0xBB); err == nil {
		t.Error("conflicting add accepted")
	}
	// Addresses wrap into the 12-bit space.
	if err := ps.add(0x1010, 0xAA); err != nil {
		t.Errorf("aliased add with same value failed: %v", err)
	}
}

func TestPinSetFeasibleAndApply(t *testing.T) {
	l := newLayout()
	if err := l.pin(0x20, 0x11); err != nil {
		t.Fatal(err)
	}
	if err := l.reserve(0x21); err != nil {
		t.Fatal(err)
	}
	ps := pinsOf(t, pin{0x20, 0x11}, pin{0x22, 0x33})
	if !ps.feasible(l) {
		t.Error("compatible set reported infeasible")
	}
	bad := pinsOf(t, pin{0x20, 0x99})
	if bad.feasible(l) {
		t.Error("conflicting set reported feasible")
	}
	res := pinsOf(t, pin{0x21, 0x01})
	if res.feasible(l) {
		t.Error("set over reserved cell reported feasible")
	}
	if err := ps.apply(l); err != nil {
		t.Fatal(err)
	}
	if l.im.Get(0x22) != 0x33 {
		t.Error("apply missed a pin")
	}
}

// pinsOf builds a pin set from address/byte pairs.
func pinsOf(t *testing.T, pins ...pin) *pinSet {
	t.Helper()
	var ps pinSet
	for _, p := range pins {
		if err := ps.add(p.addr, p.b); err != nil {
			t.Fatal(err)
		}
	}
	return &ps
}

// pinAt returns the set's pin at addr, zero when it has none.
func pinAt(ps *pinSet, addr uint16) byte {
	v, _ := ps.lookup(addr)
	return v
}

func TestPlaceAddrDirectBasics(t *testing.T) {
	l := newLayout()
	f := maf.Fault{Victim: 5, Kind: maf.FallingDelay, Dir: maf.Forward, Width: 12}
	frag, err := placeAddrDirect(l, f, false)
	if err != nil {
		t.Fatal(err)
	}
	t1 := maf.TestFor(f)
	v1 := uint16(t1.V1.Uint64())
	v2 := uint16(t1.V2.Uint64())
	if frag.scheme != AddrDirect || frag.entry != v1-1 || frag.cont != v1+1 {
		t.Errorf("fragment = %+v", frag)
	}
	// The instruction bytes encode "lda v2".
	in, _, err := parwan.Decode([]byte{l.im.Get(v1 - 1), l.im.Get(v1)})
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != parwan.LDA || in.Target != v2 {
		t.Errorf("placed instruction %v", in)
	}
	// Seeds are deferred: resolveSeeds pins them distinct.
	kept, dropped := resolveSeeds(l, []fragment{frag})
	if len(kept) != 1 || len(dropped) != 0 {
		t.Fatalf("resolve: kept %d dropped %d", len(kept), len(dropped))
	}
	v2p := faultyAddress(f)
	if l.im.Get(v2) == l.im.Get(v2p) {
		t.Error("seeds not distinct after resolution")
	}
}

func TestPlaceAddrDirectCompactionUsesAdd(t *testing.T) {
	l := newLayout()
	f := maf.Fault{Victim: 5, Kind: maf.RisingDelay, Dir: maf.Forward, Width: 12}
	frag, err := placeAddrDirect(l, f, true)
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := parwan.Decode([]byte{l.im.Get(frag.entry), l.im.Get(frag.entry + 1)})
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != parwan.ADD {
		t.Errorf("compaction fragment uses %v, want add", in.Op)
	}
}

func TestPlaceAddrDirectConflicts(t *testing.T) {
	l := newLayout()
	f := maf.Fault{Victim: 5, Kind: maf.FallingDelay, Dir: maf.Forward, Width: 12}
	t1 := maf.TestFor(f)
	v1 := uint16(t1.V1.Uint64())
	// Occupy the instruction slot with an incompatible byte.
	if err := l.pin(v1, 0x00); err != nil {
		t.Fatal(err)
	}
	if _, err := placeAddrDirect(l, f, false); err == nil {
		t.Error("conflicting placement accepted")
	}

	// Occupy the continuation slot.
	l2 := newLayout()
	if err := l2.reserve(v1 + 1); err != nil {
		t.Fatal(err)
	}
	if _, err := placeAddrDirect(l2, f, false); err == nil {
		t.Error("placement with blocked continuation accepted")
	}
}

func TestPlaceAddrTwoInstrBasics(t *testing.T) {
	l := newLayout()
	f := maf.Fault{Victim: 5, Kind: maf.PositiveGlitch, Dir: maf.Forward, Width: 12}
	frag, err := placeAddrTwoInstr(l, f, false)
	if err != nil {
		t.Fatal(err)
	}
	t1 := maf.TestFor(f)
	v1 := uint16(t1.V1.Uint64())
	v2 := uint16(t1.V2.Uint64())
	if frag.scheme != AddrTwoInstr || frag.entry != addrMask(v2-2) {
		t.Errorf("fragment = %+v", frag)
	}
	// Instruction 1 accesses v1.
	in1, _, err := parwan.Decode([]byte{l.im.Get(frag.entry), l.im.Get(addrMask(frag.entry + 1))})
	if err != nil {
		t.Fatal(err)
	}
	if in1.Op.Direct() != parwan.LDA {
		t.Errorf("instr1 = %v", in1)
	}
	if !in1.Op.IsIndirect() && in1.Target != v1 {
		t.Errorf("instr1 targets %03x, want %03x", in1.Target, v1)
	}
	// Instruction 2 at v2 is a load; the alternate at the faulty address is
	// a load from a different page.
	b1 := l.im.Get(v2)
	alt := l.im.Get(faultyAddress(f))
	if b1>>4 != 0x0 || alt>>4 != 0x0 {
		t.Errorf("instr2 bytes %02x / %02x not load opcodes", b1, alt)
	}
	if b1&0x0F == alt&0x0F {
		t.Error("intended and alternate pages equal")
	}
	// Their data cells differ.
	o := uint16(l.im.Get(addrMask(v2 + 1)))
	cell1 := uint16(b1&0x0F)<<8 | o
	cell2 := uint16(alt&0x0F)<<8 | o
	if l.im.Get(cell1) == l.im.Get(cell2) {
		t.Error("data cells equal; fault would be invisible")
	}
}

// TestTwoInstrWorksForDelayFaults: the scheme is general — usable as the
// fallback for delay faults, with the redirected fetch semantics.
func TestTwoInstrWorksForDelayFaults(t *testing.T) {
	l := newLayout()
	f := maf.Fault{Victim: 3, Kind: maf.RisingDelay, Dir: maf.Forward, Width: 12}
	frag, err := placeAddrTwoInstr(l, f, false)
	if err != nil {
		t.Fatal(err)
	}
	if frag.scheme != AddrTwoInstr {
		t.Errorf("scheme = %v", frag.scheme)
	}
}

// TestIndirectVehicleRescue: when the byte before v2 is pinned to a value
// that cannot be v1's offset, the indirect load vehicle (free second byte)
// still places the test.
func TestIndirectVehicleRescue(t *testing.T) {
	f := maf.Fault{Victim: 5, Kind: maf.PositiveGlitch, Dir: maf.Forward, Width: 12}
	t1 := maf.TestFor(f)
	v2 := uint16(t1.V2.Uint64())

	l := newLayout()
	// Pin instr1's offset byte to something that is not v1's offset (0x00).
	if err := l.pin(addrMask(v2-1), 0x37); err != nil {
		t.Fatal(err)
	}
	frag, err := placeAddrTwoInstr(l, f, false)
	if err != nil {
		t.Fatalf("indirect vehicle did not rescue: %v", err)
	}
	b1 := l.im.Get(frag.entry)
	if b1&0x10 == 0 {
		t.Errorf("instr1 byte1 %02x is not an indirect load", b1)
	}
	// The pointer cell in v1's page at offset 0x37 holds v1's offset.
	ptr := uint16(b1&0x0F)<<8 | 0x37
	if l.im.Get(ptr) != 0x00 {
		t.Errorf("pointer cell = %02x, want 00 (v1's offset)", l.im.Get(ptr))
	}
}

func TestSeedDistinctCases(t *testing.T) {
	// Free/free.
	l := newLayout()
	var ps pinSet
	if err := seedDistinct(l, &ps, 0x100, 0x200, 0xF00, 0xF01); err != nil {
		t.Fatal(err)
	}
	if pinAt(&ps, 0x100) == pinAt(&ps, 0x200) {
		t.Error("free/free seeds equal")
	}
	// Known/free: complement.
	l2 := newLayout()
	if err := l2.pin(0x100, 0x42); err != nil {
		t.Fatal(err)
	}
	var ps2 pinSet
	if err := seedDistinct(l2, &ps2, 0x100, 0x200, 0xF00, 0xF01); err != nil {
		t.Fatal(err)
	}
	if pinAt(&ps2, 0x200) != ^byte(0x42) {
		t.Errorf("complement seed = %02x", pinAt(&ps2, 0x200))
	}
	// Known/known equal: error.
	l3 := newLayout()
	if err := l3.pin(0x100, 7); err != nil {
		t.Fatal(err)
	}
	if err := l3.pin(0x200, 7); err != nil {
		t.Fatal(err)
	}
	if err := seedDistinct(l3, &pinSet{}, 0x100, 0x200, 0xF00, 0xF01); err == nil {
		t.Error("equal known seeds accepted")
	}
	// Same address: error.
	if err := seedDistinct(newLayout(), &pinSet{}, 0x100, 0x100, 0xF00, 0xF01); err == nil {
		t.Error("coincident seeds accepted")
	}
	// Seed on the continuation offset byte: error.
	if err := seedDistinct(newLayout(), &pinSet{}, 0x100, 0xF01, 0xF00, 0xF01); err == nil {
		t.Error("seed on continuation offset accepted")
	}
	// Seed on the continuation opcode byte: other constrained outside
	// 0x80..0x8F.
	var ps4 pinSet
	if err := seedDistinct(newLayout(), &ps4, 0xF00, 0x100, 0xF00, 0xF01); err != nil {
		t.Fatal(err)
	}
	if v := pinAt(&ps4, 0x100); jmpOpcodeByte(v) {
		t.Errorf("partner seed %02x inside jmp range", v)
	}
	// Seed on a foreign continuation opcode byte (held): same handling.
	l5 := newLayout()
	if err := l5.holdCont(0x300); err != nil {
		t.Fatal(err)
	}
	var ps5 pinSet
	if err := seedDistinct(l5, &ps5, 0x300, 0x100, 0xF00, 0xF01); err != nil {
		t.Fatalf("foreign cont opcode seed rejected: %v", err)
	}
	// Seed on a foreign unpredictable held byte: rejected.
	if err := seedDistinct(l5, &pinSet{}, 0x301, 0x100, 0xF00, 0xF01); err == nil {
		t.Error("foreign unpredictable held seed accepted")
	}
	// Known partner inside the jmp range: rejected.
	l6 := newLayout()
	if err := l6.pin(0x100, 0x85); err != nil {
		t.Fatal(err)
	}
	if err := seedDistinct(l6, &pinSet{}, 0xF00, 0x100, 0xF00, 0xF01); err == nil {
		t.Error("jmp-range partner accepted")
	}
}

func TestResolveSeedsDropsAndReleases(t *testing.T) {
	l := newLayout()
	// A fragment whose seeds are forced equal.
	if err := l.pin(0x010, 0x55); err != nil { // v2 of dr[4]
		t.Fatal(err)
	}
	if err := l.pin(0x000, 0x55); err != nil { // v2' of dr[4]
		t.Fatal(err)
	}
	f := maf.Fault{Victim: 4, Kind: maf.RisingDelay, Dir: maf.Forward, Width: 12}
	frag, err := placeAddrDirect(l, f, false)
	if err != nil {
		t.Fatal(err)
	}
	kept, dropped := resolveSeeds(l, []fragment{frag})
	if len(kept) != 0 || len(dropped) != 1 {
		t.Fatalf("kept %d dropped %d", len(kept), len(dropped))
	}
	if !l.free(frag.cont) || !l.free(frag.cont+1) {
		t.Error("dropped fragment's continuation not released")
	}
}

func TestOpForMode(t *testing.T) {
	op, high := opForMode(false)
	if op != parwan.LDA || high != 0x00 {
		t.Errorf("plain mode: %v %02x", op, high)
	}
	op, high = opForMode(true)
	if op != parwan.ADD || high != 0x40 {
		t.Errorf("compaction mode: %v %02x", op, high)
	}
}

func TestPreferredOffsets(t *testing.T) {
	if len(preferredOffsets) != 256 {
		t.Fatalf("len = %d", len(preferredOffsets))
	}
	seen := make(map[int]bool)
	for _, o := range preferredOffsets {
		if o < 0 || o > 255 || seen[o] {
			t.Fatalf("bad or duplicate offset %d", o)
		}
		seen[o] = true
	}
	// The most contended offsets (popcount 0/8/1/7) come last.
	tail := preferredOffsets[200:]
	foundCorner := false
	for _, o := range tail {
		if o == 0x00 || o == 0xFF {
			foundCorner = true
		}
	}
	if !foundCorner {
		t.Error("corner offsets not deprioritised")
	}
	// The first candidate has popcount 4.
	pop := 0
	for v := preferredOffsets[0]; v != 0; v &= v - 1 {
		pop++
	}
	if pop != 4 {
		t.Errorf("first candidate popcount = %d", pop)
	}
}
