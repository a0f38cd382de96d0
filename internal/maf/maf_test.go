package maf

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/logic"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		PositiveGlitch: "gp", NegativeGlitch: "gn",
		RisingDelay: "dr", FallingDelay: "df",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Errorf("invalid kind String = %q", got)
	}
}

func TestKindPredicates(t *testing.T) {
	if !PositiveGlitch.IsGlitch() || !NegativeGlitch.IsGlitch() {
		t.Error("glitch kinds not classified as glitches")
	}
	if !RisingDelay.IsDelay() || !FallingDelay.IsDelay() {
		t.Error("delay kinds not classified as delays")
	}
	if PositiveGlitch.IsDelay() || RisingDelay.IsGlitch() {
		t.Error("kind predicates overlap")
	}
}

func TestDirectionString(t *testing.T) {
	if Forward.String() != "fwd" || Reverse.String() != "rev" {
		t.Error("direction names wrong")
	}
	if got := Direction(7).String(); got != "Direction(7)" {
		t.Errorf("invalid direction String = %q", got)
	}
}

// TestVectorsPaperExamples pins the vector pairs quoted in the paper.
func TestVectorsPaperExamples(t *testing.T) {
	// §4.1: (00000000, 11110111) is a positive-glitch test; the quoted
	// pattern has victim bit 3 (line 4, counting lines from 1) stable 0.
	v1, v2 := Vectors(PositiveGlitch, 3, 8)
	if v1.String() != "00000000" || v2.String() != "11110111" {
		t.Errorf("gp[3] 8-bit = (%s, %s)", v1, v2)
	}

	// §4.2.1: (0000:00010000, 1111:11101111) is a falling-delay test on
	// address bit 4 of the 12-bit bus.
	v1, v2 = Vectors(FallingDelay, 4, 12)
	if v1.PageOffsetString() != "0000:00010000" || v2.PageOffsetString() != "1111:11101111" {
		t.Errorf("df[4] 12-bit = (%s, %s)", v1.PageOffsetString(), v2.PageOffsetString())
	}

	// §4.2.2: (0000:00000000, 1111:11111110) tests the positive glitch on
	// bus line 1 (bit 0).
	v1, v2 = Vectors(PositiveGlitch, 0, 12)
	if v1.Uint64() != 0 || v2.Uint64() != 0xFFE {
		t.Errorf("gp[0] 12-bit = (%s, %s)", v1, v2)
	}

	// §4.3 / Fig. 8: (01111111, 10000000) is the rising-delay test for data
	// bus line 8 (bit 7); v2 is one-hot.
	v1, v2 = Vectors(RisingDelay, 7, 8)
	if v1.Uint64() != 0x7F || v2.Uint64() != 0x80 {
		t.Errorf("dr[7] 8-bit = (%s, %s)", v1, v2)
	}
}

// TestVectorsFig1 checks every kind's victim/aggressor pattern per Fig. 1.
func TestVectorsFig1(t *testing.T) {
	const width = 12
	for _, k := range Kinds {
		for v := 0; v < width; v++ {
			v1, v2 := Vectors(k, v, width)
			ts := logic.Transitions(v1, v2)
			for i, tr := range ts {
				var want logic.Transition
				if i == v {
					switch k {
					case PositiveGlitch:
						want = logic.Stable0
					case NegativeGlitch:
						want = logic.Stable1
					case RisingDelay:
						want = logic.Rising
					case FallingDelay:
						want = logic.Falling
					}
				} else {
					switch k {
					case PositiveGlitch, FallingDelay:
						want = logic.Rising
					case NegativeGlitch, RisingDelay:
						want = logic.Falling
					}
				}
				if tr != want {
					t.Fatalf("%s victim %d wire %d: transition %v, want %v", k, v, i, tr, want)
				}
			}
		}
	}
}

func TestVectorsPanics(t *testing.T) {
	for _, c := range []struct{ v, w int }{{-1, 8}, {8, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Vectors(gp, %d, %d) did not panic", c.v, c.w)
				}
			}()
			Vectors(PositiveGlitch, c.v, c.w)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Vectors with invalid kind did not panic")
			}
		}()
		Vectors(Kind(99), 0, 8)
	}()
}

// TestUniverseSizes pins the paper's fault counts: 64 MAFs on the 8-bit
// bidirectional data bus, 48 on the 12-bit unidirectional address bus.
func TestUniverseSizes(t *testing.T) {
	if got := len(Universe(8, true)); got != 64 {
		t.Errorf("data-bus universe = %d faults, want 64", got)
	}
	if got := len(Universe(12, false)); got != 48 {
		t.Errorf("address-bus universe = %d faults, want 48", got)
	}
}

func TestUniverseUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, f := range Universe(8, true) {
		s := f.String()
		if seen[s] {
			t.Errorf("duplicate fault %s", s)
		}
		seen[s] = true
	}
}

func TestUniverseOrdering(t *testing.T) {
	u := Universe(4, true)
	// Forward faults first.
	for i, f := range u {
		wantDir := Forward
		if i >= len(u)/2 {
			wantDir = Reverse
		}
		if f.Dir != wantDir {
			t.Fatalf("fault %d direction %v, want %v", i, f.Dir, wantDir)
		}
	}
	// Within a direction: kinds in Fig. 1 order, victims ascending.
	if u[0].Kind != PositiveGlitch || u[0].Victim != 0 {
		t.Errorf("first fault = %v", u[0])
	}
	if u[4].Kind != NegativeGlitch || u[4].Victim != 0 {
		t.Errorf("fifth fault = %v", u[4])
	}
}

func TestTestsMatchUniverse(t *testing.T) {
	faults := Universe(12, false)
	tests := Tests(12, false)
	if len(tests) != len(faults) {
		t.Fatalf("len(tests) = %d, want %d", len(tests), len(faults))
	}
	for i := range tests {
		if tests[i].Fault != faults[i] {
			t.Errorf("test %d fault %v, want %v", i, tests[i].Fault, faults[i])
		}
	}
}

// Property: every MA test's vector pair is unique across the universe.
func TestMATestsUnique(t *testing.T) {
	seen := make(map[[2]uint64]Fault)
	for _, mt := range Tests(12, false) {
		key := [2]uint64{mt.V1.Uint64(), mt.V2.Uint64()}
		if prev, ok := seen[key]; ok {
			t.Errorf("tests %v and %v share vector pair (%s,%s)", prev, mt.Fault, mt.V1, mt.V2)
		}
		seen[key] = mt.Fault
	}
}

// Property: in every MA pair all aggressors transition (v1 XOR v2 is all
// ones except possibly the victim bit, which matches the kind).
func TestMAPairStructureProperty(t *testing.T) {
	f := func(kindSel, victimSel uint8) bool {
		k := Kinds[int(kindSel)%4]
		v := int(victimSel) % 12
		v1, v2 := Vectors(k, v, 12)
		x := v1.Xor(v2)
		for i := 0; i < 12; i++ {
			if i == v {
				if k.IsGlitch() && x.Bit(i) != 0 {
					return false
				}
				if k.IsDelay() && x.Bit(i) != 1 {
					return false
				}
			} else if x.Bit(i) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassify(t *testing.T) {
	for _, mt := range Tests(8, false) {
		got, ok := Classify(mt.V1, mt.V2)
		if !ok {
			t.Errorf("Classify failed to recognise %v", mt)
			continue
		}
		if got != mt.Fault {
			t.Errorf("Classify(%s,%s) = %v, want %v", mt.V1, mt.V2, got, mt.Fault)
		}
	}
	// Non-MA traffic is rejected.
	if _, ok := Classify(logic.NewWord(0x12, 8), logic.NewWord(0x34, 8)); ok {
		t.Error("Classify accepted non-MA pair")
	}
	// Width mismatch is rejected.
	if _, ok := Classify(logic.NewWord(0, 8), logic.NewWord(0, 12)); ok {
		t.Error("Classify accepted width mismatch")
	}
}

func TestExcites(t *testing.T) {
	f := Fault{Victim: 2, Kind: RisingDelay, Dir: Forward, Width: 8}
	mt := TestFor(f)
	if !Excites(f, mt.V1, mt.V2) {
		t.Error("fault not excited by its own MA test")
	}
	if Excites(f, mt.V2, mt.V1) {
		t.Error("fault excited by reversed pair")
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Victim: 4, Kind: PositiveGlitch, Dir: Reverse, Width: 8}
	if got := f.String(); got != "gp[4]/rev" {
		t.Errorf("Fault.String() = %q", got)
	}
	mt := TestFor(Fault{Victim: 0, Kind: NegativeGlitch, Dir: Forward, Width: 4})
	if got := mt.String(); got != "gn[0]/fwd:(1111,0001)" {
		t.Errorf("Test.String() = %q", got)
	}
}

func TestCompareTotalOrder(t *testing.T) {
	faults := []Fault{
		{Victim: 0, Kind: PositiveGlitch, Dir: Forward, Width: 8},
		{Victim: 0, Kind: PositiveGlitch, Dir: Forward, Width: 12},
		{Victim: 0, Kind: PositiveGlitch, Dir: Reverse, Width: 8},
		{Victim: 0, Kind: FallingDelay, Dir: Forward, Width: 8},
		{Victim: 3, Kind: PositiveGlitch, Dir: Forward, Width: 8},
	}
	for i, a := range faults {
		if Compare(a, a) != 0 {
			t.Errorf("Compare(%v, %v) != 0", a, a)
		}
		for j, b := range faults {
			got, rev := Compare(a, b), Compare(b, a)
			if got != -rev {
				t.Errorf("Compare(%v, %v) = %d but reversed %d", a, b, got, rev)
			}
			if i != j && got == 0 {
				t.Errorf("distinct faults %v and %v compare equal", a, b)
			}
		}
	}
	// Victim dominates kind, kind dominates direction, direction dominates
	// width — the canonical report order.
	if Compare(faults[4], faults[3]) <= 0 {
		t.Error("victim does not dominate kind")
	}
	if Compare(faults[3], faults[2]) <= 0 {
		t.Error("kind order broken")
	}
	if Compare(faults[2], faults[1]) <= 0 {
		t.Error("direction does not dominate width")
	}
	if Compare(faults[1], faults[0]) <= 0 {
		t.Error("width tie-break broken")
	}
}

func TestSortFaultsCanonical(t *testing.T) {
	shuffled := []Fault{
		{Victim: 3, Kind: PositiveGlitch, Dir: Forward, Width: 8},
		{Victim: 1, Kind: RisingDelay, Dir: Forward, Width: 12},
		{Victim: 1, Kind: RisingDelay, Dir: Forward, Width: 8},
		{Victim: 1, Kind: PositiveGlitch, Dir: Forward, Width: 8},
	}
	SortFaults(shuffled)
	for i := 1; i < len(shuffled); i++ {
		if Compare(shuffled[i-1], shuffled[i]) >= 0 {
			t.Fatalf("not sorted at %d: %v", i, shuffled)
		}
	}
	// The mixed-width pair dr[1]/fwd@8 and @12 stays adjacent, narrower first.
	if shuffled[1].Width != 8 || shuffled[2].Width != 12 {
		t.Errorf("width tie-break lost in sort: %v", shuffled)
	}
}

func TestParseFaultRoundTrip(t *testing.T) {
	for _, f := range Universe(8, true) {
		got, err := ParseFault(f.String())
		if err != nil {
			t.Fatalf("ParseFault(%q): %v", f.String(), err)
		}
		// Unqualified names parse width-wildcarded and still match the original.
		if got.Width != 0 || !got.Matches(f) {
			t.Errorf("ParseFault(%q) = %+v, does not wildcard-match %+v", f.String(), got, f)
		}
	}
	q, err := ParseFault("dr[11]/rev@12")
	if err != nil {
		t.Fatal(err)
	}
	want := Fault{Victim: 11, Kind: RisingDelay, Dir: Reverse, Width: 12}
	if q != want {
		t.Errorf("qualified parse %+v, want %+v", q, want)
	}
	if q.Matches(Fault{Victim: 11, Kind: RisingDelay, Dir: Reverse, Width: 8}) {
		t.Error("width-qualified pattern matched the wrong bus")
	}
}

// FuzzParseFault holds ParseFault to a canonical spelling, since a
// diagnose spec's signature reaches it: whatever it accepts round-trips
// through f.String(), plus "@W" when the name carries a width.
func FuzzParseFault(f *testing.F) {
	for _, s := range []string{"gp[4]/fwd", "dr[11]/rev@12", "df[63]/fwd@64", "gn[04]/rev@+8", "gp[12]/fwd@8", "gp[4]/up"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseFault(s)
		if err != nil {
			return
		}
		canonical := got.String()
		if got.Width > 0 {
			canonical += fmt.Sprintf("@%d", got.Width)
		}
		again, err := ParseFault(canonical)
		if err != nil || again != got {
			t.Fatalf("ParseFault(%q) = %+v, but its canonical spelling %q parses to %+v (%v)", s, got, canonical, again, err)
		}
	})
}

func TestParseFaultErrors(t *testing.T) {
	for _, s := range []string{
		"", "gp", "gp[4]", "gp[4]/", "gp[4]/up", "zz[4]/fwd",
		"gp[x]/fwd", "gp[-1]/fwd", "gp[4]/fwd@", "gp[4]/fwd@0",
		"gp[4]/fwd@x", "gp[12]/fwd@8",
	} {
		if f, err := ParseFault(s); err == nil {
			t.Errorf("ParseFault(%q) accepted as %+v", s, f)
		}
	}
}
