// Package maf implements the Maximum Aggressor Fault (MAF) crosstalk fault
// model of Cuviello, Dey, Bai and Zhao (ICCAD 1999), as used by the paper.
//
// For an N-wire bus the model defines 4N faults: a positive glitch, negative
// glitch, rising delay, and falling delay on each wire (the victim). Each
// fault is excited by a unique Maximum Aggressor (MA) test: a pair of vectors
// (v1, v2) in which the victim holds or performs the faulty transition while
// every other wire (the aggressors) transitions in the direction that
// maximally couples the error onto the victim (Fig. 1 of the paper).
//
// For a bidirectional bus, each fault exists once per drive direction,
// doubling the universe (the paper's 8-bit data bus has 8*4*2 = 64 MAFs; the
// 12-bit unidirectional address bus has 12*4 = 48).
package maf

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/logic"
)

// Kind is one of the four MAF error effects.
type Kind uint8

// The four crosstalk error effects of the MAF model.
const (
	PositiveGlitch Kind = iota // g_p: victim stable 0, aggressors rise
	NegativeGlitch             // g_n: victim stable 1, aggressors fall
	RisingDelay                // d_r: victim rises, aggressors fall
	FallingDelay               // d_f: victim falls, aggressors rise
)

// Kinds lists the four error effects in the paper's Fig. 1 order.
var Kinds = [4]Kind{PositiveGlitch, NegativeGlitch, RisingDelay, FallingDelay}

// String returns the paper's subscript notation for k.
func (k Kind) String() string {
	switch k {
	case PositiveGlitch:
		return "gp"
	case NegativeGlitch:
		return "gn"
	case RisingDelay:
		return "dr"
	case FallingDelay:
		return "df"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// IsGlitch reports whether k is a glitch effect (victim stable).
func (k Kind) IsGlitch() bool { return k == PositiveGlitch || k == NegativeGlitch }

// IsDelay reports whether k is a delay effect (victim transitions).
func (k Kind) IsDelay() bool { return k == RisingDelay || k == FallingDelay }

// Direction identifies which end drives the bus while v2 is applied. For a
// unidirectional bus only Forward exists; for the paper's data bus, Forward
// is memory-to-CPU and Reverse is CPU-to-memory.
type Direction uint8

// Bus drive directions.
const (
	Forward Direction = iota // e.g. memory drives, CPU receives
	Reverse                  // e.g. CPU drives, memory receives
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Forward:
		return "fwd"
	case Reverse:
		return "rev"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// Fault is one maximum aggressor fault: an error effect on a victim wire of
// an N-wire bus, excited while the bus is driven in a particular direction.
type Fault struct {
	Victim int       // wire index, 0 = LSB
	Kind   Kind      // error effect
	Dir    Direction // drive direction of v2
	Width  int       // bus width N
}

// String returns a stable identifier such as "gp[4]/fwd".
func (f Fault) String() string {
	return fmt.Sprintf("%s[%d]/%s", f.Kind, f.Victim, f.Dir)
}

// Compare orders two faults canonically: by victim wire, then kind (Fig. 1
// order), then direction, then bus width. The width tie-break matters when
// faults of several busses mix in one collection (e.g. dr[1]/fwd exists at
// widths 8 and 12 in a combined plan); without it the order would not be
// total. It returns -1, 0, or +1.
func Compare(a, b Fault) int {
	switch {
	case a.Victim != b.Victim:
		if a.Victim < b.Victim {
			return -1
		}
		return 1
	case a.Kind != b.Kind:
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	case a.Dir != b.Dir:
		if a.Dir < b.Dir {
			return -1
		}
		return 1
	case a.Width != b.Width:
		if a.Width < b.Width {
			return -1
		}
		return 1
	}
	return 0
}

// SortFaults sorts faults in place into Compare order — the canonical
// byte-stable order used by campaign reports and detection-set analytics.
func SortFaults(faults []Fault) {
	slices.SortFunc(faults, Compare)
}

// ParseFault parses the String form "gp[4]/fwd", optionally width-qualified
// as "gp[4]/fwd@12". An unqualified name parses with Width 0, meaning "any
// width" — Matches treats it as a wildcard, which is how an operator names a
// failing test without knowing which bus's universe it belongs to.
func ParseFault(s string) (Fault, error) {
	var f Fault
	name := s
	if at := strings.LastIndexByte(name, '@'); at >= 0 {
		w, err := strconv.Atoi(name[at+1:])
		if err != nil || w <= 0 {
			return Fault{}, fmt.Errorf("maf: bad width in fault %q", s)
		}
		f.Width = w
		name = name[:at]
	}
	open := strings.IndexByte(name, '[')
	end := strings.IndexByte(name, ']')
	if open < 0 || end < open || !strings.HasPrefix(name[end:], "]/") {
		return Fault{}, fmt.Errorf("maf: bad fault %q (want kind[victim]/dir, e.g. gp[4]/fwd)", s)
	}
	switch name[:open] {
	case "gp":
		f.Kind = PositiveGlitch
	case "gn":
		f.Kind = NegativeGlitch
	case "dr":
		f.Kind = RisingDelay
	case "df":
		f.Kind = FallingDelay
	default:
		return Fault{}, fmt.Errorf("maf: unknown fault kind %q in %q", name[:open], s)
	}
	v, err := strconv.Atoi(name[open+1 : end])
	if err != nil || v < 0 {
		return Fault{}, fmt.Errorf("maf: bad victim in fault %q", s)
	}
	f.Victim = v
	switch name[end+2:] {
	case "fwd":
		f.Dir = Forward
	case "rev":
		f.Dir = Reverse
	default:
		return Fault{}, fmt.Errorf("maf: unknown direction %q in %q", name[end+2:], s)
	}
	if f.Width > 0 && f.Victim >= f.Width {
		return Fault{}, fmt.Errorf("maf: victim %d out of range for width %d in %q", f.Victim, f.Width, s)
	}
	return f, nil
}

// Matches reports whether fault g matches pattern f, where a zero Width in
// the pattern matches any width (see ParseFault).
func (f Fault) Matches(g Fault) bool {
	return f.Victim == g.Victim && f.Kind == g.Kind && f.Dir == g.Dir &&
		(f.Width == 0 || f.Width == g.Width)
}

// Test is the MA test for a fault: the two-vector sequence that excites it.
// Only v2 must be applied in the fault's direction; the drive direction of v1
// is irrelevant (paper §3.1).
type Test struct {
	Fault Fault
	V1    logic.Word
	V2    logic.Word
}

// String renders the test in the paper's (v1, v2) notation.
func (t Test) String() string {
	return fmt.Sprintf("%s:(%s,%s)", t.Fault, t.V1, t.V2)
}

// Vectors returns the MA vector pair exciting fault kind k on victim wire v
// of a width-wide bus, per Fig. 1:
//
//	g_p: victim 0->0, aggressors 0->1
//	g_n: victim 1->1, aggressors 1->0
//	d_r: victim 0->1, aggressors 1->0
//	d_f: victim 1->0, aggressors 0->1
func Vectors(k Kind, v, width int) (v1, v2 logic.Word) {
	if v < 0 || v >= width {
		panic(fmt.Sprintf("maf: victim %d out of range for %d-wire bus", v, width))
	}
	all := logic.NewWord(0, width).Invert() // all ones
	one := logic.NewWord(1<<uint(v), width) // victim only
	rest := all.Xor(one)                    // aggressors only
	switch k {
	case PositiveGlitch:
		return logic.NewWord(0, width), rest
	case NegativeGlitch:
		return all, one
	case RisingDelay:
		return rest, one
	case FallingDelay:
		return one, rest
	default:
		panic(fmt.Sprintf("maf: invalid kind %d", k))
	}
}

// TestFor returns the MA test exciting fault f.
func TestFor(f Fault) Test {
	v1, v2 := Vectors(f.Kind, f.Victim, f.Width)
	return Test{Fault: f, V1: v1, V2: v2}
}

// Universe enumerates all MAFs of a bus. For a unidirectional bus
// (bidirectional=false) it returns 4N faults in Forward direction; for a
// bidirectional bus it returns 8N faults, Forward first. Faults are ordered
// direction-major, then kind in Fig. 1 order, then victim index ascending, so
// the i-th group of a kind corresponds to the MA test "for the i-th
// interconnect" as in Fig. 11.
func Universe(width int, bidirectional bool) []Fault {
	dirs := []Direction{Forward}
	if bidirectional {
		dirs = append(dirs, Reverse)
	}
	faults := make([]Fault, 0, len(dirs)*4*width)
	for _, d := range dirs {
		for _, k := range Kinds {
			for v := 0; v < width; v++ {
				faults = append(faults, Fault{Victim: v, Kind: k, Dir: d, Width: width})
			}
		}
	}
	return faults
}

// Tests returns the MA tests for every fault in the universe, in Universe
// order.
func Tests(width int, bidirectional bool) []Test {
	faults := Universe(width, bidirectional)
	tests := make([]Test, len(faults))
	for i, f := range faults {
		tests[i] = TestFor(f)
	}
	return tests
}

// Classify reports which MAF, if any, the vector pair (v1, v2) is the MA test
// for, searching the Forward universe. It returns false when the pair is not
// a maximum-aggressor pattern (which is the common case for functional
// traffic).
func Classify(v1, v2 logic.Word) (Fault, bool) {
	width := v1.Width()
	if width != v2.Width() {
		return Fault{}, false
	}
	for _, k := range Kinds {
		for v := 0; v < width; v++ {
			a, b := Vectors(k, v, width)
			if a.Equal(v1) && b.Equal(v2) {
				return Fault{Victim: v, Kind: k, Dir: Forward, Width: width}, true
			}
		}
	}
	return Fault{}, false
}

// Excites reports whether the transition (v1, v2) excites fault f, i.e.
// whether it is exactly f's MA pattern. The MAF model defines excitation by
// the full pattern: the victim shows the fault's victim behaviour and every
// aggressor performs the maximal opposing transition.
func Excites(f Fault, v1, v2 logic.Word) bool {
	t := TestFor(f)
	return t.V1.Equal(v1) && t.V2.Equal(v2)
}
