package maf

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// testUniverses are the universes of the shipped topologies' shapes: the
// Parwan pair (8-wire bidirectional data, 12-wire address) and a 64-wire
// bus, which fills a Set.
func testUniverses(t *testing.T) []*FaultUniverse {
	t.Helper()
	var out []*FaultUniverse
	for _, faults := range [][]Fault{
		append(Universe(8, true), Universe(12, false)...),
		Universe(64, false),
	} {
		u, err := NewFaultUniverse(faults)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, u)
	}
	return out
}

// referenceDetectedBy is the reference form of a detection set: every
// detecting fault appended in judging order, then sorted with SortFaults
// and deduplicated.
func referenceDetectedBy(faults []Fault) []Fault {
	list := append([]Fault(nil), faults...)
	SortFaults(list)
	w := 0
	for i, f := range list {
		if i > 0 && f == list[w-1] {
			continue
		}
		list[w] = f
		w++
	}
	return list[:w]
}

// TestSetRendersLikeSortedList: a set built from any fault sequence, with
// repeats and in any order, walks, names and prints exactly the list the
// sort-and-dedupe reference kept, and its words survive JSON.
func TestSetRendersLikeSortedList(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, u := range testUniverses(t) {
		for trial := 0; trial < 500; trial++ {
			var appended []Fault
			var s Set
			for n := rng.Intn(3 * u.Len() / 2); n > 0; n-- {
				i := rng.Intn(u.Len())
				if trial%3 == 0 {
					i = rng.Intn(4) // dense repeats of a few faults
				}
				appended = append(appended, u.Fault(i))
				s.Add(u, i)
			}
			want := referenceDetectedBy(appended)
			if got := s.Faults(); !reflect.DeepEqual(got, want) && len(want)+len(got) > 0 {
				t.Fatalf("trial %d: Faults() = %v, want %v", trial, got, want)
			}
			var names []string
			for _, f := range want {
				names = append(names, f.String())
			}
			if got := s.Names(); !reflect.DeepEqual(got, names) {
				t.Fatalf("trial %d: Names() = %v, want %v", trial, got, names)
			}
			if got, want := s.String(), "["+strings.Join(names, " ")+"]"; got != want {
				t.Fatalf("trial %d: String() = %s, want %s", trial, got, want)
			}
			if s.Len() != len(want) {
				t.Fatalf("trial %d: Len() = %d, want %d", trial, s.Len(), len(want))
			}
			js, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			var back Set
			if err := json.Unmarshal(js, &back); err != nil {
				t.Fatalf("trial %d: %s: %v", trial, js, err)
			}
			if err := back.Bind(u); err != nil || back != s {
				t.Fatalf("trial %d: %s decodes to %v (%v), want %v", trial, js, back, err, s)
			}
		}
	}
}

// TestSetUnionLaws: Union is commutative, associative and idempotent, has
// the zero Set as identity, and refuses sets of two universes. IntersectLen
// and Union obey inclusion–exclusion, Has agrees with the walk, and
// IntersectLen refuses sets of two universes too.
func TestSetUnionLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	us := testUniverses(t)
	for _, u := range us {
		random := func() Set {
			var s Set
			for n := rng.Intn(12); n > 0; n-- {
				s.Add(u, rng.Intn(u.Len()))
			}
			return s
		}
		for trial := 0; trial < 300; trial++ {
			a, b, c := random(), random(), random()
			if a.Union(b) != b.Union(a) {
				t.Fatalf("union not commutative: %v, %v", a, b)
			}
			if a.Union(b).Union(c) != a.Union(b.Union(c)) {
				t.Fatalf("union not associative: %v, %v, %v", a, b, c)
			}
			if a.Union(a) != a || a.Union(Set{}) != a || (Set{}).Union(a) != a {
				t.Fatalf("union with itself or the empty set changed %v", a)
			}
			if n := a.IntersectLen(b); n != b.IntersectLen(a) || a.Union(b).Len() != a.Len()+b.Len()-n ||
				a.IntersectLen(a) != a.Len() || a.IntersectLen(Set{}) != 0 {
				t.Fatalf("IntersectLen(%v, %v) = %d breaks inclusion-exclusion", a, b, n)
			}
			var walked Set
			for i := 0; i < u.Len(); i++ {
				if a.Has(i) {
					walked.Add(u, i)
				}
			}
			if walked != a {
				t.Fatalf("Has over %v finds %v", a, walked)
			}
		}
	}
	var a, b Set
	a.Add(us[0], 0)
	b.Add(us[1], 0)
	for name, op := range map[string]func(){
		"union":        func() { a.Union(b) },
		"intersection": func() { a.IntersectLen(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of sets of two universes did not panic", name)
				}
			}()
			op()
		}()
	}
}

// TestNewFaultUniverseRefuses: more faults than a Set has bits, and a fault
// listed twice, are refused; a universe of exactly SetBits faults is not.
func TestNewFaultUniverseRefuses(t *testing.T) {
	if _, err := NewFaultUniverse(Universe(64, true)); err == nil {
		t.Error("a universe of 512 faults was accepted")
	}
	if _, err := NewFaultUniverse(append(Universe(8, false), Fault{Victim: 3, Kind: NegativeGlitch, Width: 8})); err == nil {
		t.Error("a fault listed twice was accepted")
	}
	u, err := NewFaultUniverse(Universe(64, false))
	if err != nil || u.Len() != SetBits {
		t.Fatalf("the 64-wire universe: %v, %d faults", err, u.Len())
	}
	for i := 0; i < u.Len(); i++ {
		if j, ok := u.Index(u.Fault(i)); !ok || j != i {
			t.Fatalf("Index(Fault(%d)) = %d, %v", i, j, ok)
		}
	}
	if _, ok := u.Index(Fault{Victim: 0, Kind: PositiveGlitch, Dir: Reverse, Width: 64}); ok {
		t.Error("Index found a fault outside the universe")
	}
}

// TestSetDecodeAndBind: the wire form's edge cases. The empty set is [] and
// decodes, like null, to the zero Set; more than four words, non-numbers and
// negative words are refused; Bind refuses a bit past the universe and
// leaves the set unchanged, and binding an empty set keeps it the zero Set.
func TestSetDecodeAndBind(t *testing.T) {
	parwanLike := testUniverses(t)[0] // 112 faults
	if js, _ := json.Marshal(Set{}); string(js) != "[]" {
		t.Errorf("the empty set marshals to %s, want []", js)
	}
	for _, in := range []string{`[]`, `null`, `[0]`, `[0,0,0,0]`} {
		var s Set
		if err := json.Unmarshal([]byte(in), &s); err != nil {
			t.Errorf("%s: %v", in, err)
		}
		if err := s.Bind(parwanLike); err != nil || s != (Set{}) {
			t.Errorf("%s decodes and binds to %v (%v), want the zero Set", in, s, err)
		}
	}
	for _, in := range []string{`[1,2,3,4,5]`, `[-1]`, `["1"]`, `{}`, `[1.5]`, `[18446744073709551616]`} {
		var s Set
		if err := json.Unmarshal([]byte(in), &s); err == nil {
			t.Errorf("%s decoded to %v", in, s)
		}
	}
	for _, in := range []string{`[0,281474976710656]`, `[0,0,1]`, `[0,0,0,9223372036854775808]`} {
		var s Set
		if err := json.Unmarshal([]byte(in), &s); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		before := s
		if err := s.Bind(parwanLike); err == nil {
			t.Errorf("%s: a bit past the 112-fault universe was bound", in)
		}
		if s != before {
			t.Errorf("%s: a refused Bind changed the set", in)
		}
	}
	var last Set
	if err := json.Unmarshal([]byte(`[0,281474976710655]`), &last); err != nil {
		t.Fatal(err)
	}
	if err := last.Bind(parwanLike); err != nil || last.Len() != 48 || last.Universe() != parwanLike {
		t.Errorf("bits 64..111 bind to %v (%v)", last, err)
	}
}
