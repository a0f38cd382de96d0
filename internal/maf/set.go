package maf

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// SetBits is a Set's capacity, the largest fault universe it can index: the
// widest shipped target, a 64-wire unidirectional bus, has 4·64 faults.
const SetBits = 256

const setWords = SetBits / 64

// FaultUniverse is one target's fault universe: every MAF of every channel,
// in canonical Compare order, each with its name rendered once. A fault's
// position in the universe is its bit in a Set.
type FaultUniverse struct {
	faults []Fault
	names  []string
}

// NewFaultUniverse builds the universe of faults. It refuses a duplicate
// fault and more than SetBits faults.
func NewFaultUniverse(faults []Fault) (*FaultUniverse, error) {
	if len(faults) > SetBits {
		return nil, fmt.Errorf("maf: %d faults exceed a fault set's %d bits", len(faults), SetBits)
	}
	u := &FaultUniverse{faults: slices.Clone(faults), names: make([]string, len(faults))}
	SortFaults(u.faults)
	for i, f := range u.faults {
		if i > 0 && f == u.faults[i-1] {
			return nil, fmt.Errorf("maf: fault %v@%d listed twice", f, f.Width)
		}
		u.names[i] = f.String()
	}
	return u, nil
}

// Len returns the number of faults in the universe.
func (u *FaultUniverse) Len() int { return len(u.faults) }

// Fault returns the universe's fault i.
func (u *FaultUniverse) Fault(i int) Fault { return u.faults[i] }

// Name returns fault i's String form, rendered once.
func (u *FaultUniverse) Name(i int) string { return u.names[i] }

// Index returns f's position in the universe; ok is false when f is not in
// it.
func (u *FaultUniverse) Index(f Fault) (i int, ok bool) {
	return slices.BinarySearchFunc(u.faults, f, Compare)
}

// Set is a set of faults of one universe: bit i stands for the universe's
// fault i, so walking the bits in index order visits the faults in canonical
// Compare order. It has a fixed size, so a struct holding one stays
// comparable and adding to one allocates nothing. A non-empty set keeps a
// pointer to its universe, which names its faults; the empty set is the
// zero Set, whatever produced it.
type Set struct {
	u *FaultUniverse
	w [setWords]uint64
}

// Add adds universe u's fault i to s, which must be empty or over u.
func (s *Set) Add(u *FaultUniverse, i int) {
	if s.u != u && s.u != nil {
		panic("maf: adding to a fault set of another universe")
	}
	s.u = u
	s.w[i>>6] |= 1 << uint(i&63)
}

// Union returns the set of the faults in s or t. Unless one of them is
// empty, both must be over one universe; sets of two targets never meet.
func (s Set) Union(t Set) Set {
	if s.u == nil {
		s.u = t.u
	} else if t.u != s.u && t.u != nil {
		panic("maf: union of fault sets of two universes")
	}
	for i, w := range t.w {
		s.w[i] |= w
	}
	return s
}

// Universe returns the universe s indexes; nil for the empty set.
func (s Set) Universe() *FaultUniverse { return s.u }

// Len returns the number of faults in s.
func (s Set) Len() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Next returns the smallest index at or above i in s, or -1 when there is
// none, so that
//
//	for i := s.Next(0); i >= 0; i = s.Next(i + 1)
//
// visits s's faults in canonical order.
func (s Set) Next(i int) int {
	for k := i >> 6; k < setWords; k++ {
		w := s.w[k]
		if k == i>>6 {
			w &= ^uint64(0) << uint(i&63)
		}
		if w != 0 {
			return k<<6 | bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Faults returns s's faults in canonical order.
func (s Set) Faults() []Fault {
	var out []Fault
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		out = append(out, s.u.faults[i])
	}
	return out
}

// Names returns the String forms of s's faults in canonical order; nil for
// the empty set. The strings are the universe's own.
func (s Set) Names() []string {
	n := s.Len()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := s.Next(0); i >= 0; i = s.Next(i + 1) {
		out = append(out, s.u.names[i])
	}
	return out
}

// String renders s as fmt renders a slice of its faults.
func (s Set) String() string { return "[" + strings.Join(s.Names(), " ") + "]" }

// MarshalJSON writes s as its words, least significant first, without
// trailing zero words: the empty set is [].
func (s Set) MarshalJSON() ([]byte, error) {
	n := setWords
	for n > 0 && s.w[n-1] == 0 {
		n--
	}
	return json.Marshal(s.w[:n])
}

// UnmarshalJSON reads the MarshalJSON form into a set with no universe;
// Bind gives it one.
func (s *Set) UnmarshalJSON(b []byte) error {
	var w []uint64
	if err := json.Unmarshal(b, &w); err != nil {
		return fmt.Errorf("maf: fault set: %w", err)
	}
	if len(w) > setWords {
		return fmt.Errorf("maf: fault set of %d words, more than %d", len(w), setWords)
	}
	*s = Set{}
	copy(s.w[:], w)
	return nil
}

// Bind makes s a set over u, as a decoded set needs before its faults can
// be named or merged. It fails, leaving s unchanged, when s holds a bit past
// u's faults. An empty set stays the zero Set.
func (s *Set) Bind(u *FaultUniverse) error {
	if i := s.Next(u.Len()); i >= 0 {
		return fmt.Errorf("maf: fault set holds bit %d, past the %d faults of its universe", i, u.Len())
	}
	if s.w != [setWords]uint64{} {
		s.u = u
	}
	return nil
}
