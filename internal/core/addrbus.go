package core

import (
	"errors"
	"fmt"

	"repro/internal/maf"
	"repro/internal/parwan"
)

// addrMask folds an address into the 12-bit space; fragment footprints may
// wrap past the top of memory exactly as the program counter does.
func addrMask(a uint16) uint16 { return a & (parwan.MemSize - 1) }

// fragment is one address-bus test embedded at fixed addresses: the mainline
// jumps to entry, the fragment applies the vector pair, and its continuation
// slot (held during placement) is later filled with a jump back to the
// mainline rejoin point.
type fragment struct {
	fault  maf.Fault
	scheme Scheme
	entry  uint16
	cont   uint16 // first byte of the 2-byte held continuation slot
	// seeds, when non-nil, is a deferred requirement that M[A] != M[B] at
	// run time (the intended and redirected operand cells of a direct-
	// placement delay test). Seeding is resolved only after all fragments
	// are placed so that other tests' instruction bytes can serve as seeds
	// — the cross-test byte sharing that dense packing depends on.
	seeds *seedConstraint
}

// seedConstraint records that two cells must hold different values when the
// owning test executes.
type seedConstraint struct {
	A, B uint16
}

// maxPins bounds a pin set. tryGlitchCombo builds the largest: the indirect
// first instruction's two bytes and pointer cell, the second instruction's
// two bytes, the alternate first byte, and the two data cells. A ninth pin
// is a bug, and add panics on it.
const maxPins = 8

// pin is one byte a pin set fixes.
type pin struct {
	addr uint16
	b    byte
}

// pinSet is a consistent set of byte pins built up while planning one test,
// in insertion order. Adding two different values at one address fails,
// which is how coincident roles (e.g. an instruction byte that is also
// another path's operand) are either unified or rejected. It is a value:
// copying one copies its pins.
type pinSet struct {
	pins [maxPins]pin
	n    int
}

// errPinConflict is built once: the search tries tens of thousands of
// candidate sets and drops each conflict, and no plan reason carries it.
var errPinConflict = errors.New("core: internal pin conflict")

func (ps *pinSet) add(addr uint16, b byte) error {
	addr = addrMask(addr)
	if v, ok := ps.lookup(addr); ok {
		if v != b {
			return errPinConflict
		}
		return nil
	}
	ps.pins[ps.n] = pin{addr, b}
	ps.n++
	return nil
}

// lookup returns the set's own pin at addr.
func (ps *pinSet) lookup(addr uint16) (byte, bool) {
	addr = addrMask(addr)
	for _, p := range ps.pins[:ps.n] {
		if p.addr == addr {
			return p.b, true
		}
	}
	return 0, false
}

// value returns the effective value at addr considering both this pin set
// and the layout's existing pins.
func (ps *pinSet) value(l *layout, addr uint16) (byte, bool) {
	addr = addrMask(addr)
	if v, ok := ps.lookup(addr); ok {
		return v, true
	}
	if l.im.Used(addr) {
		return l.im.Get(addr), true
	}
	return 0, false
}

// feasible reports whether every pin can land on the layout: the cell is
// either free or already pinned to the same value.
func (ps *pinSet) feasible(l *layout) bool {
	for _, p := range ps.pins[:ps.n] {
		if l.free(p.addr) {
			continue
		}
		if l.im.Used(p.addr) && l.im.Get(p.addr) == p.b && !l.reserved[p.addr] && !l.held[p.addr] {
			continue
		}
		return false
	}
	return true
}

// apply commits the pins. It cannot fail after feasible succeeds: a set's
// addresses are distinct, and feasible checked each one.
func (ps *pinSet) apply(l *layout) error {
	for _, p := range ps.pins[:ps.n] {
		if err := l.pin(p.addr, p.b); err != nil {
			return err
		}
	}
	return nil
}

// placeError is a fragment placement failure, "core: <fault>: <why>". Its
// text is built only when read: most failures lose a portfolio ordering or
// give way to the fallback scheme, and only a fault left inapplicable
// reports its reason.
type placeError struct {
	f    maf.Fault
	why  string // empty when the continuation slot at cont is not free
	cont uint16
}

func (e *placeError) Error() string {
	if e.why == "" {
		return fmt.Sprintf("core: %v: continuation slot %03x not free", e.f, e.cont)
	}
	return fmt.Sprintf("core: %v: %s", e.f, e.why)
}

// opForMode returns the memory-access instruction used to apply tests: load
// normally, add when responses are compacted in the accumulator (§4.3 notes
// the add instruction has the same construct and timing as the load).
func opForMode(compaction bool) (parwan.Op, byte) {
	if compaction {
		return parwan.ADD, byte(parwan.ADD) << 5
	}
	return parwan.LDA, byte(parwan.LDA) << 5
}

// faultyAddress returns v2 as the receiver sees it under the fault: a
// delayed victim holds its v1 value, a glitched victim momentarily flips.
func faultyAddress(f maf.Fault) uint16 {
	t := maf.TestFor(f)
	v2 := uint16(t.V2.Uint64())
	switch f.Kind {
	case maf.RisingDelay, maf.FallingDelay:
		return v2&^(1<<uint(f.Victim)) | uint16(t.V1.Bit(f.Victim))<<uint(f.Victim)
	default: // glitches flip the stable victim
		return v2 ^ 1<<uint(f.Victim)
	}
}

// placeAddrDirect embeds a test with the instruction-placement scheme
// (§4.2.1): the instruction is placed at v1-1 so its second byte occupies
// v1, and it accesses address v2. Memory is seeded so that the fault's
// redirected access (to v2 with the victim bit corrupted) returns a
// different value than the intended access. Only usable when v1 is unique
// to the test, i.e. for delay faults.
func placeAddrDirect(l *layout, f maf.Fault, compaction bool) (fragment, error) {
	op, _ := opForMode(compaction)
	t := maf.TestFor(f)
	v1 := uint16(t.V1.Uint64())
	v2 := uint16(t.V2.Uint64())
	instr := addrMask(v1 - 1)
	cont := addrMask(v1 + 1)
	cont2 := addrMask(v1 + 2)

	var ps pinSet
	enc, err := parwan.Instruction{Op: op, Target: v2}.Encode()
	if err != nil {
		return fragment{}, err
	}
	if err := ps.add(instr, enc[0]); err != nil {
		return fragment{}, err
	}
	if err := ps.add(v1, enc[1]); err != nil {
		return fragment{}, err
	}

	// The intended and redirected operand cells must eventually hold
	// different values; seeding is deferred (see fragment.seeds) so that
	// bytes pinned by later tests can serve as seeds.
	v2p := faultyAddress(f)

	if !ps.feasible(l) {
		return fragment{}, &placeError{f: f, why: "footprint conflicts with existing placement"}
	}
	if _, own := ps.lookup(cont); own {
		return fragment{}, &placeError{f: f, why: "continuation collides with own pins"}
	}
	if _, own := ps.lookup(cont2); own {
		return fragment{}, &placeError{f: f, why: "continuation collides with own pins"}
	}
	if !l.free(cont) || !l.free(cont2) {
		return fragment{}, &placeError{f: f, cont: cont}
	}
	if err := ps.apply(l); err != nil {
		return fragment{}, err
	}
	if err := l.holdCont(cont); err != nil {
		return fragment{}, err
	}
	return fragment{
		fault: f, scheme: AddrDirect, entry: instr, cont: cont,
		seeds: &seedConstraint{A: addrMask(v2), B: v2p},
	}, nil
}

// resolveSeeds finalises the deferred seed constraints of direct-placement
// fragments, pinning whichever cells are still free. Fragments whose
// constraint cannot be satisfied (both cells forced equal, or a cell with
// unpredictable run-time contents) are dropped: their continuation holds are
// released and their faults deferred to the next session. Stale instruction
// pins of dropped fragments stay in the image — they are unreachable code
// and keeping them is safe, while unwinding them could invalidate other
// placements.
func resolveSeeds(l *layout, frags []fragment) (kept, dropped []fragment) {
	for _, fr := range frags {
		if fr.seeds == nil {
			kept = append(kept, fr)
			continue
		}
		var ps pinSet
		if err := seedDistinct(l, &ps, fr.seeds.A, fr.seeds.B, fr.cont, addrMask(fr.cont+1)); err != nil {
			l.release(fr.cont)
			l.release(fr.cont + 1)
			dropped = append(dropped, fr)
			continue
		}
		if !ps.feasible(l) || ps.apply(l) != nil {
			l.release(fr.cont)
			l.release(fr.cont + 1)
			dropped = append(dropped, fr)
			continue
		}
		kept = append(kept, fr)
	}
	return kept, dropped
}

// jmpOpcodeByte reports whether v could be the first byte of a direct jmp
// (0x80..0x8F), the value a continuation slot will eventually hold.
func jmpOpcodeByte(v byte) bool { return v >= 0x80 && v <= 0x8F }

// seedClass categorises a seed cell for the distinctness argument.
type seedClass int

const (
	seedKnown    seedClass = iota // pinned now or in the pin set
	seedPinnable                  // free: we may pin a value
	seedJmpHi                     // will hold a jmp opcode byte (0x80..0x8F)
	seedBad                       // unpredictable at run time
)

// classifySeed inspects addr. contHi/contLo are the test's own continuation
// bytes, classified like foreign held continuation bytes.
func classifySeed(l *layout, ps *pinSet, addr, contHi, contLo uint16) (seedClass, byte) {
	switch addr {
	case contHi:
		return seedJmpHi, 0
	case contLo:
		return seedBad, 0
	}
	if v, ok := ps.value(l, addr); ok {
		return seedKnown, v
	}
	if l.held[addr] {
		if l.heldKind[addr] == holdJmpOpcode {
			return seedJmpHi, 0
		}
		return seedBad, 0
	}
	if l.reserved[addr] {
		return seedBad, 0
	}
	return seedPinnable, 0
}

// seedDistinct arranges M[a] != M[b] at the moment the test executes,
// pinning whichever cells are still free. Cells that will hold a
// continuation jmp opcode are usable (their value is confined to
// 0x80..0x8F) as long as the other seed stays outside that range; cells
// with unpredictable run-time contents fail placement.
func seedDistinct(l *layout, ps *pinSet, a, b, contHi, contLo uint16) error {
	a, b = addrMask(a), addrMask(b)
	if a == b {
		return fmt.Errorf("core: seed addresses coincide at %03x", a)
	}
	ca, va := classifySeed(l, ps, a, contHi, contLo)
	cb, vb := classifySeed(l, ps, b, contHi, contLo)
	if ca == seedBad || cb == seedBad {
		return fmt.Errorf("core: seed cell with unpredictable run-time value")
	}
	if ca == seedJmpHi && cb == seedJmpHi {
		return fmt.Errorf("core: both seeds on jmp-opcode bytes")
	}
	if ca == seedJmpHi || cb == seedJmpHi {
		otherAddr, otherClass, otherVal := b, cb, vb
		if cb == seedJmpHi {
			otherAddr, otherClass, otherVal = a, ca, va
		}
		if otherClass == seedKnown {
			if jmpOpcodeByte(otherVal) {
				return fmt.Errorf("core: seed %02x at %03x indistinguishable from continuation jmp", otherVal, otherAddr)
			}
			return nil
		}
		return ps.add(otherAddr, 0x0F) // any value outside 0x80..0x8F
	}
	switch {
	case ca == seedKnown && cb == seedKnown:
		if va == vb {
			return fmt.Errorf("core: seeds at %03x and %03x already equal (%02x)", a, b, va)
		}
		return nil
	case ca == seedKnown:
		return ps.add(b, ^va)
	case cb == seedKnown:
		return ps.add(a, ^vb)
	default:
		if err := ps.add(a, 0x55); err != nil {
			return err
		}
		return ps.add(b, 0xAA)
	}
}

// placeAddrTwoInstr embeds a test with the paper's two-instruction scheme
// (§4.2.2, Figs. 6-7): instruction 1 at v2-2 accesses operand address v1;
// the transition to instruction 2's fetch at v2 carries the vector pair.
// Memory is seeded so that under the fault the CPU fetches an alternate
// first byte from the corrupted address — a load/add from a different page —
// and therefore delivers a different value to the response. The scheme works
// for any fault kind; the paper introduces it for glitch faults, and the
// generator also uses it as the fallback for delay faults whose direct
// placement conflicts.
func placeAddrTwoInstr(l *layout, f maf.Fault, compaction bool) (fragment, error) {
	_, opHigh := opForMode(compaction)
	t := maf.TestFor(f)
	v2 := uint16(t.V2.Uint64())
	v2p := faultyAddress(f)
	cont := addrMask(v2 + 2)
	cont2 := addrMask(v2 + 3)

	// The continuation slot must be free no matter which candidate
	// assignment wins; checking it first prunes hopeless searches.
	if !l.free(cont) || !l.free(cont2) {
		return fragment{}, &placeError{f: f, cont: cont}
	}

	var firstErr error
	variants := instr1Variants(l, f, opHigh)
	for i := range variants {
		base := &variants[i]
		// Candidate pages for the intended (py) and alternate (py2) second
		// instruction, and for the shared offset byte. Existing pins force
		// the choice; otherwise search high pages first to keep data away
		// from the mainline code region.
		pyCands := pageCandidates(base, l, v2, opHigh)
		py2Cands := pageCandidates(base, l, v2p, opHigh)
		oCands := offsetCandidates(base, l, addrMask(v2+1))
		if len(pyCands) == 0 || len(py2Cands) == 0 || len(oCands) == 0 {
			if firstErr == nil {
				firstErr = &placeError{f: f, why: "second-instruction bytes irreconcilable with existing pins"}
			}
			continue
		}
		// A candidate's own pins land on the continuation slot exactly when
		// a base pin or v2p does: v2 and v2+1 precede the slot, and
		// tryGlitchCombo refuses data cells on it. No (py, py2, o) choice
		// moves base or v2p, so the check runs once per variant.
		_, ownCont := base.lookup(cont)
		_, ownCont2 := base.lookup(cont2)
		if ownCont || ownCont2 || v2p == cont || v2p == cont2 {
			continue
		}
		for _, py := range pyCands {
			for _, py2 := range py2Cands {
				if py == py2 {
					continue
				}
				for _, o := range oCands {
					frag, ok := tryGlitchCombo(l, f, base, opHigh, v2, v2p, cont, cont2, py, py2, o)
					if ok {
						return frag, nil
					}
				}
			}
		}
	}
	if firstErr != nil {
		return fragment{}, firstErr
	}
	return fragment{}, &placeError{f: f, why: "no conflict-free page/offset assignment"}
}

// instr1Variants enumerates pin sets for the first instruction of the
// two-instruction scheme (at v2-2, operand access at v1):
//
//   - the direct vehicle, "lda/add page(v1):offset(v1)", whose two bytes are
//     fully determined by v1;
//   - the indirect vehicle, "lda_i/add_i page(v1):X", whose second byte X is
//     free (it names a pointer cell in v1's page that must hold v1's
//     offset), bought at the cost of one extra incidental pointer read.
//
// The indirect vehicle rescues placements where the byte at v2-1 is already
// pinned to something other than v1's offset: X simply adopts the pinned
// value if the pointer cell can be seeded.
func instr1Variants(l *layout, f maf.Fault, opHigh byte) []pinSet {
	t := maf.TestFor(f)
	v1 := uint16(t.V1.Uint64())
	v2 := uint16(t.V2.Uint64())
	b1 := addrMask(v2 - 2)
	b2 := addrMask(v2 - 1)
	page := byte(v1 >> 8)
	off := byte(v1 & 0xFF)

	var variants []pinSet
	// Direct vehicle.
	var direct pinSet
	if direct.add(b1, opHigh|page) == nil && direct.add(b2, off) == nil && direct.feasible(l) {
		variants = append(variants, direct)
	}
	// Indirect vehicle: X candidates are the pinned value at v2-1 if any,
	// otherwise a bounded sample of preferred offsets. The variant count is
	// capped — each one re-runs the page/offset search, and when the direct
	// vehicle is viable the indirect ones rarely add anything.
	const maxIndirectVariants = 3
	indirectOp := opHigh | 0x10
	var xs []int
	if l.im.Used(b2) {
		xs = []int{int(l.im.Get(b2))}
	} else if !l.reserved[b2] && !l.held[b2] {
		xs = preferredOffsets[:16]
	}
	for _, x := range xs {
		if len(variants) >= maxIndirectVariants+1 {
			break
		}
		var ind pinSet
		if ind.add(b1, indirectOp|page) != nil ||
			ind.add(b2, byte(x)) != nil {
			continue
		}
		ptr := uint16(page)<<8 | uint16(x)
		if l.reserved[ptr] || l.held[ptr] {
			continue
		}
		if ind.add(ptr, off) != nil {
			continue
		}
		if !ind.feasible(l) {
			continue
		}
		variants = append(variants, ind)
	}
	return variants
}

// pageCandidates lists the possible page nibbles for an instruction byte at
// addr whose high nibble must be opHigh.
func pageCandidates(ps *pinSet, l *layout, addr uint16, opHigh byte) []int {
	if v, ok := ps.value(l, addr); ok {
		if v&0xF0 != opHigh {
			return nil
		}
		return []int{int(v & 0x0F)}
	}
	if l.reserved[addrMask(addr)] || l.held[addrMask(addr)] {
		return nil
	}
	out := make([]int, 0, parwan.PageCount)
	for p := parwan.PageCount - 1; p >= 0; p-- {
		out = append(out, p)
	}
	return out
}

// offsetCandidates lists the possible shared-offset values at addr. Free
// choices are ordered by popcount distance from 4: the data-bus tests claim
// cells at one-hot, complement-one-hot, all-zero and all-one offsets
// (popcounts 0, 1, 7, 8), so mid-popcount offsets minimise contention.
func offsetCandidates(ps *pinSet, l *layout, addr uint16) []int {
	if v, ok := ps.value(l, addr); ok {
		return []int{int(v)}
	}
	if l.reserved[addr] || l.held[addr] {
		return nil
	}
	// A free offset byte needs only a modest sample: failures past the
	// first few dozen candidates indicate structural conflicts that more
	// offsets cannot fix.
	return preferredOffsets[:48]
}

// preferredOffsets orders 0..255 by |popcount-4|, ties by value.
var preferredOffsets = func() []int {
	pop := func(v int) int {
		n := 0
		for ; v != 0; v &= v - 1 {
			n++
		}
		return n
	}
	out := make([]int, 256)
	idx := 0
	for dist := 0; dist <= 4; dist++ {
		for o := 0; o < 256; o++ {
			d := pop(o) - 4
			if d < 0 {
				d = -d
			}
			if d == dist {
				out[idx] = o
				idx++
			}
		}
	}
	return out
}()

// tryGlitchCombo attempts one concrete (py, py2, o) assignment. The caller
// has checked that neither base nor v2p lands on the continuation slot.
func tryGlitchCombo(l *layout, f maf.Fault, base *pinSet, opHigh byte, v2, v2p, cont, cont2 uint16, py, py2, o int) (fragment, bool) {
	ps := *base
	if ps.add(v2, opHigh|byte(py)) != nil ||
		ps.add(addrMask(v2+1), byte(o)) != nil ||
		ps.add(v2p, opHigh|byte(py2)) != nil {
		return fragment{}, false
	}
	cell1 := uint16(py)<<8 | uint16(o)
	cell2 := uint16(py2)<<8 | uint16(o)
	if cell1 == cont || cell1 == cont2 || cell2 == cont || cell2 == cont2 {
		return fragment{}, false
	}
	// The two data cells must differ.
	d1, ok1 := ps.value(l, cell1)
	d2, ok2 := ps.value(l, cell2)
	switch {
	case ok1 && ok2:
		if d1 == d2 {
			return fragment{}, false
		}
	case ok1:
		if l.reserved[cell2] || l.held[cell2] || ps.add(cell2, ^d1) != nil {
			return fragment{}, false
		}
	case ok2:
		if l.reserved[cell1] || l.held[cell1] || ps.add(cell1, ^d2) != nil {
			return fragment{}, false
		}
	default:
		if l.reserved[cell1] || l.held[cell1] || l.reserved[cell2] || l.held[cell2] {
			return fragment{}, false
		}
		if ps.add(cell1, 0x5A) != nil || ps.add(cell2, 0xA5) != nil {
			return fragment{}, false
		}
	}
	if !ps.feasible(l) {
		return fragment{}, false
	}
	if !l.free(cont) || !l.free(cont2) {
		return fragment{}, false
	}
	if ps.apply(l) != nil {
		return fragment{}, false
	}
	if l.holdCont(cont) != nil {
		// Pins are already committed; this cannot be rolled back, but it
		// also cannot happen: cont freedom was checked above and apply
		// touches only ps addresses, which exclude cont.
		return fragment{}, false
	}
	return fragment{fault: f, scheme: AddrTwoInstr, entry: addrMask(v2 - 2), cont: cont}, true
}
