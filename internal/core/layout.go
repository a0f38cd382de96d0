package core

import (
	"fmt"

	"repro/internal/parwan"
)

// layout manages the program's memory image while tests are being placed.
// Every byte of the 4K space is in one of four states:
//
//	free      - available
//	pinned    - holds a specific value required by code or seeded data
//	reserved  - written at run time (response cells, store targets); must
//	            not be pinned or reserved again
//	held      - claimed for a later pin (a fragment's continuation jump
//	            whose target is not yet known)
//
// Placement failures surface as *parwan.ConflictError or plain errors; the
// generator treats any failure as the paper's "address conflict" and defers
// the test to the next session.
type layout struct {
	im       *parwan.Image
	reserved [parwan.MemSize]bool
	held     [parwan.MemSize]bool
	// heldKind classifies held bytes for seed-feasibility reasoning:
	// holdJmpOpcode bytes will be filled with a direct-jmp first byte
	// (0x80..0x8F); holdUnpredictable bytes can become anything.
	heldKind [parwan.MemSize]byte
	// trail holds each changed cell's prior state, oldest first, so a
	// failed trial rolls back to a mark without copying the layout.
	trail []cellState
}

// cellState is one cell's state before a change, as the trail records it.
// A pinned cell's byte never changes, so pinned alone restores the image.
type cellState struct {
	addr                   uint16
	pinned, reserved, held bool
	heldKind               byte
}

// Held-byte classifications.
const (
	holdUnpredictable byte = iota
	holdJmpOpcode
)

func newLayout() *layout {
	return &layout{im: parwan.NewImage()}
}

// free reports whether addr is entirely unclaimed.
func (l *layout) free(addr uint16) bool {
	return int(addr) < parwan.MemSize && !l.im.Used(addr) && !l.reserved[addr] && !l.held[addr]
}

// save records addr's current state on the trail; every change to a cell
// calls it first.
func (l *layout) save(addr uint16) {
	l.trail = append(l.trail, cellState{
		addr: addr, pinned: l.im.Used(addr),
		reserved: l.reserved[addr], held: l.held[addr], heldKind: l.heldKind[addr],
	})
}

// mark returns the point on the trail that undo rolls back to.
func (l *layout) mark() int { return len(l.trail) }

// undo restores every cell changed since mark m, newest change first.
func (l *layout) undo(m int) {
	for i := len(l.trail) - 1; i >= m; i-- {
		c := l.trail[i]
		if !c.pinned {
			l.im.Unset(c.addr)
		}
		l.reserved[c.addr], l.held[c.addr], l.heldKind[c.addr] = c.reserved, c.held, c.heldKind
	}
	l.trail = l.trail[:m]
}

// pin fixes value b at addr. Pinning the same value twice is allowed;
// anything else is a conflict.
func (l *layout) pin(addr uint16, b byte) error {
	if int(addr) >= parwan.MemSize {
		return fmt.Errorf("core: address %#x out of range", addr)
	}
	if l.reserved[addr] {
		return fmt.Errorf("core: address %03x is reserved for run-time writes", addr)
	}
	if l.held[addr] {
		return fmt.Errorf("core: address %03x is held for a pending pin", addr)
	}
	l.save(addr)
	return l.im.Set(addr, b)
}

// pinRun pins consecutive bytes starting at addr, all-or-nothing.
func (l *layout) pinRun(addr uint16, bs []byte) error {
	for i := range bs {
		a := addr + uint16(i)
		if int(a) >= parwan.MemSize {
			return fmt.Errorf("core: run at %03x overflows memory", addr)
		}
		if l.reserved[a] {
			return fmt.Errorf("core: address %03x is reserved", a)
		}
		if l.held[a] {
			return fmt.Errorf("core: address %03x is held", a)
		}
	}
	for i := range bs {
		l.save(addr + uint16(i))
	}
	return l.im.SetBytes(addr, bs)
}

// reserve claims addr for run-time writes.
func (l *layout) reserve(addr uint16) error {
	if int(addr) >= parwan.MemSize {
		return fmt.Errorf("core: address %#x out of range", addr)
	}
	if l.im.Used(addr) || l.held[addr] {
		return fmt.Errorf("core: address %03x already claimed", addr)
	}
	if l.reserved[addr] {
		return fmt.Errorf("core: address %03x already reserved", addr)
	}
	l.save(addr)
	l.reserved[addr] = true
	return nil
}

// hold claims n consecutive bytes starting at addr for a later pin,
// all-or-nothing, classifying each byte with the matching kind (or
// holdUnpredictable when kinds is short). Wrapping past the top of memory is
// allowed (the program counter wraps), so addresses are taken modulo the
// memory size.
func (l *layout) hold(addr uint16, n int, kinds ...byte) error {
	for i := 0; i < n; i++ {
		if a := addrMask(addr + uint16(i)); !l.free(a) {
			return fmt.Errorf("core: address %03x not free to hold", a)
		}
	}
	for i := 0; i < n; i++ {
		a := addrMask(addr + uint16(i))
		l.save(a)
		l.held[a] = true
		l.heldKind[a] = holdUnpredictable
		if i < len(kinds) {
			l.heldKind[a] = kinds[i]
		}
	}
	return nil
}

// holdCont claims a 2-byte continuation slot: the first byte will hold a
// jmp opcode (0x80..0x8F), the second an unpredictable offset.
func (l *layout) holdCont(addr uint16) error {
	return l.hold(addr, 2, holdJmpOpcode, holdUnpredictable)
}

// release drops a hold without pinning (used for the entry-point runway that
// protects the program entry from fragment placement).
func (l *layout) release(addr uint16) {
	addr = addrMask(addr)
	l.save(addr)
	l.held[addr] = false
}

// fill pins a previously held byte.
func (l *layout) fill(addr uint16, b byte) error {
	addr &= parwan.MemSize - 1
	if !l.held[addr] {
		return fmt.Errorf("core: address %03x was not held", addr)
	}
	l.save(addr)
	l.held[addr] = false
	return l.im.Set(addr, b)
}

// findFreeRun returns the lowest address >= from with n consecutive free
// bytes (not wrapping), or an error when space is exhausted.
func (l *layout) findFreeRun(from uint16, n int) (uint16, error) {
	for a := int(from); a+n <= parwan.MemSize; a++ {
		ok := true
		for i := 0; i < n; i++ {
			if !l.free(uint16(a + i)) {
				ok = false
				a += i // skip past the obstruction
				break
			}
		}
		if ok {
			return uint16(a), nil
		}
	}
	return 0, fmt.Errorf("core: no free run of %d bytes at or after %03x", n, from)
}

// snapshot returns a deep copy of the layout with an empty trail, the start
// of an independent placement (a portfolio ordering).
func (l *layout) snapshot() *layout {
	c := &layout{im: l.im.Clone()}
	c.reserved = l.reserved
	c.held = l.held
	c.heldKind = l.heldKind
	return c
}

// emitter lays mainline code into free space, automatically bridging over
// pinned obstructions (test fragments, seeded data cells) with jump
// instructions.
type emitter struct {
	l      *layout
	cursor uint16
	err    error
}

func newEmitter(l *layout, entry uint16) *emitter {
	return &emitter{l: l, cursor: entry}
}

// ensure makes sure n contiguous free bytes exist at the cursor — plus two
// bytes of slack so a future bridge jump always fits — emitting a bridging
// jmp when they do not. The slack invariant guarantees inductively that the
// cursor always has at least two free bytes for the bridge itself.
func (e *emitter) ensure(n int) {
	if e.err != nil {
		return
	}
	need := n + 2 // slack for a future bridge
	run := true
	for i := 0; i < need; i++ {
		if !e.l.free(e.cursor + uint16(i)) {
			run = false
			break
		}
	}
	if run && int(e.cursor)+need <= parwan.MemSize {
		return
	}
	// Need to bridge: the jmp itself needs 2 free bytes at the cursor,
	// which the slack invariant provides.
	for i := 0; i < 2; i++ {
		if !e.l.free(e.cursor + uint16(i)) {
			e.err = fmt.Errorf("core: no room for bridge jump at %03x", e.cursor)
			return
		}
	}
	target, err := e.l.findFreeRun(e.cursor+2, need+2) // room for code plus slack
	if err != nil {
		e.err = err
		return
	}
	bs, err := parwan.Instruction{Op: parwan.JMP, Target: target}.Encode()
	if err != nil {
		e.err = err
		return
	}
	if err := e.l.pinRun(e.cursor, bs); err != nil {
		e.err = err
		return
	}
	e.cursor = target
}

// emit appends an instruction at the cursor.
func (e *emitter) emit(in parwan.Instruction) {
	if e.err != nil {
		return
	}
	bs, err := in.Encode()
	if err != nil {
		e.err = err
		return
	}
	e.ensure(len(bs))
	if e.err != nil {
		return
	}
	if err := e.l.pinRun(e.cursor, bs); err != nil {
		e.err = err
		return
	}
	e.cursor += uint16(len(bs))
}

// here returns the cursor after ensuring n bytes are available, so the
// caller can use it as a stable landing address for code about to be
// emitted.
func (e *emitter) here(n int) uint16 {
	e.ensure(n)
	return e.cursor
}

// halt emits the conventional self-jump halt. The landing address is fixed
// before emission so that any bridging happens first.
func (e *emitter) halt() {
	a := e.here(2)
	if e.err != nil {
		return
	}
	e.emit(parwan.Instruction{Op: parwan.JMP, Target: a})
}
