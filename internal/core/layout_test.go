package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/parwan"
)

func TestLayoutPinAndConflict(t *testing.T) {
	l := newLayout()
	if err := l.pin(0x100, 0xAB); err != nil {
		t.Fatal(err)
	}
	if err := l.pin(0x100, 0xAB); err != nil {
		t.Errorf("same-value re-pin failed: %v", err)
	}
	if err := l.pin(0x100, 0xCD); err == nil {
		t.Error("conflicting pin accepted")
	}
	if l.free(0x100) {
		t.Error("pinned cell reported free")
	}
	if err := l.pin(0x1000, 0); err == nil {
		t.Error("out-of-range pin accepted")
	}
}

func TestLayoutReserve(t *testing.T) {
	l := newLayout()
	if err := l.reserve(0x200); err != nil {
		t.Fatal(err)
	}
	if err := l.reserve(0x200); err == nil {
		t.Error("double reserve accepted")
	}
	if err := l.pin(0x200, 1); err == nil {
		t.Error("pin on reserved cell accepted")
	}
	if err := l.pin(0x201, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.reserve(0x201); err == nil {
		t.Error("reserve on pinned cell accepted")
	}
	if err := l.reserve(0x1000); err == nil {
		t.Error("out-of-range reserve accepted")
	}
}

func TestLayoutHoldFillRelease(t *testing.T) {
	l := newLayout()
	if err := l.holdCont(0x300); err != nil {
		t.Fatal(err)
	}
	if l.heldKind[0x300] != holdJmpOpcode || l.heldKind[0x301] != holdUnpredictable {
		t.Error("continuation hold kinds wrong")
	}
	if err := l.pin(0x300, 1); err == nil {
		t.Error("pin on held cell accepted")
	}
	if err := l.fill(0x300, 0x82); err != nil {
		t.Fatal(err)
	}
	if !l.im.Used(0x300) || l.im.Get(0x300) != 0x82 {
		t.Error("fill did not pin")
	}
	if err := l.fill(0x305, 0); err == nil {
		t.Error("fill on un-held cell accepted")
	}
	l.release(0x301)
	if !l.free(0x301) {
		t.Error("release did not free the cell")
	}
}

func TestLayoutHoldWraps(t *testing.T) {
	l := newLayout()
	if err := l.hold(0xFFF, 2); err != nil {
		t.Fatal(err)
	}
	if !l.held[0xFFF] || !l.held[0x000] {
		t.Error("wrap-around hold missed a byte")
	}
	if err := l.fill(0xFFF+1, 0x12); err != nil { // fill also wraps
		t.Fatal(err)
	}
	if l.im.Get(0x000) != 0x12 {
		t.Error("wrapped fill landed wrong")
	}
}

func TestLayoutHoldAllOrNothing(t *testing.T) {
	l := newLayout()
	if err := l.pin(0x401, 0x55); err != nil {
		t.Fatal(err)
	}
	if err := l.hold(0x400, 2); err == nil {
		t.Error("hold over pinned cell accepted")
	}
	if l.held[0x400] {
		t.Error("partial hold left state behind")
	}
}

func TestLayoutPinRunAtomic(t *testing.T) {
	l := newLayout()
	if err := l.reserve(0x502); err != nil {
		t.Fatal(err)
	}
	if err := l.pinRun(0x500, []byte{1, 2, 3}); err == nil {
		t.Error("run over reserved cell accepted")
	}
	if l.im.Used(0x500) || l.im.Used(0x501) {
		t.Error("failed run partially applied")
	}
	if err := l.pinRun(0xFFE, []byte{1, 2, 3}); err == nil {
		t.Error("overflowing run accepted (pinRun does not wrap)")
	}
}

func TestFindFreeRun(t *testing.T) {
	l := newLayout()
	if err := l.pin(0x12, 1); err != nil {
		t.Fatal(err)
	}
	a, err := l.findFreeRun(0x10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0x13 {
		t.Errorf("findFreeRun = %03x, want 013", a)
	}
	// Exhausted space.
	big := newLayout()
	for addr := 0; addr < parwan.MemSize; addr += 2 {
		if err := big.pin(uint16(addr), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := big.findFreeRun(0, 2); err == nil {
		t.Error("impossible run found")
	}
}

// TestSnapshotRestore: a snapshot shares no state with its source, and undo
// restores the source to its mark.
func TestSnapshotRestore(t *testing.T) {
	l := newLayout()
	if err := l.pin(0x10, 1); err != nil {
		t.Fatal(err)
	}
	snap := l.snapshot()
	m := l.mark()
	if err := l.pin(0x11, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.reserve(0x12); err != nil {
		t.Fatal(err)
	}
	if err := l.hold(0x13, 1); err != nil {
		t.Fatal(err)
	}
	if snap.im.Used(0x11) || snap.reserved[0x12] || snap.held[0x13] {
		t.Error("snapshot changed with its source")
	}
	l.undo(m)
	if l.im.Used(0x11) || l.reserved[0x12] || l.held[0x13] {
		t.Error("undo did not roll back")
	}
	if !l.im.Used(0x10) {
		t.Error("undo lost pre-mark state")
	}
}

func TestEmitterStraightLine(t *testing.T) {
	l := newLayout()
	e := newEmitter(l, 0x100)
	e.emit(parwan.Instruction{Op: parwan.CLA})
	e.emit(parwan.Instruction{Op: parwan.LDA, Target: 0x234})
	e.halt()
	if e.err != nil {
		t.Fatal(e.err)
	}
	if l.im.Get(0x100) != 0xE1 {
		t.Errorf("first byte %02x", l.im.Get(0x100))
	}
	// halt is jmp-to-self at 0x103.
	if l.im.Get(0x103) != 0x81 || l.im.Get(0x104) != 0x03 {
		t.Errorf("halt bytes %02x %02x", l.im.Get(0x103), l.im.Get(0x104))
	}
}

func TestEmitterBridgesObstruction(t *testing.T) {
	l := newLayout()
	// Obstruction right after the entry.
	if err := l.pin(0x103, 0xEE); err != nil {
		t.Fatal(err)
	}
	e := newEmitter(l, 0x100)
	e.emit(parwan.Instruction{Op: parwan.CLA}) // at 0x100
	e.emit(parwan.Instruction{Op: parwan.LDA, Target: 0x234})
	e.halt()
	if e.err != nil {
		t.Fatal(e.err)
	}
	// The lda cannot sit at 0x101 (needs slack through 0x104); a bridge
	// jmp must appear at 0x101 and code continues past the obstruction.
	if l.im.Get(0x101)>>4 != 0x8 {
		t.Errorf("expected bridge jmp at 0x101, got %02x", l.im.Get(0x101))
	}
	// Obstruction byte untouched.
	if l.im.Get(0x103) != 0xEE {
		t.Error("obstruction clobbered")
	}
	// And the emitted program must actually run: execute it.
	prog := &TestProgram{Image: l.im, Entry: 0x100, StepLimit: 50}
	if !runsToHalt(t, prog) {
		t.Error("bridged program did not halt")
	}
}

func TestEmitterErrorSticks(t *testing.T) {
	l := newLayout()
	// Fill memory so nothing fits.
	for a := 0; a < parwan.MemSize; a++ {
		if err := l.pin(uint16(a), 0); err != nil {
			t.Fatal(err)
		}
	}
	e := newEmitter(l, 0x100)
	e.emit(parwan.Instruction{Op: parwan.CLA})
	if e.err == nil {
		t.Fatal("emitter on full memory did not error")
	}
	err := e.err
	e.emit(parwan.Instruction{Op: parwan.CLA}) // further calls are no-ops
	if e.err != err && !strings.Contains(e.err.Error(), "no") {
		t.Error("error did not stick")
	}
}

func TestEmitterHere(t *testing.T) {
	l := newLayout()
	e := newEmitter(l, 0x100)
	a := e.here(4)
	if a != 0x100 {
		t.Errorf("here = %03x", a)
	}
	e.emit(parwan.Instruction{Op: parwan.STA, Target: 0x200})
	if e.cursor != 0x102 {
		t.Errorf("cursor = %03x", e.cursor)
	}
}

// sameCells reports whether two layouts agree on every cell's byte, pinned
// flag, reserved, held and held kind.
func sameCells(a, b *layout) bool {
	return *a.im == *b.im && a.reserved == b.reserved && a.held == b.held && a.heldKind == b.heldKind
}

// TestLayoutUndoRestores runs random sequences of layout changes under
// nested marks. The addresses straddle the top of memory, so calls collide,
// wrap and fail. Every undo must return each cell to a deep copy taken at
// its mark, whichever mark it rolls back to.
func TestLayoutUndoRestores(t *testing.T) {
	type marked struct {
		m    int
		copy *layout
	}
	rng := rand.New(rand.NewSource(7))
	var ok, failed, undos int
	count := func(err error) {
		if err != nil {
			failed++
		} else {
			ok++
		}
	}
	for round := 0; round < 300; round++ {
		l := newLayout()
		var marks []marked
		for step := 0; step < 80; step++ {
			a := uint16(parwan.MemSize - 8 + rng.Intn(16))
			b := byte(rng.Intn(3))
			switch rng.Intn(10) {
			case 0:
				count(l.pin(a, b))
			case 1:
				count(l.pinRun(a, []byte{b, b + 1}))
			case 2:
				count(l.reserve(a))
			case 3:
				count(l.hold(a, 1+rng.Intn(3), holdJmpOpcode))
			case 4:
				count(l.holdCont(a))
			case 5:
				l.release(a)
			case 6:
				count(l.fill(a, b))
			case 7, 8:
				marks = append(marks, marked{l.mark(), l.snapshot()})
			case 9:
				if len(marks) == 0 {
					continue
				}
				k := rng.Intn(len(marks))
				l.undo(marks[k].m)
				undos++
				if !sameCells(l, marks[k].copy) {
					t.Fatalf("round %d step %d: undo to mark %d of %d left cells changed", round, step, k, len(marks))
				}
				if l.mark() != marks[k].m {
					t.Fatalf("round %d: trail %d entries after undo to %d", round, l.mark(), marks[k].m)
				}
				marks = marks[:k]
			}
		}
		for k := len(marks) - 1; k >= 0; k-- {
			l.undo(marks[k].m)
			if !sameCells(l, marks[k].copy) {
				t.Fatalf("round %d: unwinding mark %d left cells changed", round, k)
			}
		}
	}
	if ok == 0 || failed == 0 || undos == 0 {
		t.Errorf("sequences too narrow: %d calls succeeded, %d failed, %d undos", ok, failed, undos)
	}
}
