package parwan

import (
	"errors"
	"testing"
)

func TestImageSetGet(t *testing.T) {
	im := NewImage()
	if err := im.Set(0x123, 0xAB); err != nil {
		t.Fatal(err)
	}
	if !im.Used(0x123) || im.Get(0x123) != 0xAB {
		t.Error("set byte not readable")
	}
	if im.Used(0x124) || im.Get(0x124) != 0 {
		t.Error("unset byte reads as used/nonzero")
	}
}

func TestImageConflict(t *testing.T) {
	im := NewImage()
	if err := im.Set(0x100, 0x11); err != nil {
		t.Fatal(err)
	}
	// Same value: compatible.
	if err := im.Set(0x100, 0x11); err != nil {
		t.Errorf("re-pinning same value failed: %v", err)
	}
	// Different value: conflict.
	err := im.Set(0x100, 0x22)
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *ConflictError", err)
	}
	if ce.Addr != 0x100 || ce.Existing != 0x11 || ce.Proposed != 0x22 {
		t.Errorf("conflict detail = %+v", ce)
	}
	if im.Get(0x100) != 0x11 {
		t.Error("conflict modified the image")
	}
}

func TestImageSetOutOfRange(t *testing.T) {
	im := NewImage()
	if err := im.Set(0x1000, 0); err == nil {
		t.Error("out-of-range address accepted")
	}
}

func TestImageSetBytesAtomic(t *testing.T) {
	im := NewImage()
	if err := im.Set(0x102, 0x99); err != nil {
		t.Fatal(err)
	}
	// Run collides at its third byte: nothing gets written.
	err := im.SetBytes(0x100, []byte{1, 2, 3})
	if err == nil {
		t.Fatal("conflicting run accepted")
	}
	if im.Used(0x100) || im.Used(0x101) {
		t.Error("partial run written despite conflict")
	}
	// Compatible run succeeds.
	if err := im.SetBytes(0x100, []byte{1, 2, 0x99}); err != nil {
		t.Fatalf("compatible run rejected: %v", err)
	}
}

func TestImageSetBytesOverflow(t *testing.T) {
	im := NewImage()
	if err := im.SetBytes(0xFFF, []byte{1, 2}); err == nil {
		t.Error("overflowing run accepted")
	}
}

func TestImageSetInstruction(t *testing.T) {
	im := NewImage()
	next, err := im.SetInstruction(0x200, Instruction{Op: LDA, Target: 0xE00})
	if err != nil {
		t.Fatal(err)
	}
	if next != 0x202 {
		t.Errorf("next = %03x, want 202", next)
	}
	if im.Get(0x200) != 0x0E || im.Get(0x201) != 0x00 {
		t.Errorf("encoded bytes %02x %02x", im.Get(0x200), im.Get(0x201))
	}
	if _, err := im.SetInstruction(0x300, Instruction{Op: Op(99)}); err == nil {
		t.Error("unencodable instruction accepted")
	}
}

func TestImageUsedCountAndAddrs(t *testing.T) {
	im := NewImage()
	for _, a := range []uint16{5, 3, 900} {
		if err := im.Set(a, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := im.UsedCount(); got != 3 {
		t.Errorf("UsedCount = %d", got)
	}
	addrs := im.UsedAddrs()
	want := []uint16{3, 5, 900}
	for i, a := range want {
		if addrs[i] != a {
			t.Errorf("UsedAddrs = %v, want %v", addrs, want)
			break
		}
	}
}

func TestImageUnset(t *testing.T) {
	im := NewImage()
	if err := im.Set(3, 0x42); err != nil {
		t.Fatal(err)
	}
	im.Unset(3)
	im.Unset(MemSize) // out of range: no effect
	if *im != *NewImage() {
		t.Error("Unset left the cell pinned or its byte set")
	}
	if err := im.Set(3, 0x17); err != nil {
		t.Errorf("unset cell refused a new value: %v", err)
	}
}

func TestImageCloneIndependent(t *testing.T) {
	im := NewImage()
	if err := im.Set(1, 0x10); err != nil {
		t.Fatal(err)
	}
	c := im.Clone()
	if err := c.Set(2, 0x20); err != nil {
		t.Fatal(err)
	}
	if im.Used(2) {
		t.Error("clone shares storage")
	}
}

func TestImageOverlay(t *testing.T) {
	base := NewImage()
	if err := base.Set(0x10, 0xAA); err != nil {
		t.Fatal(err)
	}
	add := NewImage()
	if err := add.Set(0x11, 0xBB); err != nil {
		t.Fatal(err)
	}
	if err := add.Set(0x10, 0xAA); err != nil { // same value: compatible
		t.Fatal(err)
	}
	if err := base.Overlay(add); err != nil {
		t.Fatalf("compatible overlay rejected: %v", err)
	}
	if base.Get(0x11) != 0xBB {
		t.Error("overlay byte missing")
	}

	bad := NewImage()
	if err := bad.Set(0x10, 0xCC); err != nil {
		t.Fatal(err)
	}
	if err := base.Overlay(bad); err == nil {
		t.Error("conflicting overlay accepted")
	}
	if base.Get(0x10) != 0xAA {
		t.Error("failed overlay modified base")
	}
}

func TestImageBytes(t *testing.T) {
	im := NewImage()
	if err := im.Set(0, 0x42); err != nil {
		t.Fatal(err)
	}
	bs := im.Bytes()
	if len(bs) != MemSize || bs[0] != 0x42 || bs[1] != 0 {
		t.Error("Bytes() wrong")
	}
	// Returned slice is a copy.
	bs[0] = 0
	if im.Get(0) != 0x42 {
		t.Error("Bytes() aliases image storage")
	}
}
