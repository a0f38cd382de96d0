package parwan

import (
	"fmt"
	"sort"
)

// Image is a sparse 4K memory image with conflict tracking. The self-test
// program generator builds its programs into an Image: each test pins
// specific bytes at specific addresses (instruction placements, seeded data
// cells), and two tests conflict exactly when they pin *different* values at
// the same address — the paper's "address conflicts" that make 7 of the 48
// address-bus tests inapplicable in a single program. Pinning the same value
// twice is allowed and is what makes the remaining tests compose.
type Image struct {
	bytes [MemSize]byte
	used  [MemSize]bool
}

// ConflictError reports an attempt to pin two different values at one
// address.
type ConflictError struct {
	Addr     uint16
	Existing byte
	Proposed byte
}

// Error implements the error interface.
func (e *ConflictError) Error() string {
	return fmt.Sprintf("parwan: address conflict at %03x: %02x already pinned, %02x proposed",
		e.Addr, e.Existing, e.Proposed)
}

// NewImage returns an empty image.
func NewImage() *Image { return &Image{} }

// Set pins value b at addr. It fails with a *ConflictError when the address
// already holds a different value, and with a range error when addr is
// outside the 12-bit space.
func (im *Image) Set(addr uint16, b byte) error {
	if int(addr) >= MemSize {
		return fmt.Errorf("parwan: address %#x outside %d-byte memory", addr, MemSize)
	}
	if im.used[addr] && im.bytes[addr] != b {
		return &ConflictError{Addr: addr, Existing: im.bytes[addr], Proposed: b}
	}
	im.bytes[addr] = b
	im.used[addr] = true
	return nil
}

// Unset returns addr to the unpinned state, undoing a Set; the generator
// rolls a failed trial placement back through it.
func (im *Image) Unset(addr uint16) {
	if int(addr) < MemSize {
		im.bytes[addr], im.used[addr] = 0, false
	}
}

// SetBytes pins a run of bytes starting at addr. On conflict nothing is
// modified.
func (im *Image) SetBytes(addr uint16, bs []byte) error {
	if int(addr)+len(bs) > MemSize {
		return fmt.Errorf("parwan: byte run at %#x length %d overflows memory", addr, len(bs))
	}
	for i, b := range bs {
		a := addr + uint16(i)
		if im.used[a] && im.bytes[a] != b {
			return &ConflictError{Addr: a, Existing: im.bytes[a], Proposed: b}
		}
	}
	for i, b := range bs {
		im.bytes[addr+uint16(i)] = b
		im.used[addr+uint16(i)] = true
	}
	return nil
}

// SetInstruction encodes in and pins it at addr, returning the address just
// past it.
func (im *Image) SetInstruction(addr uint16, in Instruction) (uint16, error) {
	bs, err := in.Encode()
	if err != nil {
		return addr, err
	}
	if err := im.SetBytes(addr, bs); err != nil {
		return addr, err
	}
	return addr + uint16(len(bs)), nil
}

// Get returns the byte at addr (zero for unpinned cells).
func (im *Image) Get(addr uint16) byte {
	if int(addr) >= MemSize {
		return 0
	}
	return im.bytes[addr]
}

// Used reports whether addr has been pinned.
func (im *Image) Used(addr uint16) bool {
	return int(addr) < MemSize && im.used[addr]
}

// UsedCount returns the number of pinned addresses — the paper's "size of
// the memory required for storing the test program".
func (im *Image) UsedCount() int {
	n := 0
	for _, u := range im.used {
		if u {
			n++
		}
	}
	return n
}

// UsedAddrs returns the pinned addresses in ascending order.
func (im *Image) UsedAddrs() []uint16 {
	addrs := make([]uint16, 0, 64)
	for a, u := range im.used {
		if u {
			addrs = append(addrs, uint16(a))
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// Clone returns a deep copy of the image, used to trial-place a test and
// roll back on conflict.
func (im *Image) Clone() *Image {
	c := *im
	return &c
}

// Overlay pins every used byte of o into im. On the first conflict nothing
// is modified and the conflict is returned.
func (im *Image) Overlay(o *Image) error {
	for a := 0; a < MemSize; a++ {
		if o.used[a] && im.used[a] && im.bytes[a] != o.bytes[a] {
			return &ConflictError{Addr: uint16(a), Existing: im.bytes[a], Proposed: o.bytes[a]}
		}
	}
	for a := 0; a < MemSize; a++ {
		if o.used[a] {
			im.bytes[a] = o.bytes[a]
			im.used[a] = true
		}
	}
	return nil
}

// Bytes returns the full 4K memory contents with unpinned cells zero.
func (im *Image) Bytes() []byte {
	out := make([]byte, MemSize)
	copy(out, im.bytes[:])
	return out
}
